"""Differential test: the fast engines against the reference policies.

A deliberately naive event loop, ``reference.reference_run``, asks
``reference.schedule_*`` for the set of jobs in service after every arrival
and departure and starts or preempts jobs to match.  Every engine, driven
through ``simulate_coupled``, must give the same per-job waits and
departures bit for bit: both sides do the same double arithmetic on the
same event times.
The SNF in-service log, from which ``collect_stats`` takes ``batch_z``, the
audit and ``max_busy``, must give the reference's per-type in-service
counts after every event, and change by one job at a time, and SNF-NP the
reference's start times.  Every system's ``batch_qprob``, audit and
``max_busy`` must equal, bit for bit, those of ``reference.merged_sweep``,
which sums both levels of the merged epoch sweep in one array, fed with the
reference's service starts or the SNF log.  Hand-made streams add the ties
of the head-of-line start-time recursion, of the SNF prefix boundary and
of SNF's type-0 hand-offs, where arrivals, starts and departures share
dyadic times.  SNF's type 0, which nothing preempts, must also get the
waits and departures of first come first served on its own slots.  The
sweep also runs with slices of 1 and 3 arrivals, so that slice boundaries
land on times that arrivals, starts and departures share.  Configs of 128
and 130 types put the SNF log at the edge of its int8 width and past it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msjlab import (JobTypeSpec, PolicyKind, SystemConfig, build_job_stream,
                    derive_params, make_param_set, simulate, simulate_coupled)
from msjlab import engines
from msjlab.stream import JobStream
from reference import merged_sweep, reference_run


@st.composite
def small_configs(draw):
    n = draw(st.integers(1, 8))
    num_types = draw(st.integers(1, 4))
    # needs come from a pool that may be smaller than the number of types, so
    # equal needs are common and SNF and SNF-NP meet their ties
    pool = draw(st.lists(st.integers(1, n), min_size=1, max_size=num_types))
    needs = sorted(draw(st.lists(st.sampled_from(pool), min_size=num_types,
                                 max_size=num_types)))
    mus = draw(st.lists(st.floats(0.2, 3.0), min_size=num_types,
                        max_size=num_types))
    shares = draw(st.lists(st.floats(0.05, 1.0), min_size=num_types,
                           max_size=num_types))
    # heavy but stable: a fraction rho of the n servers is busy on average
    rho = draw(st.floats(0.3, 0.99))
    scale = rho * n / sum(shares)
    return SystemConfig(n=n, types=tuple(
        JobTypeSpec(s * scale * mu / l, mu, l)
        for s, mu, l in zip(shares, mus, needs)))


def _hand_made(n, types, arrivals, unit_service, type_idx):
    """A config of (arrival rate, service rate, need) types and a stream
    whose dyadic times make every sum exact, so ties really tie."""
    config = SystemConfig(n=n, types=tuple(JobTypeSpec(*t) for t in types))
    return config, JobStream(seed=0, arrival_times=np.array(arrivals),
                             unit_service=np.array(unit_service),
                             type_idx=np.array(type_idx, dtype=np.int64))


# Tie cases of the head-of-line recursion, each also run under
# Modified-FCFS at n like every input: a departure exactly at the next
# arrival, whose servers that arrival may take at once, and a job whose need
# is n, so that it is admitted only at an empty machine (limit 0).  Then the
# SNF prefix boundary: an arrival just behind the prefix whose need equals
# the free servers, or exceeds them by one; a small-need arrival inside the
# prefix that preempts its last job; and two equal-need types whose waiting
# jobs SNF takes by type and SNF-NP by arrival.  Then simultaneous
# arrivals, which leave some slices of the merged sweep with no change.
# Last, SNF's type-0 capacity events: two type-0 departures at one instant,
# one handing its slot to a waiting type-0 job and one freeing servers, as
# larger jobs arrive or leave; and need 2 on 5 servers, where type 0 has 2
# slots and one server it can never use.
HAND_MADE = {
    "departure at next arrival": _hand_made(
        2, [(0.25, 1.0, 1), (0.25, 2.0, 2)],
        [0.0, 0.25, 1.0, 1.5, 2.0, 2.5, 3.0],
        [1.0, 1.5, 0.5, 1.0, 1.0, 0.5, 0.5],
        [0, 1, 0, 1, 0, 0, 1]),
    "need equals n": _hand_made(
        1, [(0.5, 1.0, 1)], [0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 0.5, 2.0],
        [0, 0, 0, 0]),
    "need equals n, mixed": _hand_made(
        3, [(0.5, 1.0, 1), (0.125, 0.5, 3)],
        [0.0, 0.5, 0.75, 1.0, 1.5, 2.5, 4.5],
        [1.0, 0.5, 0.5, 0.25, 1.0, 0.5, 0.25],
        [0, 0, 1, 0, 1, 0, 0]),
    "need equals free at the boundary": _hand_made(
        5, [(0.25, 1.0, 1), (0.25, 1.0, 2)], [0.0, 0.5, 1.0, 3.0],
        [4.0, 4.0, 1.0, 0.5], [1, 0, 1, 0]),
    "one server short at the boundary": _hand_made(
        4, [(0.25, 1.0, 1), (0.25, 1.0, 2)], [0.0, 0.5, 1.0, 3.0],
        [4.0, 1.0, 1.0, 0.5], [1, 0, 1, 0]),
    "small-need arrival preempts": _hand_made(
        4, [(0.25, 1.0, 1), (0.25, 1.0, 2)], [0.0, 0.25, 0.5, 4.0],
        [2.0, 2.0, 1.0, 0.5], [1, 1, 0, 0]),
    "equal needs, later type arrived first": _hand_made(
        2, [(0.125, 1.0, 2), (0.125, 1.0, 2)], [0.0, 0.5, 1.0],
        [2.0, 1.0, 1.0], [0, 1, 0]),
    "tied arrivals": _hand_made(
        3, [(0.5, 1.0, 1), (0.25, 1.0, 2)],
        [0.0, 0.5, 0.5, 0.5, 1.0, 2.0, 2.0, 3.0],
        [1.0, 2.0, 0.5, 1.0, 0.25, 1.0, 0.5, 0.5],
        [0, 1, 0, 1, 0, 0, 1, 0]),
    # at 1.0 J0 hands its slot to J2 and J1's servers start J3; J4, of a
    # smaller type, arrives then and preempts J3, and J5, a type-0 job
    # arriving at the same instant, starts and preempts J4
    "hand-off as a larger job arrives": _hand_made(
        4, [(0.25, 1.0, 2), (0.25, 1.0, 2), (0.25, 1.0, 2)],
        [0.0, 0.0, 0.25, 0.5, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0, 0.5],
        [0, 0, 0, 2, 1, 0]),
    # at 1.0 J0 hands its slot to J2 and J1's servers start J3; at 2.0
    # J2's departure, whose servers start J4, ties with J3's, and J5
    # arrives and starts, and J6, a type-0 job arriving then, preempts it
    "hand-off and free, then a free tied with a larger departure": _hand_made(
        4, [(0.25, 1.0, 2), (0.25, 1.0, 2)],
        [0.0, 0.0, 0.25, 0.5, 1.5, 2.0, 2.0],
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5], [0, 0, 0, 1, 1, 1, 0]),
    # J2 waits for one of type 0's 2 slots; at 1.5 J2's departure frees
    # servers for J3, arriving then, and J4, a type-0 job arriving at the
    # same instant, starts and preempts J3
    "need 2 on 5 servers": _hand_made(
        5, [(0.25, 1.0, 2), (0.25, 1.0, 3)], [0.0, 0.0, 0.5, 1.5, 1.5],
        [1.0, 2.0, 0.5, 1.0, 1.0], [0, 0, 0, 1, 0]),
}


# arrivals per slice of collect_stats's merged sweep: 1 and 3 put slice
# boundaries at most arrival times, where starts and departures tie
SLICES = (1, 3, engines._SLICE)


@given(small_configs(), st.integers(1, 300), st.integers(0, 2**32 - 1),
       st.sampled_from(SLICES))
@settings(max_examples=60, deadline=None)
def test_engines_match_reference_policies(config, jobs, seed, slice_size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engines, "_SLICE", slice_size)
        _check_against_reference(config, build_job_stream(seed, jobs, config))


@pytest.mark.parametrize("case", HAND_MADE)
def test_engines_match_reference_policies_on_ties(case, monkeypatch):
    for slice_size in SLICES:
        monkeypatch.setattr(engines, "_SLICE", slice_size)
        _check_against_reference(*HAND_MADE[case])


def _check_type0_autonomy(config, stream):
    """SNF's type 0 is first come first served on n // l_0 slots: its waits
    and departures are those of ``hol_start_times`` on the type-0 jobs alone
    with that many servers and unit needs, bit for bit, and its log's starts
    and stops are at those start and departure times."""
    needs = np.asarray(config.server_needs, dtype=np.int64)
    mus = np.asarray(config.service_rates, dtype=np.float64)
    waits, departures, (zt, zi, zdz) = engines.run_snf(stream, needs, mus,
                                                       config.n)
    small = stream.type_idx == 0
    arrivals = np.compress(small, stream.arrival_times)
    services = np.compress(small, stream.unit_service) / mus[0]
    ones = np.ones(len(arrivals), dtype=np.int64)
    starts = engines.hol_start_times(arrivals, services, ones,
                                     config.n // config.server_needs[0], ones)
    assert np.compress(small, waits).tobytes() == (starts - arrivals).tobytes()
    assert np.compress(small, departures).tobytes() == (
        starts + services).tobytes()
    for step, times in ((1, starts), (-1, starts + services)):
        logged = np.compress((zi == 0) & (zdz == step), zt)
        assert np.sort(logged).tobytes() == np.sort(times).tobytes()


@given(small_configs(), st.integers(1, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_snf_type0_is_fcfs_on_its_slots(config, jobs, seed):
    _check_type0_autonomy(config, build_job_stream(seed, jobs, config))


@pytest.mark.parametrize("param_set", ["one", "two"])
@pytest.mark.parametrize("n", [64, 1024])
def test_snf_type0_is_fcfs_on_its_slots_at_study_sets(param_set, n):
    config = make_param_set(param_set, n)
    _check_type0_autonomy(config, build_job_stream(0, 20_000, config))


def _wide_config(num_types):
    """Many types of need 1 + k // 40 at rate 0.4 on 120 servers, a load of
    about 0.93 at 130 types, so the top types are preempted often."""
    return SystemConfig(n=120, types=tuple(
        JobTypeSpec(0.4, 1.0, 1 + k // 40) for k in range(num_types)))


@pytest.mark.parametrize("num_types", [128, 130])
def test_engines_match_reference_policies_at_128_types(num_types):
    # 128 types log type 127 and its stop ~127 = -128 in int8; 130 widen
    # the log to int64
    config = _wide_config(num_types)
    _check_against_reference(config, build_job_stream(0, 1000, config))


def test_snf_wide_log_keeps_digest_and_preemptions():
    """More than 128 types: SNF logs int64 codes and keeps the digest and
    the preemption count of an int64 log throughout."""
    config, jobs = _wide_config(130), 20_000
    stream = build_job_stream(0, jobs, config)
    _, _, zlog = engines.run_snf(
        stream, np.asarray(config.server_needs, dtype=np.int64),
        np.asarray(config.service_rates, dtype=np.float64), config.n)
    assert [a.dtype for a in zlog] == [np.float64, np.int64, np.int64]
    dz = zlog[2]
    # every stop is a departure or a preemption, and every job departs once
    assert int(-dz[dz < 0].sum()) - jobs == 5735
    assert simulate(PolicyKind.SNF, config, stream).digest() == (
        "e0788a48867b707e08aae1ffb22b721ca804cd4ed168397b716b4f4dccb91b4b")


def _check_against_reference(config, stream):
    l_max = derive_params(config).l_max
    systems = [(p, config.n) for p in PolicyKind]
    systems.append((PolicyKind.MODIFIED_FCFS, config.n + l_max))
    needs = np.asarray(config.server_needs, dtype=np.int64)
    mus = np.asarray(config.service_rates, dtype=np.float64)
    for (policy, n), result in zip(systems,
                                   simulate_coupled(systems, config, stream)):
        waits, departures, starts, counts = reference_run(
            policy, config, stream, n)
        assert np.array_equal(result.waits, waits), policy
        assert np.array_equal(result.departures, departures), policy
        trajectory = {"service_starts": np.array(starts)}
        if policy is PolicyKind.SNF:
            _, _, zlog = engines.run_snf(stream, needs, mus, config.n)
            trajectory = {"zlog": zlog}
            # the (times, type, dz) columns perfbench's span attributes read;
            # codes of at most 128 types are logged in signed bytes
            code = np.int8 if config.num_types <= 128 else np.int64
            assert [a.dtype for a in zlog] == [np.float64, code, code]
            assert len(zlog[0]) == len(zlog[1]) == len(zlog[2])
            # in time order, which collect_stats's sliced sweep relies on
            assert (zlog[0][1:] >= zlog[0][:-1]).all()
            # an event moves at most one job besides its own, one log entry each
            assert (np.abs(zlog[2]) == 1).all()
            # perfbench's counts sum the steps: exact past int8's range too
            stops = zlog[2] < 0
            assert int(-zlog[2][stops].sum()) == np.count_nonzero(stops)
            event_times = np.fromiter(counts, dtype=np.float64)
            assert np.isin(zlog[0], event_times).all()
            engine_counts = np.stack(
                [engines.step_at(*engines.in_service_step(zlog, i), event_times)
                 for i in range(config.num_types)], axis=1)
            assert np.array_equal(engine_counts, list(counts.values()))
        elif policy is PolicyKind.SNF_NP:
            engine_starts = engines.run_snf_np(
                stream, needs, stream.unit_service / mus[stream.type_idx],
                config.n)
            assert np.array_equal(engine_starts, starts)
        sweep = merged_sweep(arrivals=stream.arrival_times,
                             departures=result.departures,
                             types=stream.type_idx, needs=needs, n_servers=n,
                             window=result.window, batches=result.batches,
                             **trajectory)
        assert result.batch_qprob.tobytes() == sweep["batch_qprob"].tobytes()
        assert result.audit == sweep["audit"], policy
        assert result.max_busy == sweep["max_busy"], policy
