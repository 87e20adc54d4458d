"""Differential test: the fast engines against the reference policies.

A deliberately naive event loop asks ``policies.schedule_*`` for the set of
jobs in service after every arrival and departure and starts or preempts
jobs to match.  Every engine, driven through ``simulate``, must give the
same per-job waits and departures bit for bit: both sides do the same
double arithmetic on the same event times.  The SNF in-service log, from
which ``collect_stats`` takes ``batch_z``, the audit and ``max_busy``, must
give the reference's per-type in-service counts after every event, and
SNF-NP the reference's start times.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from msjlab import (JobTypeSpec, PolicyKind, QueueJob, QueueState, Schedule,
                    SystemConfig, build_job_stream, derive_params,
                    schedule_fcfs, schedule_modified_fcfs, schedule_snf,
                    schedule_snf_np, simulate)
from msjlab import engines
from msjlab.stream import ResampleSource


def _scheduler(policy, config, n):
    needs = config.server_needs
    if policy is PolicyKind.FCFS:
        return lambda s: schedule_fcfs(s, n, needs)
    if policy is PolicyKind.MODIFIED_FCFS:
        l_max = derive_params(config).l_max
        return lambda s: schedule_modified_fcfs(s, n, l_max, needs)
    if policy is PolicyKind.SNF:
        return lambda s: schedule_snf(s, n, needs)
    if policy is PolicyKind.SNF_NP:
        return lambda s: schedule_snf_np(s, n, needs)
    return lambda s: Schedule(serve=frozenset(j.job_id for j in s.jobs))


def reference_run(policy, config, stream, n):
    """(waits, departures, starts, counts) from re-scheduling at every event.

    ``starts`` holds each job's last service start and ``counts`` maps each
    event time to the per-type in-service counts after the events at it.
    Ties go to the departure, then to the lower job id, as in the engines.
    A job starting a later service spell draws its clock from the role-3
    resample stream; the draws of one event go in (type, arrival) order.
    """
    schedule = _scheduler(policy, config, n)
    mus = config.service_rates
    arrivals = stream.arrival_times.tolist()
    unit = stream.unit_service.tolist()
    types = stream.type_idx.tolist()
    num = len(arrivals)
    resample = ResampleSource(stream.seed)
    waits = [0.0] * num
    departures = [0.0] * num
    starts = [0.0] * num
    counts: dict[float, list[int]] = {}
    enq = list(arrivals)
    served_once = [False] * num
    in_service: dict[int, float] = {}  # job id -> departure time
    system: list[int] = []  # job ids in arrival order
    k = 0
    while k < num or system:
        t_arr = arrivals[k] if k < num else math.inf
        nxt = min(in_service, key=lambda j: (in_service[j], j), default=None)
        if nxt is not None and in_service[nxt] <= t_arr:
            t = in_service.pop(nxt)
            system.remove(nxt)
            departures[nxt] = t
        else:
            t = t_arr
            system.append(k)
            k += 1
        state = QueueState(
            jobs=tuple(QueueJob(j, types[j], j in in_service) for j in system),
            num_types=config.num_types)
        serve = schedule(state).serve
        for j in system:
            if j in in_service and j not in serve:
                del in_service[j]
                enq[j] = t
        for j in sorted((j for j in serve if j not in in_service),
                        key=lambda j: (types[j], j)):
            waits[j] += t - enq[j]
            mu = mus[types[j]]
            dur = resample.next_exp() / mu if served_once[j] else unit[j] / mu
            served_once[j] = True
            starts[j] = t
            in_service[j] = t + dur
        counts[t] = [0] * config.num_types
        for j in in_service:
            counts[t][types[j]] += 1
    return waits, departures, starts, counts


@st.composite
def small_configs(draw):
    n = draw(st.integers(1, 8))
    num_types = draw(st.integers(1, 4))
    # needs come from a pool that may be smaller than the number of types, so
    # equal needs are common and the SNF shortcuts meet their boundaries
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


@given(small_configs(), st.integers(1, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_engines_match_reference_policies(config, jobs, seed):
    stream = build_job_stream(seed, jobs, config)
    l_max = derive_params(config).l_max
    systems = [(p, None) for p in PolicyKind]
    systems.append((PolicyKind.MODIFIED_FCFS, config.n + l_max))
    needs = np.asarray(config.server_needs, dtype=np.int64)
    mus = np.asarray(config.service_rates, dtype=np.float64)
    for policy, n_servers in systems:
        result = simulate(policy, config, stream, n_servers=n_servers)
        waits, departures, starts, counts = reference_run(
            policy, config, stream, n_servers or config.n)
        assert np.array_equal(result.waits, waits), policy
        assert np.array_equal(result.departures, departures), policy
        if policy is PolicyKind.SNF:
            _, _, zlog = engines.run_snf(stream, needs, mus, config.n)
            event_times = np.fromiter(counts, dtype=np.float64)
            assert np.isin(zlog[0], event_times).all()
            engine_counts = np.stack(
                [engines.step_at(t, c, event_times)
                 for t, c in engines.in_service_steps(zlog, config.num_types)],
                axis=1)
            assert np.array_equal(engine_counts, list(counts.values()))
        elif policy is PolicyKind.SNF_NP:
            _, engine_starts, _ = engines.run_snf_np(stream, needs, mus, config.n)
            assert np.array_equal(engine_starts, starts)
