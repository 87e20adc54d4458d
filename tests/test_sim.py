import inspect
from dataclasses import replace

import numpy as np
import pytest

import msjlab
from msjlab import (DOMINANCE_SYSTEMS, JobStream, PolicyKind,
                    build_job_stream, check_couplings,
                    check_infinite_server_dominance, check_sandwich,
                    derive_params, mean_waiting_time, sandwich_systems,
                    simulate, simulate_coupled)
from msjlab import sim, stats
from reference import audit_work_conservation, infinite_server_dominance

EXPORTS = [
    "AssumptionReport", "AuditResult", "BatchMeansEstimate", "BoundReport",
    "ConfigError", "CriticalIndices", "CtmcSpec", "DOMINANCE_SYSTEMS",
    "DerivedParams", "JobStream", "JobTypeSpec", "ParamSet", "PolicyKind",
    "SimResult", "StationarySolution", "SystemConfig", "batch_means",
    "build_job_stream", "check_assumptions", "check_couplings",
    "check_infinite_server_dominance", "check_sandwich", "critical_indices",
    "ctmc_stationary", "ctmc_stationary_auto", "derive_params", "erlang_c",
    "evaluate_bounds", "from_batch_values", "make_param_set",
    "mean_waiting_time", "mminf_negative_part", "mminf_tail",
    "queueing_probability", "sandwich_systems", "simulate",
    "simulate_coupled", "snf_allocation", "snf_allocation_fn", "workload",
]


def test_package_exports_pinned():
    # moving a name between modules must not drop it from the package
    names = sorted(name for name, value in vars(msjlab).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == EXPORTS


@pytest.mark.parametrize("policy", [PolicyKind.FCFS, PolicyKind.SNF,
                                    PolicyKind.SNF_NP])
def test_whole_machine_mm1(policy, whole_machine):
    stream = build_job_stream(1, 300_000, whole_machine)
    result = simulate(policy, whole_machine, stream)
    est = mean_waiting_time(result, whole_machine)["overall"]
    assert est.contains(1.0)  # M/M/1 mean wait lam/(mu(mu-lam)) = 1


def test_warmup_validation(mm2):
    stream = build_job_stream(0, 1000, mm2)
    with pytest.raises(ValueError):
        simulate(PolicyKind.FCFS, mm2, stream, warmup=1.0)
    with pytest.raises(ValueError):
        simulate(PolicyKind.FCFS, mm2, stream, warmup=-0.1)
    with pytest.raises(ValueError, match="at least 2 batches"):
        simulate(PolicyKind.FCFS, mm2, stream, batches=1)


@pytest.mark.parametrize("policy", PolicyKind)
def test_arrivals_all_at_zero_rejected(policy, mm2):
    # a last arrival at 0 leaves the window [warmup * t1, t1] empty
    stream = JobStream(seed=0, arrival_times=np.zeros(3),
                       unit_service=np.ones(3),
                       type_idx=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="empty statistics window"):
        simulate(policy, mm2, stream)


def test_need_exceeding_servers_rejected(whole_machine):
    stream = build_job_stream(0, 1000, whole_machine)
    with pytest.raises(ValueError, match="exceeds"):
        simulate_coupled([(PolicyKind.FCFS, 2)], whole_machine, stream)


def test_determinism_digest(set_one_64):
    stream = build_job_stream(3, 30_000, set_one_64)
    digests = {simulate(p, set_one_64, stream).digest()
               for _ in range(2)
               for p in [PolicyKind.SNF]}
    assert len(digests) == 1
    # and a different seed changes it
    other = simulate(PolicyKind.SNF, set_one_64,
                     build_job_stream(4, 30_000, set_one_64))
    assert other.digest() not in digests


def test_identical_coupled_systems_identical_results(set_one_64):
    stream = build_job_stream(5, 20_000, set_one_64)
    a, b = simulate_coupled([(PolicyKind.FCFS, None), (PolicyKind.FCFS, None)],
                            set_one_64, stream)
    assert a.digest() == b.digest()


def test_simulate_leaves_the_shared_stream_unchanged(set_one_64):
    # the infinite server's start times are the stream's arrivals array itself
    stream = build_job_stream(6, 5000, set_one_64)
    simulate_coupled([(p, None) for p in PolicyKind], set_one_64, stream)
    fresh = build_job_stream(6, 5000, set_one_64)
    for name in ("arrival_times", "unit_service", "type_idx"):
        assert getattr(stream, name).tobytes() == getattr(fresh, name).tobytes()


class TestSandwich:
    def triple(self, config, stream):
        return simulate_coupled(sandwich_systems(config), config, stream)

    def test_single_job(self, set_one_64):
        stream = build_job_stream(0, 1, set_one_64)
        res = self.triple(set_one_64, stream)
        assert all(r.waits[0] == 0.0 for r in res)
        assert check_sandwich(res) is True

    def test_decoupled_runs_can_violate(self, set_one_64):
        # different streams: the checker compares honestly, no coupling assumed
        l_max = derive_params(set_one_64).l_max
        s1 = build_job_stream(0, 20_000, set_one_64)
        s2 = build_job_stream(99, 20_000, set_one_64)
        lower = simulate(PolicyKind.MODIFIED_FCFS,
                         replace(set_one_64, n=set_one_64.n + l_max), s1)
        orig = simulate(PolicyKind.FCFS, set_one_64, s2)
        upper = simulate(PolicyKind.MODIFIED_FCFS, set_one_64, s1)
        assert check_sandwich([lower, orig, upper]) is False

    def test_length_mismatch_rejected(self, set_one_64):
        r1 = self.triple(set_one_64, build_job_stream(0, 100, set_one_64))
        r2 = simulate(PolicyKind.FCFS, set_one_64,
                      build_job_stream(0, 200, set_one_64))
        with pytest.raises(ValueError):
            check_sandwich([r1[0], r2, r1[2]])
        with pytest.raises(ValueError):
            check_sandwich(r1[:2])


class TestInfiniteServerDominance:
    def pair(self, config, seed, jobs):
        return simulate_coupled(DOMINANCE_SYSTEMS, config,
                                build_job_stream(seed, jobs, config))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_on_coupled_pairs(self, seed, set_one_64,
                                                two_type):
        for config in (set_one_64, two_type):
            pair = self.pair(config, seed, 5_000)
            assert check_infinite_server_dominance(pair) is True
            assert infinite_server_dominance(pair) is True

    def test_matches_reference_on_hand_made_pairs(self, set_one_64):
        inf_res, fin_res = self.pair(set_one_64, 1, 2_000)
        deps = fin_res.departures
        late = deps.copy()
        late[7] += 1.0  # one infinite-server departure made later
        swapped = deps.copy()  # equal times, other jobs of the same type
        k, m = np.flatnonzero(fin_res.types == fin_res.types[7])[:2]
        swapped[[k, m]] = swapped[[m, k]]
        cases = {"violating": (late, False), "equal times": (deps, True),
                 "equal times, swapped jobs": (swapped, True)}
        for name, (inf_deps, want) in cases.items():
            pair = [replace(inf_res, departures=inf_deps), fin_res]
            assert check_infinite_server_dominance(pair) is want, name
            assert infinite_server_dominance(pair) is want, name

    def test_single_job_trivial(self, set_one_64):
        stream = build_job_stream(2, 1, set_one_64)
        pair = simulate_coupled(DOMINANCE_SYSTEMS, set_one_64, stream)
        assert check_infinite_server_dominance(pair) is True

    def test_length_mismatch_rejected(self, set_one_64):
        a = simulate(PolicyKind.INFINITE_SERVER, set_one_64,
                     build_job_stream(0, 100, set_one_64))
        b = simulate(PolicyKind.FCFS, set_one_64,
                     build_job_stream(0, 200, set_one_64))
        with pytest.raises(ValueError):
            check_infinite_server_dominance([a, b])
        with pytest.raises(ValueError, match="infinite-server, finite"):
            check_infinite_server_dominance([a])

    def test_uncoupled_pair_rejected(self, set_one_64):
        a = simulate(PolicyKind.INFINITE_SERVER, set_one_64,
                     build_job_stream(0, 100, set_one_64))
        b = simulate(PolicyKind.FCFS, set_one_64,
                     build_job_stream(1, 100, set_one_64))
        with pytest.raises(ValueError, match="not coupled"):
            check_infinite_server_dominance([a, b])
        shared_arrivals = replace(b, arrivals=a.arrivals)  # types still differ
        with pytest.raises(ValueError, match="not coupled"):
            check_infinite_server_dominance([a, shared_arrivals])


@pytest.mark.parametrize("policy", [PolicyKind.FCFS, PolicyKind.SNF,
                                    PolicyKind.SNF_NP, PolicyKind.MODIFIED_FCFS])
def test_capacity_constraint_and_audit(policy, set_one_64):
    stream = build_job_stream(6, 50_000, set_one_64)
    result = simulate(policy, set_one_64, stream)
    assert result.max_busy <= set_one_64.n  # Eq-style capacity constraint
    assert result.audit.violations == 0     # clean at delta' = l_max
    assert result.audit.worst_slack >= 0
    assert np.all(result.waits >= 0)
    assert np.all(result.batch_q >= -1e-9)


def test_fcfs_no_overtaking(set_one_64):
    stream = build_job_stream(8, 50_000, set_one_64)
    result = simulate(PolicyKind.FCFS, set_one_64, stream)
    starts = result.arrivals + result.waits
    assert np.all(np.diff(starts) >= 0)


def test_little_law_self_consistency(set_one_64):
    stream = build_job_stream(1, 400_000, set_one_64)
    result = simulate(PolicyKind.FCFS, set_one_64, stream)
    t0, t1 = result.window
    waits = mean_waiting_time(result, set_one_64)["per_type"]
    mask = result.arrivals >= t0
    for i in range(3):
        lam_hat = (result.types[mask] == i).sum() / (t1 - t0)
        q_est = stats.from_batch_values(result.batch_q[:, i])
        w_est = waits[i]
        combined = lam_hat * w_est.half_width + q_est.half_width
        assert abs(lam_hat * w_est.mean - q_est.mean) <= combined


def test_queue_fraction_identity_modified_fcfs(set_one_64):
    stream = build_job_stream(3, 400_000, set_one_64)
    result = simulate(PolicyKind.MODIFIED_FCFS, set_one_64, stream)
    p = derive_params(set_one_64)
    q_total = result.batch_q.sum(axis=1)
    for i, t in enumerate(set_one_64.types):
        ratio = stats.from_batch_values(result.batch_q[:, i] / q_total)
        assert ratio.contains(t.arrival_rate / p.lambda_total), i


def _window_epochs(path, result, config):
    """(x, z) epochs of a trajectory dump inside the run's audit window,
    after checking each line's format and feasibility."""
    lines = path.read_text().splitlines()
    assert lines[0] == "t\tkind\ttype\tx\tz"
    assert len(lines) == 1 + 2 * result.num_jobs
    needs = config.server_needs
    t0, t1 = result.window
    epochs = []
    for line in lines[1:]:
        t_s, kind, type_s, x_s, z_s = line.split("\t")
        assert kind in ("arrival", "departure")
        assert 0 <= int(type_s) < config.num_types
        x = tuple(int(v) for v in x_s.split(";"))
        z = tuple(int(v) for v in z_s.split(";"))
        assert all(zi <= xi for zi, xi in zip(z, x))
        assert sum(l * zi for l, zi in zip(needs, z)) <= config.n
        if t0 <= float(t_s) <= t1:
            epochs.append((x, z))
    return epochs


def test_trajectory_dump_consistent_with_audit(tmp_path, set_one_64):
    path = tmp_path / "events.tsv"
    stream = build_job_stream(4, 5_000, set_one_64)
    with open(path, "w") as fh:
        result = simulate(PolicyKind.SNF, set_one_64, stream, trajectory=fh)
    epochs = _window_epochs(path, result, set_one_64)
    replay = audit_work_conservation(epochs, set_one_64.n,
                                     derive_params(set_one_64).l_max,
                                     set_one_64.server_needs)
    assert replay.violations == result.audit.violations == 0


def test_snf_np_allows_overtaking_but_not_starvation(two_type):
    # SNF-NP must finish every job; waits finite, all depart after arrival
    stream = build_job_stream(11, 30_000, two_type)
    result = simulate(PolicyKind.SNF_NP, two_type, stream)
    assert np.all(result.departures > result.arrivals)
    assert np.all(np.isfinite(result.waits))


def test_custom_delta_prime_audit(tmp_path, set_one_64):
    # delta' = 0 demands full work conservation, which head-of-line FCFS
    # does not provide: blocked-head epochs leave fitting-sized holes idle.
    # The run audits at delta' = l_max; replay its epochs at both slacks.
    path = tmp_path / "events.tsv"
    stream = build_job_stream(9, 20_000, set_one_64)
    with open(path, "w") as fh:
        result = simulate(PolicyKind.FCFS, set_one_64, stream, trajectory=fh)
    epochs = _window_epochs(path, result, set_one_64)
    n, needs = set_one_64.n, set_one_64.server_needs
    strict = audit_work_conservation(epochs, n, 0.0, needs)
    lax = audit_work_conservation(epochs, n, derive_params(set_one_64).l_max,
                                  needs)
    assert strict.violations > 0
    assert lax == result.audit
    assert lax.violations == 0
    assert strict.worst_slack < lax.worst_slack


def test_check_couplings_simulates_shared_fcfs_once(monkeypatch, set_one_64):
    # FCFS @ n is in both the sandwich and the dominance pair: 4 runs, not 5
    real = sim.simulate
    calls = []

    def counting(policy, config, *args, **kwargs):
        calls.append((PolicyKind(policy), config.n))
        return real(policy, config, *args, **kwargs)

    monkeypatch.setattr(sim, "simulate", counting)
    stream = build_job_stream(0, 2_000, set_one_64)
    assert check_couplings(set_one_64, stream) == (True, True)
    assert len(calls) == len(set(calls)) == 4


def test_event_count_reported(mm2):
    stream = build_job_stream(0, 5000, mm2)
    result = simulate(PolicyKind.FCFS, mm2, stream)
    assert result.event_count == 10_000
    assert result.warmup_discarded == 0.1
