import tracemalloc

import numpy as np
import pytest

from msjlab import (CtmcSpec, JobTypeSpec, PolicyKind, SystemConfig,
                    build_job_stream, ctmc_stationary, ctmc_stationary_auto,
                    erlang_c, mm1_whole_machine, simulate, snf_allocation_fn)
from msjlab import stats
from msjlab.oracle import default_caps


class TestErlangC:
    def test_two_servers_unit_rates(self):
        out = erlang_c(2, 1.0, 1.0)
        assert out["p_wait"] == pytest.approx(1 / 3, rel=1e-12)
        assert out["mean_wait"] == pytest.approx(1 / 3, rel=1e-12)

    def test_single_server_half_load(self):
        out = erlang_c(1, 0.5, 1.0)
        assert out["p_wait"] == pytest.approx(0.5, rel=1e-12)
        assert out["mean_wait"] == pytest.approx(1.0, rel=1e-12)

    def test_light_traffic_limit(self):
        assert erlang_c(8, 1e-6, 1.0)["p_wait"] < 1e-20

    def test_instability_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            erlang_c(2, 2.0, 1.0)


def test_mm1_whole_machine_closed_forms():
    out = mm1_whole_machine(0.5, 1.0)
    assert out["mean_wait"] == pytest.approx(1.0)
    assert out["mean_queue"] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        mm1_whole_machine(1.0, 1.0)


class TestCtmc:
    def test_whole_machine_mm1(self, whole_machine):
        sol = ctmc_stationary_auto(whole_machine)
        assert sol.mean_wait == pytest.approx(1.0, abs=1e-6)
        assert sol.mean_q[0] == pytest.approx(0.5, abs=1e-6)
        assert sol.qprob == pytest.approx(0.5, abs=1e-6)
        assert not sol.truncation_limited

    def test_erlang_c_agreement(self, mm2):
        sol = ctmc_stationary_auto(mm2)
        assert sol.mean_wait == pytest.approx(1 / 3, abs=1e-6)
        assert sol.qprob == pytest.approx(1 / 3, abs=1e-6)

    @pytest.mark.parametrize("fixture", ["whole_machine", "mm2", "two_type"])
    def test_contracts(self, fixture, request):
        sol = ctmc_stationary_auto(request.getfixturevalue(fixture))
        assert sol.residual_inf < 1e-10
        assert sol.tail_mass_bound < 1e-8
        assert abs(sol.pi.sum() - 1.0) < 1e-12
        assert sol.pi.min() >= 0

    @pytest.mark.parametrize("fixture", ["whole_machine", "mm2", "two_type"])
    def test_flow_balance_identity(self, fixture, request):
        cfg = request.getfixturevalue(fixture)
        sol = ctmc_stationary_auto(cfg)
        for i, t in enumerate(cfg.types):
            assert sol.mean_z[i] == pytest.approx(
                t.arrival_rate / t.service_rate, abs=1e-8)

    @pytest.mark.parametrize("fixture", ["whole_machine", "mm2", "two_type"])
    def test_workload_normalized_work_identity(self, fixture, request):
        sol = ctmc_stationary_auto(request.getfixturevalue(fixture))
        assert sol.workload == pytest.approx(sol.normalized_work, abs=1e-8)

    def test_deterministic_moments(self, two_type):
        a = ctmc_stationary_auto(two_type)
        b = ctmc_stationary_auto(two_type)
        assert np.allclose(a.mean_q, b.mean_q, atol=1e-10)
        assert abs(a.workload - b.workload) < 1e-10

    def test_truncation_flag_on_tight_cap(self, two_type):
        spec = CtmcSpec(config=two_type, allocation=snf_allocation_fn(two_type),
                        cap=(3, 3))
        sol = ctmc_stationary(spec)
        assert sol.truncation_limited
        assert sol.tail_mass_bound > 1e-8

    def test_infeasible_allocation_rejected(self, two_type):
        spec = CtmcSpec(config=two_type, allocation=lambda x: [x[0] + 1, x[1]],
                        cap=(5, 5))
        with pytest.raises(ValueError, match="infeasible"):
            ctmc_stationary(spec)

    def test_cap_validation(self, two_type):
        with pytest.raises(ValueError):
            CtmcSpec(config=two_type, allocation=snf_allocation_fn(two_type),
                     cap=(5,))

    @pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
    def test_empty_state_not_recurrent_rejected(self, two_type):
        # serving nothing lets jobs pile up at the caps and never drain
        spec = CtmcSpec(config=two_type, allocation=lambda x: [0, 0], cap=(5, 5))
        with pytest.raises(ValueError, match="empty state is not recurrent"):
            ctmc_stationary(spec)

    def test_whole_machine_truncated_geometric(self, whole_machine):
        # M/M/1 with rho = 0.5 reflected at K: pi_k = rho^k (1-rho)/(1-rho^(K+1))
        cap = 6
        sol = ctmc_stationary(CtmcSpec(config=whole_machine, cap=(cap,),
                                       allocation=snf_allocation_fn(whole_machine)))
        rho = 0.5
        k = np.arange(cap + 1)
        exact = rho**k * (1 - rho) / (1 - rho ** (cap + 1))
        np.testing.assert_allclose(sol.pi, exact, rtol=0, atol=1e-12)

    def test_box_chain_mean_q_pinned(self):
        # the three-type SNF box of the benchmark's oracle workload (9,261 states)
        box = SystemConfig(n=8, types=(JobTypeSpec(1.2, 1.0, 1),
                                       JobTypeSpec(0.6, 1.0, 2),
                                       JobTypeSpec(0.25, 1.0, 4)))
        sol = ctmc_stationary(CtmcSpec(config=box, allocation=snf_allocation_fn(box),
                                       cap=(20, 20, 20)))
        np.testing.assert_allclose(
            sol.mean_q,
            [6.668514842322892e-06, 0.010607757197807377, 0.16287858074771328],
            rtol=1e-9)
        assert sol.residual_inf < 1e-10
        assert not sol.truncation_limited

    @pytest.mark.parametrize("cap", [(200, 200, 200), (2**22 - 1, 2**21 - 1, 2**21 - 1)],
                             ids=["8M", "2^64-wraps-int64"])
    def test_state_count_guard_refuses_before_allocating(self, cap):
        cfg = SystemConfig(n=8, types=(JobTypeSpec(0.1, 1.0, 1),
                                       JobTypeSpec(0.1, 1.0, 2),
                                       JobTypeSpec(0.1, 1.0, 4)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="states"):
                spec = CtmcSpec(config=cfg, allocation=snf_allocation_fn(cfg), cap=cap)
                ctmc_stationary(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the 8M-state grid alone would be 192 MB

    def test_default_caps_scale_with_offered_load(self, set_one_64):
        caps = default_caps(set_one_64)
        offered = [t.arrival_rate / t.service_rate for t in set_one_64.types]
        assert all(c > o for c, o in zip(caps, offered))


def test_ctmc_vs_simulation_quick(two_type):
    sol = ctmc_stationary_auto(two_type)
    result = simulate(PolicyKind.SNF, two_type,
                      build_job_stream(0, 150_000, two_type))
    for i in range(2):
        est = stats.from_batch_values(result.batch_q[:, i])
        assert est.contains(sol.mean_q[i]), (i, est, sol.mean_q[i])
