import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from msjlab import (CtmcSpec, JobTypeSpec, SystemConfig, ctmc_stationary,
                    ctmc_stationary_auto, erlang_c, snf_allocation_fn)
from msjlab import oracle
from msjlab.oracle import default_caps
from reference import mm1_whole_machine


def _solve(name, request):
    """The benchmark box at its fixed caps; a named config through ctmc_stationary_auto."""
    if name == "box_spec":
        return ctmc_stationary(request.getfixturevalue(name))
    return ctmc_stationary_auto(request.getfixturevalue(name))


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

    def test_no_servers_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            erlang_c(0, 1.0, 1.0)


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

    def test_deterministic_moments(self, request):
        # the benchmark requires byte-identical outputs from every unit
        for fixture in ("two_type", "box_spec"):
            a = _solve(fixture, request)
            b = _solve(fixture, request)
            assert np.array_equal(a.pi, b.pi), fixture
            assert np.array_equal(a.mean_q, b.mean_q), fixture
            assert a.workload == b.workload, fixture

    def test_one_spsolve_call_per_solve(self, box_spec, monkeypatch):
        # perfbench times oracle.spsolve.s through this one attribute
        calls = []
        solve = oracle.spla.spsolve

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(oracle.spla, "spsolve", counting)
        ctmc_stationary(box_spec)
        assert len(calls) == 1

    def test_solve_goes_through_the_bound_spla(self, box_spec, monkeypatch):
        # perfbench swaps the whole attribute for a proxy; the solve must
        # look oracle.spla up at call time, not keep the module it loaded
        real, calls = oracle.spla, []

        class Proxy:
            def __getattr__(self, name):
                return getattr(real, name)

            def spsolve(self, *args, **kwargs):
                calls.append(1)
                return real.spsolve(*args, **kwargs)

        monkeypatch.setattr(oracle, "spla", Proxy())
        sol = ctmc_stationary(box_spec)
        assert len(calls) == 1
        monkeypatch.undo()
        assert oracle.spla is real
        assert np.array_equal(ctmc_stationary(box_spec).pi, sol.pi)

    @pytest.mark.parametrize("fixture", ["box_spec", "two_type", "whole_machine"])
    def test_dissection_order_does_not_change_the_answer(self, fixture, request,
                                                         monkeypatch):
        ordered = _solve(fixture, request)
        monkeypatch.setattr(oracle, "_dissection_order",
                            lambda dims: np.arange(math.prod(dims)))
        natural = _solve(fixture, request)
        np.testing.assert_allclose(ordered.mean_q, natural.mean_q, rtol=1e-12)
        np.testing.assert_allclose(ordered.pi, natural.pi, rtol=0, atol=1e-14)

    def test_truncation_flag_on_tight_cap(self, two_type):
        spec = CtmcSpec(config=two_type, allocation=snf_allocation_fn(two_type),
                        cap=(3, 3))
        sol = ctmc_stationary(spec)
        assert sol.truncation_limited
        assert sol.tail_mass_bound > 1e-8

    def test_infeasible_allocation_rejected(self, two_type):
        spec = CtmcSpec(config=two_type, allocation=lambda x: x + (1, 0),
                        cap=(5, 5))
        with pytest.raises(ValueError, match="infeasible"):
            ctmc_stationary(spec)

    def test_cap_validation(self, two_type):
        with pytest.raises(ValueError):
            CtmcSpec(config=two_type, allocation=snf_allocation_fn(two_type),
                     cap=(5,))
        with pytest.raises(ValueError, match="caps must be >= 1"):
            CtmcSpec(config=two_type, allocation=snf_allocation_fn(two_type),
                     cap=(0, 5))

    def test_empty_state_not_recurrent_rejected(self, two_type):
        # serving nothing lets jobs pile up at the caps and never drain
        spec = CtmcSpec(config=two_type, allocation=lambda x: 0 * x, cap=(5, 5))
        with pytest.raises(ValueError, match="empty state is not recurrent"):
            ctmc_stationary(spec)

    @pytest.mark.parametrize("cap", [(30, 30), (60, 10)])
    def test_empty_state_not_recurrent_rejected_at_larger_caps(self, two_type, cap):
        # type 2 is never served: a rounded pivot, not an exact zero, would
        # let a numerical solve return the absorbing class without an error
        spec = CtmcSpec(config=two_type, allocation=lambda x: np.minimum(x, (6, 0)),
                        cap=cap)
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

    def test_box_chain_mean_q_pinned(self, box_spec):
        sol = ctmc_stationary(box_spec)
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

    @pytest.mark.parametrize("lam,caps,limited", [
        (0.95, [80, 120, 180, 270, 405], False),
        (0.999, [81, 122, 183, 275, 413, 620], True)], ids=["grows", "runs-out"])
    def test_auto_grows_caps_until_certified(self, monkeypatch, lam, caps, limited):
        # whole-machine M/M/1: heavy load puts mass on the default boundary
        cfg = SystemConfig(n=4, types=(JobTypeSpec(lam, 1.0, 4),))
        tried = []
        solve = oracle.ctmc_stationary

        def recording(spec):
            tried.append(spec.cap[0])
            return solve(spec)

        monkeypatch.setattr(oracle, "ctmc_stationary", recording)
        sol = ctmc_stationary_auto(cfg)
        assert tried == caps
        assert sol.cap == (caps[-1],)
        assert sol.truncation_limited == limited
        if not limited:
            assert sol.mean_q[0] == pytest.approx(
                mm1_whole_machine(lam, 1.0)["mean_queue"], rel=1e-6)

    def test_default_caps_scale_with_offered_load(self, set_one_64):
        caps = default_caps(set_one_64)
        offered = [t.arrival_rate / t.service_rate for t in set_one_64.types]
        assert all(c > o for c, o in zip(caps, offered))


DISSECTION_DIMS = [(2,), (7,), (40,), (2, 2), (3, 4), (111, 50), (2, 2, 2),
                   (21, 21, 21), (3, 5, 4, 2), (2, 9, 2, 3)]


@pytest.mark.parametrize("dims", DISSECTION_DIMS, ids=str)
def test_dissection_order_is_a_permutation(dims):
    order = oracle._dissection_order(dims)
    assert order.dtype.kind == "i"
    np.testing.assert_array_equal(np.sort(order), np.arange(math.prod(dims)))


@pytest.mark.parametrize("dims", [d for d in DISSECTION_DIMS if math.prod(d) > 8],
                         ids=str)
def test_dissection_order_puts_the_top_separator_last(dims):
    # the plane across the longest axis splits the box; both halves come first
    order = oracle._dissection_order(dims)
    axis = int(np.argmax(dims))
    mid = dims[axis] // 2
    coord = np.indices(dims)[axis].ravel()[order]
    lower = np.flatnonzero(coord < mid)
    plane = np.flatnonzero(coord == mid)
    upper = np.flatnonzero(coord > mid)
    assert lower.max() < upper.min()
    assert upper.max() < plane.min()


def test_spla_readable_before_any_solve():
    # the sparse stack loads on first use, yet oracle.spla is there to read
    # (and to swap) in a process that has not solved anything
    code = """if True:
        import sys
        from msjlab import oracle
        assert "scipy.sparse" not in sys.modules
        assert oracle.spla is sys.modules["scipy.sparse.linalg"]
        assert callable(oracle.spla.spsolve)
        try:
            oracle.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("unknown names must raise AttributeError")
    """
    env = {**os.environ, "PYTHONPATH": str(Path(oracle.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
