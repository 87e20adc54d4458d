import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msjlab import (ConfigError, JobTypeSpec, SystemConfig, check_assumptions,
                    critical_indices, derive_params, evaluate_bounds,
                    mminf_negative_part, mminf_tail)

from test_model import configs  # reuse the config generator


class TestEvaluateBoundsSetOne64:
    @pytest.fixture(autouse=True)
    def report(self, set_one_64):
        self.rep = evaluate_bounds(set_one_64)

    def test_workload_bracket(self):
        assert self.rep.workload_lower == pytest.approx(24.0)
        assert self.rep.workload_upper == pytest.approx(48.0)

    def test_fcfs_wait_bracket(self):
        assert self.rep.fcfs_wait_lower == pytest.approx(0.25)
        assert self.rep.fcfs_wait_upper == pytest.approx(0.75)

    def test_snf_upper_single_index(self):
        # critical index falls back to 3; single term (3/22)*384/64
        assert self.rep.indices.i_star == 3
        assert self.rep.snf_upper == pytest.approx(18 / 22)

    def test_universal_lower(self):
        # (1/lam) * mu_min * sigma2_3 / (l_3 * delta_3)
        assert self.rep.universal_lower == pytest.approx((3 / 22) * 0.25 * 3.0)

    def test_qp_exponent(self):
        assert self.rep.qp_exponent == pytest.approx(16**2 / (64 * 8))

    def test_snf_general_regimes(self):
        regimes = {i: v["regime"] for i, v in self.rep.snf_general.items()}
        assert regimes == {1: "light", 2: "intermediate", 3: "heavy"}
        assert self.rep.snf_general[3]["value"] == pytest.approx(3.0)
        assert self.rep.snf_general[1]["exponent"] == pytest.approx(48**2 / 64)


def test_degenerate_single_type_flagged(mm2):
    rep = evaluate_bounds(mm2)
    assert rep.universal_lower == pytest.approx(1.0)
    # out of regime: the maximal need equals the slack capacity
    assert not all(rep.assumptions.holds)
    assert rep.fcfs_wait_upper is None
    assert "fcfs_wait_upper" in rep.absent


def test_single_server_rejected():
    # the critical indices divide by log n, which is 0 at n = 1
    cfg = SystemConfig(n=1, types=(JobTypeSpec(0.5, 1.0, 1),))
    with pytest.raises(ConfigError, match="need n >= 2, got n=1"):
        evaluate_bounds(cfg)


def test_workload_upper_absent_when_slack_consumed(mm2):
    rep = evaluate_bounds(mm2)
    assert rep.workload_upper is None
    assert "delta_prime" in rep.absent["workload_upper"]


class TestMminfTail:
    def test_zero_threshold(self, set_one_64):
        c = (4.0, 2.0, 1.0)
        assert mminf_tail(set_one_64, c, 0.0) == 1.0

    def test_set_one_example(self, set_one_64):
        # c = 1/mu, c_max = 4: exp(-100^2 / (2*16*1*384))
        val = mminf_tail(set_one_64, (4.0, 2.0, 1.0), 100.0)
        assert val == pytest.approx(math.exp(-10_000 / 12_288), rel=1e-12)
        assert val == pytest.approx(0.4432, abs=1e-4)

    def test_negative_part(self, set_one_64):
        val = mminf_negative_part(set_one_64, (4.0, 2.0, 1.0))
        assert val == pytest.approx(math.sqrt(16 * 1 * 384), rel=1e-12)
        assert val == pytest.approx(78.38, abs=0.01)

    def test_input_validation(self, set_one_64):
        with pytest.raises(ValueError):
            mminf_tail(set_one_64, (-1.0, 0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            mminf_tail(set_one_64, (1.0, 1.0, 1.0), -1.0)
        with pytest.raises(ValueError):
            mminf_tail(set_one_64, (1.0, 1.0), 1.0)


def test_serialization_round_trip(set_one_64, mm2):
    # every absent field is written as {"absent": reason} and survives JSON
    for cfg in (set_one_64, mm2):
        rep = evaluate_bounds(cfg)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert "absent" not in doc
        for name, reason in rep.absent.items():
            assert getattr(rep, name) is None
            assert doc[name] == {"absent": reason}
        assert doc["workload_lower"] == rep.workload_lower
        assert doc["assumptions"]["holds"] == list(rep.assumptions.holds)
        assert doc["indices"]["i_star"] == rep.indices.i_star


def test_snf_upper_absent_reason_round_trips():
    # subsystem slack below its own need: delta_2 = 7.4 < l_2 = 8
    cfg = SystemConfig(n=10, types=(JobTypeSpec(1.0, 1.0, 1),
                                    JobTypeSpec(0.2, 1.0, 8)))
    rep = evaluate_bounds(cfg)
    assert rep.snf_upper is None
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["snf_upper"] == {"absent": rep.absent["snf_upper"]}
    assert doc["snf_upper"]["absent"].startswith("subsystem 2")


@given(configs())
@settings(max_examples=150, deadline=None)
def test_bracket_and_order_consistency(cfg):
    p = derive_params(cfg)
    rep = evaluate_bounds(cfg)
    # both upper bounds need l_max < delta: absent together, else bracketing
    absent = p.l_max >= p.delta
    assert (rep.workload_upper is None) == (rep.fcfs_wait_upper is None) == absent
    assert (("workload_upper" in rep.absent)
            == ("fcfs_wait_upper" in rep.absent) == absent)
    if not absent:
        assert rep.workload_lower < rep.workload_upper
        assert rep.fcfs_wait_lower < rep.fcfs_wait_upper
    if rep.snf_upper is not None:
        assert (rep.universal_lower
                <= rep.snf_upper * (p.mu_max / p.mu_min) * cfg.num_types + 1e-9)


@given(configs(), st.integers(2, 5))
@settings(max_examples=150, deadline=None)
def test_universal_lower_argmax_scale_invariant(cfg, factor):
    """Scaling n and every arrival rate by the same factor preserves the
    maximizing subsystem of the policy-independent lower bound (every term
    scales by exactly 1/factor, so the argmax cannot move beyond roundoff)."""
    def terms(config):
        p = derive_params(config)
        return [p.mu_min * p.sub_sigma2[i] /
                (p.lambda_total * config.server_needs[i] * p.sub_delta[i])
                for i in range(config.num_types)]

    scaled = SystemConfig(
        n=cfg.n * factor,
        types=tuple(JobTypeSpec(t.arrival_rate * factor, t.service_rate,
                                t.server_need) for t in cfg.types))
    base = terms(cfg)
    after = terms(scaled)
    argmax = max(range(len(base)), key=base.__getitem__)
    assert after[argmax] >= (1 - 1e-9) * max(after)


@given(configs())
@settings(max_examples=100, deadline=None)
def test_report_indices_match_model(cfg):
    rep = evaluate_bounds(cfg)
    assert rep.indices == critical_indices(cfg)
    assert rep.assumptions == check_assumptions(cfg)
