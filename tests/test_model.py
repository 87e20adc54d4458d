import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msjlab import (ConfigError, JobTypeSpec, ParamSet, SystemConfig,
                    check_assumptions, critical_indices, derive_params,
                    make_param_set)


def test_derive_params_set_one_64(set_one_64):
    p = derive_params(set_one_64)
    assert p.delta == pytest.approx(16.0, abs=1e-12)
    assert p.sigma2 == pytest.approx(384.0, abs=1e-9)
    assert p.rho == pytest.approx((0.25, 0.25, 0.25))
    assert p.lambda_total == pytest.approx(22 / 3)
    assert p.sub_delta == pytest.approx((48.0, 32.0, 16.0))
    assert p.sub_sigma2 == pytest.approx((64.0, 256.0, 384.0))
    assert p.l_max == 8
    assert (p.mu_min, p.mu_max) == (0.25, 1.0)


def test_mm2_half_load(mm2):
    p = derive_params(mm2)
    assert p.delta == pytest.approx(1.0)
    assert p.sigma2 == pytest.approx(1.0)
    assert p.rho == pytest.approx((0.5,))


def test_zero_arrival_rate_rejected():
    with pytest.raises(ConfigError):
        JobTypeSpec(arrival_rate=0.0, service_rate=1.0, server_need=1)


def test_vanishing_load_limit():
    cfg = SystemConfig(n=2, types=(JobTypeSpec(1e-12, 1.0, 1),))
    assert derive_params(cfg).delta == pytest.approx(2.0)


def test_overloaded_rejected():
    cfg = SystemConfig(n=2, types=(JobTypeSpec(3.0, 1.0, 1),))
    with pytest.raises(ConfigError, match="overloaded"):
        derive_params(cfg)


def test_unsorted_needs_rejected():
    with pytest.raises(ConfigError, match="nondecreasing"):
        SystemConfig(n=8, types=(JobTypeSpec(1, 1, 4), JobTypeSpec(1, 1, 2)))


def test_need_exceeding_n_rejected():
    with pytest.raises(ConfigError):
        SystemConfig(n=4, types=(JobTypeSpec(0.1, 1, 5),))


class TestMakeParamSet:
    def test_set_one_64_rates(self):
        cfg = make_param_set(ParamSet.ONE, 64)
        assert cfg.arrival_rates == pytest.approx((4.0, 4 / 3, 2.0))
        assert cfg.server_needs == (1, 6, 8)
        assert cfg.service_rates == (0.25, 0.5, 1.0)

    def test_set_one_1024_shape(self):
        cfg = make_param_set(ParamSet.ONE, 1024)
        assert cfg.server_needs == (1, 10, 32)
        assert derive_params(cfg).delta == pytest.approx(64.0, rel=1e-12)

    def test_set_two_1024_max_need_load(self):
        cfg = make_param_set(ParamSet.TWO, 1024)
        # rho_3 = 1024^-0.3 = 2^-3 = 0.125
        assert derive_params(cfg).rho[-1] == pytest.approx(0.125, rel=1e-12)

    @pytest.mark.parametrize("n", [2**k for k in range(6, 15)])
    def test_slack_target_reproduced(self, n):
        for which in (ParamSet.ONE, ParamSet.TWO):
            delta = derive_params(make_param_set(which, n)).delta
            assert delta == pytest.approx(2 * math.isqrt(n), rel=1e-9)

    def test_small_n_rejected(self):
        with pytest.raises(ConfigError):
            make_param_set(ParamSet.ONE, 32)


class TestAssumptions:
    def test_set_one_64(self, set_one_64):
        rep = check_assumptions(set_one_64, epsilon0=0.9)
        assert rep.a2_ratio == pytest.approx(0.5)
        assert rep.holds[1] is True

    def test_max_need_equals_slack_fails(self, mm2):
        rep = check_assumptions(mm2, epsilon0=0.5)
        assert rep.a2_ratio == pytest.approx(1.0)
        assert rep.holds[1] is False

    def test_set_one_4096_heavy_traffic_ratio(self):
        # delta*log(n)/sqrt(sigma2) at n=4096; independent recomputation
        cfg = make_param_set(ParamSet.ONE, 4096)
        p = derive_params(cfg)
        expected = 128 * math.log(4096) / math.sqrt(p.sigma2)
        rep = check_assumptions(cfg)
        assert rep.a1_ratio == pytest.approx(expected, rel=1e-12)
        assert rep.a1_ratio == pytest.approx(3.0521, abs=2e-4)

    def test_threshold_application(self, set_one_64):
        rep = check_assumptions(set_one_64)
        assert rep.holds[0] == (rep.a1_ratio <= 1.0)
        assert rep.holds[2] == (rep.a3_ratio >= 1.0)


class TestCriticalIndices:
    def test_set_one_64_falls_back(self, set_one_64):
        idx = critical_indices(set_one_64)
        assert idx.i_star == 3
        assert idx.i_star_fallback is True
        assert idx.i_star_1 == 2
        assert idx.i_star_1_fallback is False

    def test_single_type_heavy(self):
        # delta small enough that the single subsystem qualifies:
        # delta = 1 <= sqrt(sigma2)/log n needs sigma2 >= log(n)^2
        cfg = SystemConfig(n=100, types=(JobTypeSpec(9.9, 1.0, 10),))
        p = derive_params(cfg)
        assert p.delta == pytest.approx(1.0)
        assert math.sqrt(p.sigma2) / math.log(100) > 1.0
        idx = critical_indices(cfg)
        assert idx.i_star == 1
        assert idx.i_star_fallback is False


# hypothesis generators: moderate rates and needs; n large enough that the
# index-ordering argument applies (service rates bounded away from zero)
@st.composite
def configs(draw):
    n = draw(st.integers(min_value=64, max_value=2048))
    num_types = draw(st.integers(min_value=1, max_value=4))
    needs = sorted(draw(st.lists(st.integers(1, max(1, n // 4)),
                                 min_size=num_types, max_size=num_types)))
    mus = draw(st.lists(st.floats(0.1, 10.0), min_size=num_types,
                        max_size=num_types))
    shares = draw(st.lists(st.floats(0.05, 1.0), min_size=num_types,
                           max_size=num_types))
    total_load = draw(st.floats(0.1, 0.95))
    budget = total_load * n
    scale = budget / sum(shares)
    types = tuple(
        JobTypeSpec(arrival_rate=s * scale * mu / l, service_rate=mu,
                    server_need=l)
        for s, mu, l in zip(shares, mus, needs))
    return SystemConfig(n=n, types=types)


@given(configs())
@settings(max_examples=200, deadline=None)
def test_subsystem_monotonicity(cfg):
    p = derive_params(cfg)
    assert all(a > b for a, b in zip(p.sub_delta, p.sub_delta[1:]))
    assert all(a < b for a, b in zip(p.sub_sigma2, p.sub_sigma2[1:]))
    assert p.sub_delta[-1] == pytest.approx(p.delta)
    assert p.sub_sigma2[-1] == pytest.approx(p.sigma2)
    assert sum(p.rho) == pytest.approx((cfg.n - p.delta) / cfg.n)


@given(configs())
@settings(max_examples=200, deadline=None)
def test_index_ordering(cfg):
    idx = critical_indices(cfg)
    assert 1 <= idx.i_star_1 <= idx.i_star <= cfg.num_types


def test_file_dict_round_trip(set_one_64):
    doc = set_one_64.to_file_dict()
    assert set(doc) == {"n", "types"}
    assert set(doc["types"][0]) == {"lambda", "mu", "l"}
    assert SystemConfig.from_file_dict(doc) == set_one_64


@pytest.mark.parametrize("doc,match", [
    ({"types": []}, "missing config field"),
    ({"n": 8, "types": [{"lambda": 0.1, "mu": 1.0, "l": "x"}]}, "malformed config"),
    ({"n": "eight", "types": [{"lambda": 0.1, "mu": 1.0, "l": 1}]}, "malformed config"),
    ({"n": 8, "types": [{"lambda": None, "mu": 1.0, "l": 1}]}, "malformed config"),
    ([1, 2], "malformed config"),
    ({"n": 8, "types": [{"lambda": 0.1, "mu": 1.0, "l": 9}]}, "exceeds n=8"),
])
def test_config_file_dict_errors_are_config_errors(doc, match):
    with pytest.raises(ConfigError, match=match):
        SystemConfig.from_file_dict(doc)
