import hashlib
import math
from itertools import islice

import numpy as np
import pytest

from msjlab import build_job_stream
from msjlab.stream import resample_draws


def test_bit_identical_reproduction(set_one_64):
    a = build_job_stream(123, 5000, set_one_64)
    b = build_job_stream(123, 5000, set_one_64)
    assert np.array_equal(a.arrival_times, b.arrival_times)
    assert np.array_equal(a.unit_service, b.unit_service)
    assert np.array_equal(a.type_idx, b.type_idx)


def test_different_seeds_differ(set_one_64):
    a = build_job_stream(1, 1000, set_one_64)
    b = build_job_stream(2, 1000, set_one_64)
    assert not np.array_equal(a.arrival_times, b.arrival_times)


def test_basic_invariants(set_one_64):
    s = build_job_stream(7, 20000, set_one_64)
    assert np.all(np.diff(s.arrival_times) > 0)
    assert np.all(s.unit_service > 0)
    assert s.type_idx.min() >= 0 and s.type_idx.max() < 3
    assert s.horizon == 20000


def test_interarrival_mean_clt_band(set_one_64):
    # sample mean of Exp(lam) within 3 sigma of 1/lam
    num = 1_000_000
    s = build_job_stream(42, num, set_one_64)
    lam = sum(set_one_64.arrival_rates)
    gaps = np.diff(np.concatenate([[0.0], s.arrival_times]))
    band = 3 / (lam * math.sqrt(num))
    assert abs(gaps.mean() - 1 / lam) < band


def test_type_frequencies_clt_band(set_one_64):
    num = 1_000_000
    s = build_job_stream(42, num, set_one_64)
    lam = sum(set_one_64.arrival_rates)
    for i, lam_i in enumerate(set_one_64.arrival_rates):
        p = lam_i / lam
        freq = float((s.type_idx == i).mean())
        band = 3 * math.sqrt(p * (1 - p) / num)
        assert abs(freq - p) < band


def test_num_jobs_validation(set_one_64):
    with pytest.raises(ValueError):
        build_job_stream(0, 0, set_one_64)


def test_resample_source_deterministic():
    draws_a = list(islice(resample_draws(5), 50_000))
    draws_b = list(islice(resample_draws(5), 50_000))
    assert draws_a == draws_b
    assert all(v > 0 for v in draws_a)
    # Exp(1) sample mean sanity
    assert abs(np.mean(draws_a) - 1.0) < 3 / math.sqrt(50_000)


def test_resample_source_plain_floats_pinned():
    # plain Python floats, and the role-3 sequence across block refills
    # (50k draws span four blocks) is pinned bit for bit
    draws = list(islice(resample_draws(5), 50_000))
    assert all(type(v) is float for v in draws)
    assert draws[:3] == [1.3926051467279927, 0.5301961347298203,
                         1.2771263403560384]
    assert hashlib.sha256(np.array(draws).tobytes()).hexdigest() == (
        "5bc9d246d1ccb746ebf44ec8d9e679f01d6045e5838c9595207c354e33f1cd36")


def test_roles_are_independent_streams(set_one_64):
    # arrival and service draws from the same seed must not be correlated copies
    s = build_job_stream(9, 10000, set_one_64)
    lam = sum(set_one_64.arrival_rates)
    gaps = np.diff(np.concatenate([[0.0], s.arrival_times])) * lam
    assert not np.allclose(gaps, s.unit_service)
