"""The step-function builder and lookup shared by the statistics, the
trajectory writer, the verify suites and the reference dominance check, the
bin-integral helper behind the batch statistics, and the peak memory of
``collect_stats`` and of a whole ``simulate``."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msjlab import PolicyKind, build_job_stream, engines, simulate
from msjlab.engines import (_bin_integrals, _step_integrals, count_steps,
                            step_at, step_function)


def test_equal_change_times_collapse():
    t, v = step_function(np.array([2.0, 1.0, 2.0, 2.0]),
                         np.array([1.0, 1.0, 1.0, -1.0]))
    assert t.tolist() == [1.0, 2.0]
    assert v.tolist() == [1.0, 2.0]  # after all three changes at t=2


def test_empty_input_gives_empty_arrays():
    t, v = step_function(np.array([]), np.array([]))
    assert len(t) == 0 and len(v) == 0
    assert step_at(t, v, np.array([0.0, 5.0])).tolist() == [0.0, 0.0]


def test_side_left_is_value_just_before():
    t, v = step_function(np.array([1.0, 3.0]), np.array([2.0, 5.0]))
    query = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    assert step_at(t, v, query).tolist() == [0.0, 2.0, 2.0, 7.0, 7.0]
    assert step_at(t, v, query, side="left").tolist() == [0.0, 0.0, 2.0, 2.0, 7.0]


def test_columns_share_one_sort():
    t, v = step_function(np.array([1.0, 0.5, 1.0]),
                         np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 3.0]]))
    assert t.tolist() == [0.5, 1.0]
    assert v.tolist() == [[0.0, 2.0], [1.0, 5.0]]


def test_count_steps_per_type():
    # jobs of types 0, 1, 0 in [0, 2), [1, 3), [1, 2)
    t, counts = count_steps(np.array([0.0, 1.0, 1.0]), np.array([2.0, 3.0, 2.0]),
                            np.array([0, 1, 0]), 2)
    assert t.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert counts.tolist() == [[1, 0], [2, 1], [0, 1], [0, 0]]
    assert counts.dtype == np.int64


def test_step_at_two_dimensional_shape():
    t, v = step_function(np.array([1.0, 2.0]),
                         np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -2.0]]))
    query = np.array([0.0, 1.5, 2.0, 9.0])
    out = step_at(t, v, query)
    assert out.shape == (4, 3)
    assert out.tolist() == [[0, 0, 0], [1, 0, 2], [1, 1, 0], [1, 1, 0]]


# Equal change times (grid points) are common; integer-valued deltas make
# every cumulative sum exact, so the order of rows with one time is free.
_change_time = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                         st.floats(0, 3).map(lambda x: x + 0.0))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_step_function_ignores_row_order_for_integer_deltas(data):
    num = data.draw(st.integers(0, 40))
    cols = data.draw(st.integers(1, 3))
    times = np.array(data.draw(st.lists(_change_time, min_size=num, max_size=num)))
    deltas = np.array(data.draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
        min_size=num, max_size=num)), dtype=np.float64).reshape(num, cols)
    perm = np.array(data.draw(st.permutations(range(num))), dtype=np.int64)
    t_a, v_a = step_function(times, deltas)
    t_b, v_b = step_function(times[perm], deltas[perm])
    assert t_a.tobytes() == t_b.tobytes()
    assert v_a.tobytes() == v_b.tobytes()


def _reference_bin_integrals(lo, hi, edges, values=None):
    """One full-length overlap pass per bin: the definition the helper
    must reproduce bit for bit."""
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        overlap = np.minimum(hi, b) - np.maximum(lo, a)
        np.clip(overlap, 0.0, None, out=overlap)
        out.append(overlap.sum() if values is None else np.dot(values, overlap))
    return np.array(out, dtype=np.float64)


def _assert_same_bits(lo, hi, edges, values=None):
    got = _bin_integrals(lo, hi, edges, values)
    want = _reference_bin_integrals(lo, hi, edges, values)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# grid points give ties and zero-length intervals; the range reaches
# before and after every window below
_time = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.5, 4.0, 10.0]),
                  st.floats(-3, 14).map(lambda x: x + 0.0))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bin_integrals_match_full_length_reference(data):
    num = data.draw(st.integers(0, 160))
    lo = np.array(data.draw(st.lists(_time, min_size=num, max_size=num)))
    lengths = data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0, 6)), min_size=num, max_size=num))
    hi = lo + np.array(lengths)
    if data.draw(st.booleans()):  # batch statistics keep lo sorted
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
    t0 = data.draw(st.floats(0, 4))
    t1 = t0 + data.draw(st.floats(0.5, 8))
    edges = np.linspace(t0, t1, data.draw(st.integers(1, 8)) + 1)
    _assert_same_bits(lo, hi, edges)
    values = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=num,
                                         max_size=num)))
    _assert_same_bits(lo, hi, edges, values)


def test_bin_integrals_edge_cases():
    edges = np.linspace(2.0, 4.0, 5)
    empty = np.array([])
    _assert_same_bits(empty, empty, edges)
    _assert_same_bits(empty, empty, edges, empty)
    assert _bin_integrals(empty, empty, edges).tolist() == [0.0] * 4
    # wholly before, wholly after, zero length inside, straddling the window
    lo = np.array([0.0, 5.0, 3.0, 1.0])
    hi = np.array([1.5, 6.0, 3.0, 4.5])
    _assert_same_bits(lo, hi, edges)
    _assert_same_bits(lo, hi, edges, np.array([1.0, 2.0, 3.0, 0.5]))
    # a reversed second interval lifts the suffix min of lo above the
    # running max of hi: bins [2.5, 3) and [3, 3.5) get last = 1 < first = 2
    lo = np.array([2.0, 3.75])
    hi = np.array([2.25, 2.25])
    assert _bin_integrals(lo, hi, edges).tolist() == [0.25, 0.0, 0.0, 0.0]
    _assert_same_bits(lo, hi, edges)
    _assert_same_bits(lo, hi, edges, np.array([2.0, -1.0]))


def test_bin_integrals_large_input():
    # long enough for blocked pairwise sums and a threaded BLAS dot
    rng = np.random.default_rng(0)
    lo = np.sort(rng.uniform(0, 1000, 30_000))
    hi = lo + rng.exponential(5.0, lo.size)
    edges = np.linspace(100.0, 1000.0, 21)
    _assert_same_bits(lo, hi, edges)
    _assert_same_bits(lo, hi, edges, rng.integers(0, 5, lo.size).astype(float))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_step_integrals_match_full_length_reference(data):
    # sorted change times with ties, as the merged sweep and the SNF log give
    num = data.draw(st.integers(1, 80))
    t = np.sort(np.array(data.draw(st.lists(_time, min_size=num, max_size=num))))
    values = np.array(data.draw(st.lists(st.integers(-3, 5), min_size=num,
                                         max_size=num)), dtype=np.float64)
    t0 = data.draw(st.floats(0, 4))
    t1 = t0 + data.draw(st.floats(0.5, 8))
    edges = np.linspace(t0, t1, data.draw(st.integers(1, 8)) + 1)
    ends = np.append(t[1:], max(edges[-1], t[-1]))
    got = _step_integrals(t, values, edges)
    assert got.tobytes() == _reference_bin_integrals(t, ends, edges, values).tobytes()


_LONG_LOG = np.sort(np.random.default_rng(0).uniform(0.0, 3.9, 30_000))


@pytest.mark.parametrize("t", [
    np.array([0.5, 1.5, 3.0, 6.0]),
    np.array([0.5, 1.5, 3.0, 4.0]),
    np.array([0.5, 1.5, 3.0]),
    np.array([1.25]),
    _LONG_LOG,
], ids=["after-end", "at-end", "before-end", "one-entry", "long"])
def test_open_last_interval_matches_explicit_end(t):
    """``hi = t[1:]``, one short, leaves the last interval open-ended; it
    gives the bytes of the explicit last end max(edges[-1], t[-1])."""
    edges = np.linspace(0.0, 4.0, 5)
    ends = np.append(t[1:], max(edges[-1], t[-1]))
    values = np.arange(len(t)) % 7 - 2.0
    for v in (None, values):
        for monotone in (False, True):
            got = _bin_integrals(t, t[1:], edges, v, monotone)
            want = _bin_integrals(t, ends, edges, v, monotone)
            assert got.tobytes() == want.tobytes()


def test_step_integrals_empty_log_is_zero():
    edges = np.linspace(2.0, 4.0, 5)
    out = _step_integrals(np.array([]), np.array([], dtype=np.int64), edges)
    assert out.dtype == np.float64 and out.tolist() == [0.0] * 4


def test_step_integrals_last_value_holds_to_window_end():
    edges = np.linspace(0.0, 4.0, 5)
    # 1 on [0.5, 1.5), 3 from 1.5 on; the last change is before the end
    t = np.array([0.5, 1.5])
    assert _step_integrals(t, np.array([1, 3]), edges).tolist() == [
        0.5, 2.0, 3.0, 3.0]
    # a last change past the window end: its value never enters a bin
    t = np.array([0.5, 1.5, 6.0])
    assert _step_integrals(t, np.array([True, False, True]), edges).tolist() == [
        0.5, 0.5, 0.0, 0.0]


def _peak_bytes_per_job(run, jobs):
    """Peak bytes per job that ``run()`` allocates above what is live before
    it, as numpy reports its buffers to ``tracemalloc``."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - live) / jobs
    finally:
        tracemalloc.stop()


# Measured 55.0 bytes per job for FCFS and SNF-NP and 51.6 for SNF, set in
# the epoch sweep's last slice: the sorted departure (and start) orders, the
# run's t_ep and bool queued parts and one slice's sort.  The qprob integral
# just below holds t_ep, its float64 integrand and the overlap buffer, 8
# bytes per epoch each (49.7 for SNF); it sets the peak at 200k jobs, where
# a slice weighs less per job.  Each bound is about 5% above its value.  A
# bool integrand copied to float64, or interval ends copied from t_ep, took
# 67.7 for all three; a sweep over the whole run at once took 134.3 (FCFS,
# SNF-NP) and 149.5 (SNF).
COLLECT_STATS_PEAK = {"fcfs": 58, "snf": 54, "snf-np": 58}


@pytest.mark.parametrize("policy", COLLECT_STATS_PEAK)
def test_collect_stats_peak_memory(set_one_64, policy, monkeypatch):
    """``simulate``'s one ``collect_stats`` call, 50k jobs at set one, n=64,
    allocates at most ``COLLECT_STATS_PEAK[policy]`` bytes per job above its
    live inputs."""
    jobs, peaks = 50_000, []
    stream = build_job_stream(0, jobs, set_one_64)
    collect_stats = engines.collect_stats

    def measured(**kwargs):
        out = []
        peaks.append(_peak_bytes_per_job(
            lambda: out.append(collect_stats(**kwargs)), jobs))
        return out[0]

    monkeypatch.setattr(engines, "collect_stats", measured)
    simulate(PolicyKind(policy), set_one_64, stream)
    assert len(peaks) == 1 and peaks[0] <= COLLECT_STATS_PEAK[policy]


# Measured FCFS 79.5, SNF 90.3, SNF-NP 79.5, Modified-FCFS 79.4 and
# infinite server 71.0 bytes per job: the result's waits and departures, the
# engine's start times (none for the infinite server, whose starts are the
# arrivals; SNF: its log, 8 bytes of time and 2 of int8 codes per entry,
# about 2.1 entries per job) and one ``collect_stats`` peak.  Each bound is
# about 5% above its value, so one more 8-byte-per-job array held through
# ``collect_stats`` fails it.  With an int64 SNF log and the qprob
# integral's float copy and interval ends, FCFS took 92.2 and SNF 136.3.
SIMULATE_PEAK = {"fcfs": 84, "snf": 95, "snf-np": 84, "mod-fcfs": 84, "inf": 75}


@pytest.mark.parametrize("policy", SIMULATE_PEAK)
def test_simulate_peak_memory(set_one_64, policy):
    """A whole ``simulate``, 50k jobs at set one, n=64, allocates at most
    ``SIMULATE_PEAK[policy]`` bytes per job above its live input stream."""
    stream = build_job_stream(0, 50_000, set_one_64)
    peak = _peak_bytes_per_job(
        lambda: simulate(PolicyKind(policy), set_one_64, stream), 50_000)
    assert peak <= SIMULATE_PEAK[policy]
