"""Steady-state estimation: batch means with Student-t confidence intervals,
and the estimator assembly for waiting times and queueing probability.

At the default batch count the Student-t quantile is a literal, so the
estimates of ``run``, ``sweep`` and the drift suite load no scipy module.
Any other count loads ``scipy.special`` at its first confidence interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemConfig
from .sim import BATCHES, SimResult

CONFIDENCE = 0.95
# scipy.special.stdtrit(BATCHES - 1, 0.5 + CONFIDENCE / 2) on scipy 1.17.1,
# copied rather than computed: stdtrit is not correctly rounded, and every
# pinned half-width carries its bits
T_QUANTILE_DEFAULT = 2.0930240544083087


@dataclass(frozen=True)
class BatchMeansEstimate:
    """Point estimate with a batch-means confidence interval.

    ``mean`` is the grand mean over all data; ``per_batch`` holds the means
    of the contiguous batches the data was split into, and the half-width is
    the Student-t CI computed from their sample variance.  With fewer than
    two batches the half-width is infinite (no variance information), as for
    a waiting-time estimate over fewer jobs than batches (``batches=1``).
    When every observation is 0 the estimate is 0.0 +/- 0.0, and
    ``contains()`` rejects any nonzero reference, however small.
    """

    mean: float
    half_width: float
    batches: int
    per_batch: tuple[float, ...]

    def contains(self, value: float) -> bool:
        return abs(value - self.mean) <= self.half_width


def _estimate(per_batch: np.ndarray, mean=None) -> BatchMeansEstimate:
    """Every estimate is built here; ``mean`` defaults to the batches'."""
    b = len(per_batch)
    half_width = float("inf")
    if b >= 2:
        if b == BATCHES:
            q = T_QUANTILE_DEFAULT
        else:
            from scipy.special import stdtrit
            q = stdtrit(b - 1, 0.5 + CONFIDENCE / 2)
        half_width = float(q * per_batch.std(ddof=1) / np.sqrt(b))
    mean = per_batch.mean() if mean is None else mean
    return BatchMeansEstimate(float(mean), half_width, b,
                              tuple(float(v) for v in per_batch))


def batch_means(samples, batches: int) -> BatchMeansEstimate:
    """Estimate from an ordered sample sequence split into contiguous batches.

    Batch sizes differ by at most one when the count is not divisible.
    Raises if there are fewer samples than batches or fewer than 2 batches.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if batches < 2:
        raise ValueError(f"need at least 2 batches, got {batches}")
    if len(samples) < batches:
        raise ValueError(
            f"need at least {batches} samples for {batches} batches, got {len(samples)}")
    per_batch = np.array([chunk.mean() for chunk in np.array_split(samples, batches)])
    return _estimate(per_batch, samples.mean())


def from_batch_values(per_batch) -> BatchMeansEstimate:
    """Estimate from precomputed equal-span batch means (time averages)."""
    return _estimate(np.asarray(per_batch, dtype=np.float64))


def _wait_estimate(waits: np.ndarray, batches: int) -> BatchMeansEstimate:
    if len(waits) < max(batches, 2):  # tiny sample: point estimate, no CI
        return _estimate(waits.mean(keepdims=True))
    return batch_means(waits, batches)


def mean_waiting_time(result: SimResult, config: SystemConfig) -> dict:
    """Overall and per-type mean waiting time estimates over post-warm-up jobs.

    Waits are split into as many batches as the run's time-average batches.
    Types with no post-warm-up arrivals are absent from ``per_type`` rather
    than reported as zero.  The overall mean is the arrival-weighted average
    of the per-type means (same data, one grand mean) up to rounding, since
    the two sum the waits in a different order.
    """
    batches = result.batches
    t0, _ = result.window
    mask = result.arrivals >= t0
    waits = result.waits[mask]
    types = result.types[mask]
    if len(waits) == 0:
        raise ValueError("no jobs arrive after the warm-up window")
    per_type = {}
    for i in range(len(config.types)):
        w_i = waits[types == i]
        if len(w_i):
            per_type[i] = _wait_estimate(w_i, batches)
    return {"overall": _wait_estimate(waits, batches), "per_type": per_type}


def queueing_probability(result: SimResult) -> BatchMeansEstimate:
    """Time-average of the saturation indicator 1{sum_i l_i X_i >= n} (the
    total server need of the jobs in the system reaches n), with its CI.

    Not the share of jobs that wait: an arrival whose need does not fit
    waits while the indicator is off, and under SNF and SNF-NP one whose
    need fits starts at once while it is on.
    """
    return from_batch_values(result.batch_qprob)


def workload(result: SimResult) -> BatchMeansEstimate:
    """Time-averaged queued work (servers x expected remaining time)."""
    return from_batch_values(result.batch_workload)
