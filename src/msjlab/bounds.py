"""Closed-form waiting-time and workload bounds evaluated at a concrete
configuration.

Every bound is the leading term of an asymptotic statement; the report
carries the regime-assumption proxies and critical indices so consumers know
when a comparison against simulation is meaningful.  Entries whose algebraic
preconditions fail (for example a subsystem with slack below its maximal
need) are reported absent with a reason instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import (AssumptionReport, CriticalIndices, SystemConfig,
                    check_assumptions, critical_indices, derive_params)


@dataclass(frozen=True)
class BoundReport:
    """Point values of all closed-form bounds at one configuration.

    Fields are None when their precondition fails; ``absent`` maps each such
    field to the reason.  ``snf_general`` holds one entry per 1-based type
    index with a regime label and either a finite bound value or, for the
    super-light regime, only a decay exponent.
    """

    workload_lower: float | None
    workload_upper: float | None
    fcfs_wait_lower: float | None
    fcfs_wait_upper: float | None
    universal_lower: float | None
    snf_upper: float | None
    snf_general: dict
    snf_general_mean: float | None
    qp_exponent: float
    delta_prime: float
    assumptions: AssumptionReport
    indices: CriticalIndices
    absent: dict

    def to_dict(self) -> dict:
        """JSON-ready form; each None field becomes ``{"absent": reason}``."""
        doc = asdict(self)
        absent = doc.pop("absent")
        return {name: {"absent": absent.get(name, "precondition failed")}
                if value is None else value for name, value in doc.items()}


def evaluate_bounds(config: SystemConfig) -> BoundReport:
    """Evaluate every closed-form bound at ``config``.

    The workload upper bound sigma2/(delta - delta') holds for
    delta'-work-conserving policies; it is evaluated at delta' = l_max,
    which FCFS, SNF, SNF-NP and both bounding systems satisfy.  So it and
    the FCFS waiting-time upper bound share one precondition, l_max < delta.

    One pass over the subsystem sequence (delta_i, sigma2_i): type i is
    heavy if i >= i*, intermediate if i >= i*_1, light otherwise.  A heavy
    type adds its ``universal_lower`` candidate, its ``snf_general`` entry
    and its term of ``snf_upper``; an intermediate type adds its
    ``snf_general`` entry and its term of the intermediate sum, so
    ``snf_general_mean = snf_upper + intermediate terms``.  Both are absent
    when some heavy subsystem's slack is at most its need.
    """
    p = derive_params(config)
    n = config.n
    lam = p.lambda_total
    delta_prime = float(p.l_max)
    idx = critical_indices(config)
    absent: dict[str, str] = {}

    if p.l_max < p.delta:
        workload_upper = p.sigma2 / (p.delta - delta_prime)
        fcfs_wait_upper = p.sigma2 / (n * (p.delta - p.l_max))
    else:
        workload_upper = fcfs_wait_upper = None
        absent["workload_upper"] = (
            f"delta_prime {delta_prime} >= slack capacity {p.delta}")
        absent["fcfs_wait_upper"] = (
            f"maximal need {p.l_max} >= slack capacity {p.delta}")

    universal_candidates = []
    snf_general: dict[int, dict] = {}
    heavy_sum = 0.0
    mid_sum = 0.0
    for i, (lam_i, l_i, d_i, s2_i) in enumerate(zip(
            config.arrival_rates, config.server_needs, p.sub_delta,
            p.sub_sigma2), start=1):
        # entry at the type's own rate; share of the all-jobs mean at the total
        if i >= idx.i_star:
            universal_candidates.append(p.mu_min * s2_i / (lam * l_i * d_i))
            gap = d_i - l_i
            if gap <= 0:
                reason = f"slack {d_i} <= need {l_i}"
                snf_general[i] = {"regime": "heavy", "absent": reason}
                absent.setdefault("snf_upper", f"subsystem {i}: {reason}")
                continue
            value, share = (p.mu_max * s2_i / (rate * l_i * gap)
                            for rate in (lam_i, lam))
            snf_general[i] = {"regime": "heavy", "value": value}
            heavy_sum += share
        elif i >= idx.i_star_1:
            value, share = (math.sqrt(s2_i) * math.log(n) / (rate * l_i)
                            for rate in (lam_i, lam))
            snf_general[i] = {"regime": "intermediate", "value": value}
            mid_sum += share
        else:
            snf_general[i] = {"regime": "light", "exponent": d_i**2 / (n * l_i)}
    heavy_ok = "snf_upper" not in absent
    if not heavy_ok:
        absent["snf_general_mean"] = "a heavy-regime term is absent"

    return BoundReport(
        workload_lower=p.sigma2 / p.delta,
        workload_upper=workload_upper,
        fcfs_wait_lower=p.sigma2 / (n * (p.delta + p.l_max)),
        fcfs_wait_upper=fcfs_wait_upper,
        universal_lower=max(universal_candidates),
        snf_upper=heavy_sum if heavy_ok else None,
        snf_general=snf_general,
        snf_general_mean=heavy_sum + mid_sum if heavy_ok else None,
        qp_exponent=p.delta**2 / (n * p.l_max),
        delta_prime=delta_prime,
        assumptions=check_assumptions(config),
        indices=idx,
        absent=absent,
    )


def _cmax_scale(config: SystemConfig, c) -> float:
    c = np.asarray(c, dtype=np.float64)
    if len(c) != config.num_types:
        raise ValueError("coefficient vector length mismatch")
    if np.any(c < 0):
        raise ValueError("coefficients must be nonnegative")
    p = derive_params(config)
    return float(c.max() ** 2 * p.mu_max * p.sigma2)


def mminf_tail(config: SystemConfig, c, big_k: float) -> float:
    """Gaussian-style left-tail bound for the centered weighted job count.

    Bounds P(sum_i c_i l_i (X_i - lambda_i/mu_i) <= -K) for the system in
    steady state via its infinite-server lower coupling.
    """
    if big_k < 0:
        raise ValueError("tail threshold must be nonnegative")
    return math.exp(-big_k**2 / (2 * _cmax_scale(config, c)))


def mminf_negative_part(config: SystemConfig, c) -> float:
    """Bound on the expected negative part of the centered weighted count."""
    return math.sqrt(_cmax_scale(config, c))
