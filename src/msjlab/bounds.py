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


def evaluate_bounds(
    config: SystemConfig,
    delta_prime: float | None = None,
    epsilon0: float = 0.9,
) -> BoundReport:
    """Evaluate every closed-form bound at ``config``.

    ``delta_prime`` is the work-conservation slack of the policy class the
    workload upper bound applies to; defaults to the maximal server need
    (FCFS, SNF, and both bounding systems are l_max-work-conserving).
    """
    p = derive_params(config)
    n = config.n
    logn = math.log(n)
    lam = p.lambda_total
    if delta_prime is None:
        delta_prime = float(p.l_max)
    idx = critical_indices(config)
    assumptions = check_assumptions(config, epsilon0)
    num = config.num_types
    absent: dict[str, str] = {}

    workload_lower = p.sigma2 / p.delta

    if delta_prime < p.delta:
        workload_upper = p.sigma2 / (p.delta - delta_prime)
    else:
        workload_upper = None
        absent["workload_upper"] = (
            f"delta_prime {delta_prime} >= slack capacity {p.delta}")

    fcfs_wait_lower = p.sigma2 / (n * (p.delta + p.l_max))
    if p.l_max < p.delta:
        fcfs_wait_upper = p.sigma2 / (n * (p.delta - p.l_max))
    else:
        fcfs_wait_upper = None
        absent["fcfs_wait_upper"] = (
            f"maximal need {p.l_max} >= slack capacity {p.delta}")

    heavy_range = range(idx.i_star, num + 1)  # 1-based
    universal_lower = max(
        p.mu_min * p.sub_sigma2[i - 1]
        / (lam * config.server_needs[i - 1] * p.sub_delta[i - 1])
        for i in heavy_range
    )

    snf_terms = []
    snf_upper = None
    for i in heavy_range:
        l_i = config.server_needs[i - 1]
        gap = p.sub_delta[i - 1] - l_i
        if gap <= 0:
            absent["snf_upper"] = (
                f"subsystem {i}: slack {p.sub_delta[i - 1]} <= need {l_i}")
            snf_terms = None
            break
        snf_terms.append(p.mu_max * p.sub_sigma2[i - 1] / (lam * l_i * gap))
    if snf_terms is not None:
        snf_upper = sum(snf_terms)

    snf_general: dict[int, dict] = {}
    general_heavy_sum = 0.0
    general_mid_sum = 0.0
    general_ok = True
    for i in range(1, num + 1):
        l_i = config.server_needs[i - 1]
        lam_i = config.arrival_rates[i - 1]
        d_i = p.sub_delta[i - 1]
        s2_i = p.sub_sigma2[i - 1]
        if i >= idx.i_star:
            gap = d_i - l_i
            if gap > 0:
                value = p.mu_max * s2_i / (lam_i * l_i * gap)
                snf_general[i] = {"regime": "heavy", "value": value}
                general_heavy_sum += p.mu_max * s2_i / (lam * l_i * gap)
            else:
                snf_general[i] = {"regime": "heavy",
                                  "absent": f"slack {d_i} <= need {l_i}"}
                general_ok = False
        elif i >= idx.i_star_1:
            value = math.sqrt(s2_i) * logn / (lam_i * l_i)
            snf_general[i] = {"regime": "intermediate", "value": value}
            general_mid_sum += math.sqrt(s2_i) * logn / (lam * l_i)
        else:
            snf_general[i] = {"regime": "light",
                              "exponent": d_i**2 / (n * l_i)}
    snf_general_mean = (general_heavy_sum + general_mid_sum) if general_ok else None
    if not general_ok:
        absent["snf_general_mean"] = "a heavy-regime term is absent"

    return BoundReport(
        workload_lower=workload_lower,
        workload_upper=workload_upper,
        fcfs_wait_lower=fcfs_wait_lower,
        fcfs_wait_upper=fcfs_wait_upper,
        universal_lower=universal_lower,
        snf_upper=snf_upper,
        snf_general=snf_general,
        snf_general_mean=snf_general_mean,
        qp_exponent=p.delta**2 / (n * p.l_max),
        delta_prime=delta_prime,
        assumptions=assumptions,
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
    scale = _cmax_scale(config, c)
    return math.exp(-big_k**2 / (2 * scale))


def mminf_tail_linear(config: SystemConfig, c, alpha: float, beta: float,
                      j: float) -> float:
    """Linear-threshold variant: P(Phi <= -alpha - beta*j) <= exp(-j),
    valid when alpha*beta covers the variance proxy."""
    if alpha < 0 or beta < 0 or j < 0:
        raise ValueError("alpha, beta, j must be nonnegative")
    scale = _cmax_scale(config, c)
    if alpha * beta < scale * (1 - 1e-12):  # tolerate round-off at the boundary
        raise ValueError(
            f"alpha*beta = {alpha * beta} below variance proxy {scale}")
    return math.exp(-j)


def mminf_negative_part(config: SystemConfig, c) -> float:
    """Bound on the expected negative part of the centered weighted count."""
    return math.sqrt(_cmax_scale(config, c))
