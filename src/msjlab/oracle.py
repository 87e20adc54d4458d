"""Exact desk-scale references: Erlang-C, whole-machine M/M/1 closed forms,
and a truncated CTMC stationary solver for count-determined policies.

The CTMC solver covers any policy whose allocation is a deterministic
function of the per-type job counts (SNF is; FCFS is not, its state is the
arrival-ordered job list).  States live in the box prod_i {0..cap_i} with
reflecting truncation; moments are certified only when the probability mass
on the truncation boundary is negligible.  One sparse direct solve of the
balance equations with the empty state's weight pinned to 1 gives pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .model import SystemConfig, derive_params
from .policies import snf_allocation

_MAX_STATES = 4_000_000
TAIL_TOL = 1e-8
_CAP_GROWTHS = 6  # truncation boxes ctmc_stationary_auto tries


def erlang_c(n: int, lam: float, mu: float) -> dict:
    """M/M/n waiting probability and mean waiting time.

    Uses the numerically stable blocking-probability recursion.  Requires
    lam < n*mu.
    """
    if lam <= 0 or mu <= 0 or n < 1:
        raise ValueError("need lam > 0, mu > 0, n >= 1")
    if lam >= n * mu:
        raise ValueError(f"unstable: lam={lam} >= n*mu={n * mu}")
    a = lam / mu
    b = 1.0
    for k in range(1, n + 1):
        b = a * b / (k + a * b)
    rho = a / n
    p_wait = b / (1 - rho * (1 - b))
    return {"p_wait": p_wait, "mean_wait": p_wait / (n * mu - lam)}


def mm1_whole_machine(lam: float, mu: float) -> dict:
    """Closed forms when every job takes the whole machine (M/M/1).

    Returns waiting probability rho, mean wait rho/(mu - lam), and mean
    queue length rho^2/(1 - rho).
    """
    if lam <= 0 or mu <= 0 or lam >= mu:
        raise ValueError("need 0 < lam < mu")
    rho = lam / mu
    return {
        "p_wait": rho,
        "mean_wait": lam / (mu * (mu - lam)),
        "mean_queue": rho**2 / (1 - rho),
    }


AllocationFn = Callable[[Sequence[int]], Sequence[int]]


def snf_allocation_fn(config: SystemConfig) -> AllocationFn:
    """Count-determined allocation of the preemptive smallest-need-first policy."""
    n, needs = config.n, config.server_needs
    return lambda x: snf_allocation(x, n, needs)


@dataclass(frozen=True)
class CtmcSpec:
    """Truncated count-vector chain: config, allocation x -> z, per-type caps."""

    config: SystemConfig
    allocation: AllocationFn
    cap: tuple[int, ...]

    def __post_init__(self):
        if len(self.cap) != self.config.num_types:
            raise ValueError("cap length must match the number of types")
        if any(c < 1 for c in self.cap):
            raise ValueError("caps must be >= 1")
        num_states = math.prod(c + 1 for c in self.cap)
        if num_states > _MAX_STATES:
            raise ValueError(f"truncated box has {num_states} states (> {_MAX_STATES})")


@dataclass(frozen=True)
class StationarySolution:
    """Stationary distribution on the truncated box plus derived moments.

    ``tail_mass_bound`` is the probability of touching the truncation
    boundary; ``truncation_limited`` is set when it exceeds the certification
    tolerance and moments should not be trusted.
    """

    pi: np.ndarray
    cap: tuple[int, ...]
    residual_inf: float
    tail_mass_bound: float
    truncation_limited: bool
    mean_x: np.ndarray
    mean_z: np.ndarray
    mean_q: np.ndarray
    workload: float
    normalized_work: float
    qprob: float
    mean_wait: float


def ctmc_stationary(spec: CtmcSpec) -> StationarySolution:
    """Solve the stationary distribution of the truncated count chain.

    Transitions: x -> x+e_i at the type arrival rate (dropped on the
    boundary), x -> x-e_i at mu_i * z_i with z = allocation(x).  The empty
    state's weight is pinned to 1, the other S-1 balance equations are
    solved directly and pi is normalised (Stewart, Numerical Solution of
    Markov Chains, 1994, sec. 2.3).  This requires the empty state to be
    recurrent under the allocation (every state can drain to empty); when
    the solve finds the reduced system singular, ValueError is raised.  The
    residual is the infinity norm of pi Q.
    """
    config = spec.config
    num_types = config.num_types
    dims = tuple(c + 1 for c in spec.cap)
    num_states = math.prod(dims)

    grid = np.indices(dims).reshape(num_types, num_states).T  # (S, I)
    z = np.empty_like(grid)
    for s in range(num_states):
        z[s] = spec.allocation(grid[s])
    needs = np.asarray(config.server_needs)
    if np.any(z < 0) or np.any(z > grid) or np.any(z @ needs > config.n):
        raise ValueError("allocation infeasible somewhere in the truncated box")

    lams = np.asarray(config.arrival_rates)
    mus = np.asarray(config.service_rates)
    strides = np.array([int(np.prod(dims[i + 1:])) for i in range(num_types)])
    state_ids = np.arange(num_states)

    rows, cols, vals = [], [], []
    for i in range(num_types):
        up_ok = grid[:, i] < spec.cap[i]
        src = state_ids[up_ok]
        rows.append(src)
        cols.append(src + strides[i])
        vals.append(np.full(len(src), lams[i]))
        dep_rate = mus[i] * z[:, i]
        down_ok = dep_rate > 0
        src = state_ids[down_ok]
        rows.append(src)
        cols.append(src - strides[i])
        vals.append(dep_rate[down_ok])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    q_offdiag = sp.coo_matrix((vals, (rows, cols)), shape=(num_states, num_states))
    diag = -np.asarray(q_offdiag.sum(axis=1)).ravel()
    q_mat = (q_offdiag + sp.diags(diag)).tocsc()

    # pi Q = 0 with pi[0] = 1 at the empty state: no dense normalisation row
    a_mat = q_mat.T.tocsc()
    rest = spla.spsolve(a_mat[1:, 1:], -a_mat[1:, 0].toarray().ravel())
    if not np.all(np.isfinite(rest)):
        raise ValueError("reduced balance system is singular: the empty state is not "
                         "recurrent under this allocation (the chain must drain to empty)")
    pi = np.maximum(np.concatenate(([1.0], rest)), 0.0)
    pi /= pi.sum()
    residual = float(np.abs(pi @ q_mat).max())

    boundary = np.zeros(num_states, dtype=bool)
    for i in range(num_types):
        boundary |= grid[:, i] == spec.cap[i]
    tail_mass = float(pi[boundary].sum())

    mean_x = pi @ grid
    mean_z = pi @ z
    mean_q = mean_x - mean_z
    lam_mu = needs / mus
    offered = lams / mus
    qprob = float(pi[(grid @ needs) >= config.n].sum())
    return StationarySolution(
        pi=pi,
        cap=spec.cap,
        residual_inf=residual,
        tail_mass_bound=tail_mass,
        truncation_limited=tail_mass >= TAIL_TOL,
        mean_x=mean_x,
        mean_z=mean_z,
        mean_q=mean_q,
        workload=float(lam_mu @ mean_q),
        normalized_work=float(lam_mu @ (mean_x - offered)),
        qprob=qprob,
        mean_wait=float(mean_q.sum() / lams.sum()),
    )


def default_caps(config: SystemConfig) -> tuple[int, ...]:
    """Poisson-tail-motivated truncation caps per type."""
    offered = np.asarray(config.arrival_rates) / np.asarray(config.service_rates)
    return tuple(int(c) for c in np.ceil(offered + 40 * np.sqrt(offered) + 40))


def ctmc_stationary_auto(
    config: SystemConfig,
    allocation: AllocationFn | None = None,
) -> StationarySolution:
    """Solve with default caps, growing them geometrically until the
    truncation-boundary mass is certifiable."""
    derive_params(config)  # reject unstable configs before building chains
    if allocation is None:
        allocation = snf_allocation_fn(config)
    cap = default_caps(config)
    sol = None
    for _ in range(_CAP_GROWTHS):
        sol = ctmc_stationary(CtmcSpec(config=config, allocation=allocation, cap=cap))
        if not sol.truncation_limited:
            return sol
        cap = tuple(int(np.ceil(c * 1.5)) for c in cap)
    return sol
