"""Exact desk-scale references: Erlang-C and a truncated CTMC stationary
solver for count-determined policies.

The CTMC solver covers any policy whose allocation is a deterministic
function of the per-type job counts (SNF is; FCFS is not, its state is the
arrival-ordered job list).  States live in the box prod_i {0..cap_i} with
reflecting truncation; moments are certified only when the probability mass
on the truncation boundary is negligible.  One sparse direct solve of the
balance equations with the empty state's weight pinned to 1 gives pi.  It
runs in geometric nested-dissection order of the box (George 1973): no
transition joins the two halves of a block, so eliminating both before the
plane that separates them keeps the fill inside the blocks.

scipy's sparse stack loads at the first solve, not at import: ``sp``,
``spla`` and ``csgraph`` resolve through the module ``__getattr__`` (PEP 562)
and are then bound here, so a caller may read or rebind ``oracle.spla``
before any solve and ``ctmc_stationary`` calls whatever it is bound to.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .model import SystemConfig, derive_params
from .engines import snf_allocation

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    from scipy.sparse import csgraph

_MAX_STATES = 4_000_000
TAIL_TOL = 1e-8
_CAP_GROWTHS = 6  # truncation boxes ctmc_stationary_auto tries
_SPARSE = {"sp": "scipy.sparse", "spla": "scipy.sparse.linalg",
           "csgraph": "scipy.sparse.csgraph"}


def __getattr__(name):
    if name not in _SPARSE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = globals()[name] = importlib.import_module(_SPARSE[name])
    return module


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


# (S, I) count vectors in, their (S, I) allocations out
AllocationFn = Callable[[np.ndarray], np.ndarray]


def snf_allocation_fn(config: SystemConfig) -> AllocationFn:
    """Count-determined allocation of the preemptive smallest-need-first
    policy: ``engines.snf_allocation``, the packing ``engines.run_snf`` keeps."""
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
    qprob: float
    mean_wait: float


def _dissection_order(dims: tuple[int, ...]) -> np.ndarray:
    """The box's state ids (C order) in nested-dissection order: a block's lower
    half, its upper half, then the plane across its longest axis between them,
    down to blocks of at most 8 states or with every extent below 3."""
    order, todo = [], [np.arange(math.prod(dims)).reshape(dims)]
    while todo:  # depth first, each plane before its halves: reversed at the end
        block = todo.pop()
        if block.size <= 8 or max(block.shape) < 3:
            order.append(block.ravel())
            continue
        axis = int(np.argmax(block.shape))
        mid = block.shape[axis] // 2
        lower, plane, upper = np.split(block, [mid, mid + 1], axis=axis)
        order.append(plane.ravel())
        todo += (lower, upper)
    return np.concatenate(order[::-1])


def ctmc_stationary(spec: CtmcSpec) -> StationarySolution:
    """Solve the stationary distribution of the truncated count chain.

    Transitions: x -> x+e_i at the type arrival rate (dropped on the
    boundary), x -> x-e_i at mu_i * z_i with z = allocation(x).  The empty
    state's weight is pinned to 1, the other S-1 balance equations are
    solved directly and pi is normalised (Stewart, Numerical Solution of
    Markov Chains, 1994, sec. 2.3).  This requires the empty state to be
    recurrent under the allocation (every state can drain to empty), which
    is checked exactly on the transition graph before the solve: otherwise
    the reduced system is singular and ValueError is raised.  The residual
    is the infinity norm of pi Q.  The reduced system is factored in the
    box's nested-dissection order with no further column ordering: on the
    9,261-state three-type box, 1.39M factor nonzeros against COLAMD's 2.44M.
    """
    for name in _SPARSE.keys() - globals().keys():  # load; keep a rebound spla
        __getattr__(name)
    config = spec.config
    num_types = config.num_types
    dims = tuple(c + 1 for c in spec.cap)
    num_states = math.prod(dims)

    grid = np.indices(dims).reshape(num_types, num_states).T  # (S, I)
    z = np.asarray(spec.allocation(grid))
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
    q_t = (q_offdiag.T + sp.diags(diag)).tocsc()  # Q transposed

    # pi Q = 0 with pi[0] = 1 at the empty state: no dense normalisation row.
    # The reduced system is nonsingular iff every state can reach the empty
    # state, i.e. a search from it on the reversed graph finds them all.
    reaching = csgraph.breadth_first_order(q_offdiag.T, 0, return_predecessors=False)
    if len(reaching) < num_states:
        raise ValueError("reduced balance system is singular: the empty state is not "
                         "recurrent under this allocation (the chain must drain to empty)")
    order = _dissection_order(dims)
    order = order[order != 0]  # pi[0] is pinned, not solved for
    rest = spla.spsolve(q_t[order][:, order], -q_t[:, 0].toarray().ravel()[order],
                        permc_spec="NATURAL")
    pi = np.ones(num_states)
    pi[order] = np.maximum(rest, 0.0)
    pi /= pi.sum()
    residual = float(np.abs(q_t @ pi).max())

    tail_mass = float(pi[(grid == spec.cap).any(axis=1)].sum())

    mean_x = pi @ grid
    mean_z = pi @ z
    mean_q = mean_x - mean_z
    lam_mu = needs / mus
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
