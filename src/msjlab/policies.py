"""Scheduling policies as pure functions of queue state, plus the
work-conservation auditor.

Each ``schedule_*`` function maps a :class:`QueueState` to the set of job ids
that should be in service, without mutating anything.  The simulator applies
these rules incrementally for speed; these functions are the reference
semantics and are what the unit tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np


class PolicyKind(Enum):
    FCFS = "fcfs"
    SNF = "snf"
    SNF_NP = "snf-np"
    MODIFIED_FCFS = "mod-fcfs"
    INFINITE_SERVER = "inf"


@dataclass(frozen=True)
class QueueJob:
    job_id: int
    type_index: int  # 0-based
    in_service: bool


@dataclass(frozen=True)
class QueueState:
    """Jobs in the system ordered by arrival index."""

    jobs: tuple[QueueJob, ...]
    num_types: int

    def __post_init__(self):
        ids = [j.job_id for j in self.jobs]
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("jobs must be ordered by strictly increasing job_id")
        if any(not 0 <= j.type_index < self.num_types for j in self.jobs):
            raise ValueError("type_index out of range")

    @property
    def x(self) -> tuple[int, ...]:
        counts = [0] * self.num_types
        for j in self.jobs:
            counts[j.type_index] += 1
        return tuple(counts)

    @property
    def z(self) -> tuple[int, ...]:
        counts = [0] * self.num_types
        for j in self.jobs:
            if j.in_service:
                counts[j.type_index] += 1
        return tuple(counts)


@dataclass(frozen=True)
class Schedule:
    serve: frozenset[int]  # job ids in service


def _busy(state: QueueState, needs: Sequence[int]) -> int:
    return sum(needs[j.type_index] for j in state.jobs if j.in_service)


def schedule_fcfs(state: QueueState, n: int, needs: Sequence[int]) -> Schedule:
    """Serve in arrival order until the first waiting job does not fit.

    Jobs already in service keep their servers.  Head-of-line blocking: once
    a waiting job fails to fit, no later job is placed regardless of size.
    """
    serve = {j.job_id for j in state.jobs if j.in_service}
    used = _busy(state, needs)
    for j in state.jobs:
        if j.in_service:
            continue
        if used + needs[j.type_index] > n:
            break
        serve.add(j.job_id)
        used += needs[j.type_index]
    return Schedule(serve=frozenset(serve))


def snf_allocation(x: Sequence[int] | np.ndarray, n: int,
                   needs: Sequence[int]) -> np.ndarray:
    """Greedy smallest-need-first packing of the count vector x, or of each
    row of an (S, I) array of count vectors."""
    x = np.asarray(x)
    z = np.empty_like(x)
    remaining = n
    for i, l_i in enumerate(needs):
        z[..., i] = np.minimum(x[..., i], remaining // l_i)
        remaining = remaining - l_i * z[..., i]
    return z


def schedule_snf(state: QueueState, n: int, needs: Sequence[int]) -> Schedule:
    """Preemptive smallest-need-first: re-pack from scratch by type priority.

    The allocation depends on the count vector only; within a type the
    earliest-arrived jobs are served.
    """
    z = snf_allocation(state.x, n, needs)
    serve = set()
    taken = [0] * state.num_types
    for j in state.jobs:
        if taken[j.type_index] < z[j.type_index]:
            serve.add(j.job_id)
            taken[j.type_index] += 1
    return Schedule(serve=frozenset(serve))


def schedule_snf_np(state: QueueState, n: int, needs: Sequence[int]) -> Schedule:
    """Non-preemptive smallest-need-first admission.

    Jobs in service are untouched.  Repeatedly admit the waiting job with the
    smallest server need (earliest arrival on ties) while it fits; stop once
    the smallest waiting need exceeds the idle capacity.
    """
    serve = {j.job_id for j in state.jobs if j.in_service}
    idle = n - _busy(state, needs)
    waiting = sorted(
        (j for j in state.jobs if not j.in_service),
        key=lambda j: (needs[j.type_index], j.job_id),
    )
    for j in waiting:
        if needs[j.type_index] > idle:
            break
        serve.add(j.job_id)
        idle -= needs[j.type_index]
    return Schedule(serve=frozenset(serve))


def schedule_modified_fcfs(state: QueueState, n: int, l_max: int,
                           needs: Sequence[int]) -> Schedule:
    """FCFS variant that admits the next waiting job only while at least
    ``l_max`` servers are idle before the admission.  No preemption."""
    serve = {j.job_id for j in state.jobs if j.in_service}
    used = _busy(state, needs)
    for j in state.jobs:
        if j.in_service:
            continue
        if used > n - l_max:
            break
        serve.add(j.job_id)
        used += needs[j.type_index]
    return Schedule(serve=frozenset(serve))


@dataclass(frozen=True)
class AuditResult:
    """Work-conservation audit over a trajectory.

    ``violations`` counts epochs where the busy-server total fell below
    min(total server need, n - delta_prime); ``worst_slack`` is the smallest
    margin seen (negative iff there was a violation, +inf for an empty
    trajectory).
    """

    violations: int
    worst_slack: float


def audit_work_conservation(
    trajectory: Iterable[tuple[Sequence[int], Sequence[int]]],
    n: int,
    delta_prime: float,
    needs: Sequence[int],
) -> AuditResult:
    """Check every (x, z) epoch against the delta'-work-conservation bound."""
    violations = 0
    worst = float("inf")
    for x, z in trajectory:
        total_need = sum(l * xi for l, xi in zip(needs, x))
        busy = sum(l * zi for l, zi in zip(needs, z))
        slack = busy - min(total_need, n - delta_prime)
        if slack < 0:
            violations += 1
        worst = min(worst, slack)
    return AuditResult(violations=violations, worst_slack=worst)
