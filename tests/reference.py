"""Reference semantics of the scheduling policies, and closed forms that only
the tests use.

Each ``schedule_*`` function maps a :class:`QueueState` to the set of job ids
that should be in service, without mutating anything.  ``reference_run``
drives them through a deliberately naive event loop that re-schedules after
every arrival and departure; the fast engines in ``msjlab.engines`` are
tested against it.  ``audit_work_conservation`` replays the
delta'-work-conservation audit over (x, z) epochs,
``infinite_server_dominance`` compares the per-type job counts of a coupled
pair as step functions at every epoch, ``merged_sweep`` states the merged
epoch sweep of ``engines.collect_stats`` with both levels in one array, and
``mm1_whole_machine`` gives the closed forms of the system in which every
job takes the whole machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from msjlab import (AuditResult, PolicyKind, derive_params, engines,
                    snf_allocation)
from msjlab.stream import resample_draws


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


def infinite_server_dominance(coupled) -> bool:
    """True iff the infinite-server job count of ``coupled`` =
    [infinite-server result, finite result] is <= the finite one, per type,
    after the events at every event epoch of either system."""
    inf_res, fin_res = coupled
    num_types = inf_res.batch_x.shape[1]
    ti, ci = engines.count_steps(inf_res.arrivals, inf_res.departures,
                                 inf_res.types, num_types)
    tf, cf = engines.count_steps(fin_res.arrivals, fin_res.departures,
                                 fin_res.types, num_types)
    epochs = np.union1d(ti, tf)
    return not np.any(engines.step_at(ti, ci, epochs)
                      > engines.step_at(tf, cf, epochs))


def merged_sweep(*, arrivals, departures, types, needs, n_servers, window,
                 batches, service_starts=None, zlog=None) -> dict:
    """``collect_stats``'s ``batch_qprob``, ``audit`` and ``max_busy`` from
    one (times, 2) array of both levels' jumps, summed by one
    ``step_function`` call, and a ``qprob`` integral that takes the running
    max and suffix min of its intervals."""
    t0, t1 = window
    edges = np.linspace(t0, t1, batches + 1)
    bin_len = (t1 - t0) / batches
    needs = np.asarray(needs, dtype=np.int64)
    job_needs = needs[types]
    by_dep = np.argsort(departures, kind="stable")
    zt = service_starts if zlog is None else zlog[0]
    num, m = len(types), len(zt)
    times = np.concatenate([arrivals, zt, np.take(departures, by_dep)])
    deltas = np.zeros((len(times), 2), dtype=np.int64)
    deltas[:num, 0] = job_needs
    deltas[num + m:, 0] = -np.take(job_needs, by_dep)
    if zlog is None:
        deltas[num:num + m, 1] = job_needs
        deltas[num + m:, 1] = deltas[num + m:, 0]
    else:  # the zlog already holds the in-service departures
        deltas[num:num + m, 1] = needs[zlog[1]] * zlog[2]
    t_ep, sums = engines.step_function(times, deltas)
    sx, sz = sums[:, 0], sums[:, 1]

    ends = np.append(t_ep[1:], max(edges[-1], t_ep[-1]))
    batch_qprob = engines._bin_integrals(
        t_ep, ends, edges, np.asarray(sx >= n_servers, dtype=np.float64)) / bin_len

    w = slice(np.searchsorted(t_ep, t0, "left"),
              np.searchsorted(t_ep, t1, "right"))
    slack_w = sz[w] - np.minimum(sx[w], n_servers - int(needs.max()))
    if len(slack_w):
        audit = AuditResult(violations=int((slack_w < 0).sum()),
                            worst_slack=float(slack_w.min()))
    else:
        audit = AuditResult(violations=0, worst_slack=float("inf"))
    return {"batch_qprob": batch_qprob, "audit": audit,
            "max_busy": float(sz.max()) if len(sz) else 0.0}


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


def _scheduler(policy, config, n):
    needs = config.server_needs
    if policy is PolicyKind.FCFS:
        return lambda s: schedule_fcfs(s, n, needs)
    if policy is PolicyKind.MODIFIED_FCFS:
        l_max = derive_params(config).l_max
        return lambda s: schedule_modified_fcfs(s, n, l_max, needs)
    if policy is PolicyKind.SNF:
        return lambda s: schedule_snf(s, n, needs)
    if policy is PolicyKind.SNF_NP:
        return lambda s: schedule_snf_np(s, n, needs)
    return lambda s: Schedule(serve=frozenset(j.job_id for j in s.jobs))


def reference_run(policy, config, stream, n):
    """(waits, departures, starts, counts) from re-scheduling at every event.

    ``starts`` holds each job's last service start and ``counts`` maps each
    event time to the per-type in-service counts after the events at it.
    Ties go to the departure, then to the lower job id, as in the engines.
    A job starting a later service spell draws its clock from the role-3
    resample stream; the draws of one event go in (type, arrival) order.
    """
    schedule = _scheduler(policy, config, n)
    mus = config.service_rates
    arrivals = stream.arrival_times.tolist()
    unit = stream.unit_service.tolist()
    types = stream.type_idx.tolist()
    num = len(arrivals)
    resample = resample_draws(stream.seed)
    waits = [0.0] * num
    departures = [0.0] * num
    starts = [0.0] * num
    counts: dict[float, list[int]] = {}
    enq = list(arrivals)
    served_once = [False] * num
    in_service: dict[int, float] = {}  # job id -> departure time
    system: list[int] = []  # job ids in arrival order
    k = 0
    while k < num or system:
        t_arr = arrivals[k] if k < num else math.inf
        nxt = min(in_service, key=lambda j: (in_service[j], j), default=None)
        if nxt is not None and in_service[nxt] <= t_arr:
            t = in_service.pop(nxt)
            system.remove(nxt)
            departures[nxt] = t
        else:
            t = t_arr
            system.append(k)
            k += 1
        state = QueueState(
            jobs=tuple(QueueJob(j, types[j], j in in_service) for j in system),
            num_types=config.num_types)
        serve = schedule(state).serve
        for j in system:
            if j in in_service and j not in serve:
                del in_service[j]
                enq[j] = t
        for j in sorted((j for j in serve if j not in in_service),
                        key=lambda j: (types[j], j)):
            waits[j] += t - enq[j]
            mu = mus[types[j]]
            dur = next(resample) / mu if served_once[j] else unit[j] / mu
            served_once[j] = True
            starts[j] = t
            in_service[j] = t + dur
        counts[t] = [0] * config.num_types
        for j in in_service:
            counts[t][types[j]] += 1
    return waits, departures, starts, counts
