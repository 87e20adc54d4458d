"""Event-driven engine internals: one fast path per policy family.

The non-preemptive policies (FCFS, Modified-FCFS, SNF-NP, infinite server)
serve each job in one contiguous interval, so they differ only in when each
job starts.  Their engines return only the start times; ``sim.simulate``
forms each wait (start - arrival) and departure (start + service time).
FCFS and Modified-FCFS share a head-of-line start-time recursion over one
departure heap in ``run_order_preserving``, which sets Modified-FCFS's
threshold, the maximal need; SNF-NP is an admission loop over one heap.
Preemptive SNF returns the waits, departures and an explicit in-service step
log: a float64 time and a type and a +-1 step per change, the type and step
in int8 for at most 128 types and in int64 beyond.  Its type 0, never
preempted, is first come first served on n // l_0 slots (the c-server
recursion ``slot_start_times``); only the larger types go through the event
loop, which sees type 0 as capacity events merged by time into their
arrivals and logs every change, type 0's too, in time order.  At one
instant departures come first, the larger types' before type 0's; no
output sees their order, since the allocation after the instant is the
greedy packing whatever it is.
``collect_stats`` turns the start times or the log into time averages, batch
integrals, the queueing-probability indicator and the work-conservation
audit, with one pass per type over its job and in-service counts.
``snf_allocation``, SNF's packing of a count vector, which the CTMC oracle
solves over, sits beside ``run_snf``, SNF's engine.

Inner-loop convention: the event loops touch a few array elements per event,
and indexing a numpy array boxes a fresh numpy scalar on every read, which
would dominate their cost.  So every per-event input is read through a
zero-copy ``memoryview`` of its contiguous float64/int64 array (indexing or
iterating yields plain ``float``/``int``), per-job outputs go into
``array("d")`` buffers handed back as numpy arrays with ``np.frombuffer``,
and small per-job state lives in lists.  The arithmetic is the same IEEE
double arithmetic in the same order, so results are bit-identical to a loop
over numpy scalars.

Array convention in the statistics layer: arrays are gathered with
``np.take`` and filtered with ``np.compress``, which copy the same values
much faster than fancy or boolean indexing, and a bin integral writes
overlaps only into the slice of intervals that can meet the bin, then sums
the whole zero-padded buffer, so each sum adds the same terms in the same
order as a pass over every interval.

The merged epoch sweep of ``collect_stats`` gives the total server need
``sx`` and the busy servers ``sz`` after the changes at each distinct time
``t_ep`` of the arrivals, the service starts (or the SNF in-service log) and
the departures.  It walks time in slices cut at every ``_SLICE``-th arrival
time.  The arrivals and the SNF log are already in time order; the starts
and the departures are argsorted stably once.  All three sources are split
with ``searchsorted(..., "left")`` at the same cut times, so every change at
one time falls in one slice.  A slice's rows, with one int64 jump column
per level, go through ``step_function``, and the levels carried over from
the slice before are added; the audit, ``max_busy`` and the ``queued``
indicator use those values at once, so only ``t_ep`` and the bool
``queued`` parts span the whole run; the parts are joined straight into the
float64 ``qprob`` integrand once ``t_ep`` is whole, and the integral takes
``t_ep[1:]`` as its interval ends, a view.  Every jump is an integer, so
each level at each distinct time is the same exact sum in any grouping of
the rows: ``t_ep``, the ``qprob`` integrand and the audit keep their bits.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from typing import Sequence

import numpy as np

from .stream import JobStream, resample_draws


def _view(a) -> memoryview:
    """Zero-copy element view of a contiguous array; indexing yields Python
    scalars."""
    return memoryview(np.ascontiguousarray(a))


def _zeros(num: int) -> array:
    return array("d", bytes(8 * num))


def hol_start_times(arrivals, services, job_needs, n, admit_needs) -> np.ndarray:
    """Service start times under head-of-line admission in arrival order.

    Job k starts at the first instant, no earlier than its arrival and the
    previous job's start, at which the busy-server count is at most
    ``n - admit_needs[k]``.  FCFS passes the job's own need; Modified-FCFS
    passes the maximal need for every job.

    Departures leave the heap lazily, earliest first and only while
    ``busy`` exceeds the limit; the start moves up to each one popped.
    ``busy`` may still count departures due by the start, an upper bound on
    the exact count, so a job it admits is admitted under the exact count
    too.  After an admission the heap holds needs summing to at most n.
    """
    lims = n - np.asarray(admit_needs, dtype=np.int64)
    starts = array("d")
    push = starts.append
    heap: list[tuple[float, int]] = []
    busy = 0
    t = 0.0
    for a, service, need, lim in zip(_view(arrivals), _view(services),
                                     _view(job_needs), _view(lims)):
        if a > t:
            t = a
        while busy > lim:
            d, l = heappop(heap)
            busy -= l
            if d > t:
                t = d
        push(t)
        busy += need
        heappush(heap, (t + service, need))
    return np.frombuffer(starts)


def run_order_preserving(stream: JobStream, needs, services, n_servers: int,
                         modified=False) -> np.ndarray:
    """Start times under FCFS or, if ``modified``, Modified-FCFS, which
    admits every job by the maximal need, given each job's service time."""
    job_needs = needs[stream.type_idx]
    admit = (np.full(stream.horizon, needs.max(), dtype=np.int64) if modified
             else job_needs)
    return hol_start_times(stream.arrival_times, services, job_needs,
                           n_servers, admit)


def run_infinite_server(stream: JobStream) -> np.ndarray:
    """Service start times with no capacity constraint: every job starts on
    arrival, so this is ``stream.arrival_times`` itself, not a copy."""
    return stream.arrival_times


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


def slot_start_times(arrivals, services, slots: int) -> np.ndarray:
    """Start times of first-come-first-served jobs that each take one of
    ``slots`` identical slots: job k starts at max(its arrival, the time a
    slot comes free for it), the c-server recursion of Kiefer and Wolfowitz
    (1955) over one heap of the slots' free times."""
    free_at = [-math.inf] * slots
    starts = array("d")
    push = starts.append
    for a, service in zip(_view(arrivals), _view(services)):
        f = free_at[0]
        t = a if a > f else f
        heapreplace(free_at, t + service)
        push(t)
    return np.frombuffer(starts)


def run_snf(stream: JobStream, needs, mus, n_servers: int):
    """Preemptive smallest-need-first engine.

    Order the jobs in the system by (type, arrival).  The jobs in service are
    the longest prefix of that order whose needs fit in ``n_servers``; types
    are in nondecreasing need order, so every job behind the prefix needs at
    least as many servers as the first one, which does not fit.  Hence an
    event moves at most one job besides its own: a departure starts the first
    waiting job if it now fits, and an arrival that lands inside the prefix
    starts and, if the servers overflow, preempts the prefix's last job, after
    which the next job needs more than the servers left.  Ties between types
    of equal need go by type index, so the allocation is the greedy packing of
    the count vector that ``snf_allocation`` computes.  At one instant every
    departure comes before any arrival, and arrivals go by job id.

    Type 0 heads the order, so it is never preempted: it is first come first
    served on c = n_servers // needs[0] identical slots, and
    ``slot_start_times`` gives its starts.  The event loop keeps only the
    larger types.  It reads their arrivals and type 0's capacity events as
    one time-sorted stream against its departure heap: a type-0 start at
    arrival takes needs[0] servers and may preempt the prefix's last job; a
    type-0 departure frees them and may start the first waiting job, unless
    it hands its slot to a waiting type-0 job, which changes nothing.  If w
    type-0 jobs start from the queue at one instant, w of the type-0
    departures then are their hand-offs.  At one instant the larger types'
    departures, from the heap, go before type 0's.  No output sees the
    order of the departures at one instant: the allocation after them is
    the greedy packing whatever their order, the jobs it starts resume in
    SNF order, and the log's entries within the instant bound intervals of
    length zero, so every step value after the instant is unchanged.

    Preempted jobs re-queue and draw a fresh service clock on resume (role-3
    stream), which is distribution-preserving for exponential service.

    Returns (waits, departures, zlog): zlog = (times float64, type, dz)
    holds every change of the in-service count vector in time order, +1 for
    a start and -1 for a stop, and at equal times in the loop's order.  The
    loop logs each as a code, i for a start of type i and ~i for a stop, and
    a type-0 hand-off as a stop and then a start.  With at most 128 types
    every code fits a signed byte, so the type and dz columns are int8;
    beyond that they are int64.  ``cumsum`` and ``sum`` of int8 accumulate
    in int64, and ``needs[type] * dz`` is int64.
    """
    num = stream.horizon
    arrivals = stream.arrival_times
    needs_l = [int(v) for v in needs]
    mus_l = [float(v) for v in mus]
    l0 = needs_l[0]
    # codes i and ~i fit a signed byte while there are at most 128 types
    log_t, log_code = array("d"), array("b" if len(needs_l) <= 128 else "q")
    code_dtype = np.dtype(f"i{log_code.itemsize}")
    ev_dtype = np.int32 if num < 2**31 else np.int64
    waits = np.empty(num)
    departures = np.empty(num)

    # type 0 on its slots: waits0 and deps0 hold its arrivals and service
    # times, then its waits and departures
    small = stream.type_idx == 0
    waits0 = np.compress(small, arrivals)
    deps0 = np.compress(small, stream.unit_service) / mus_l[0]
    starts0 = slot_start_times(waits0, deps0, n_servers // l0)
    deps0 += starts0
    takes0 = waits0 == starts0  # started at arrival
    np.subtract(starts0, waits0, out=waits0)
    np.place(waits, small, waits0)
    np.place(departures, small, deps0)
    del waits0
    deps0.sort()
    # a departure frees its servers (-2), or hands its slot over (-3): a
    # start from the queue takes the slot of the first departure at its
    # time not yet handed over
    handed = np.compress(~takes0, starts0)
    dep_code = np.full(len(deps0), -2, dtype=ev_dtype)
    dep_code[np.searchsorted(deps0, handed, "left") + np.arange(len(handed))
             - np.searchsorted(handed, handed, "left")] = -3
    del handed, starts0

    # the larger types' own state, indexed by local id in arrival order
    larger = ~small
    type_of = np.compress(larger, stream.type_idx)
    service = np.compress(larger, stream.unit_service)
    service /= np.take(np.asarray(mus_l), type_of)
    type_of = type_of.astype(code_dtype)
    num1 = len(type_of)

    # the event stream: type-0 departures and, after them at equal times,
    # the larger types' arrivals (local id) and type-0 starts at arrival
    # (-1) in job id order; a last event at +inf drains the heap
    arrive = larger.copy()  # a larger arrival or a type-0 start at arrival
    np.place(arrive, small, takes0)
    del small, takes0
    codes = np.full(np.count_nonzero(arrive), -1, dtype=ev_dtype)
    codes[np.compress(arrive, larger)] = np.arange(num1)
    del larger
    arrive_t = np.compress(arrive, arrivals)
    del arrive
    size = len(arrive_t) + len(deps0) + 1
    at = np.searchsorted(arrive_t, deps0, "left") + np.arange(len(deps0))
    rest = np.ones(size, dtype=bool)
    rest[at] = False
    rest[-1] = False
    ev_code = np.empty(size, dtype=ev_dtype)
    ev_code[at] = dep_code
    ev_code[-1] = -2
    np.place(ev_code, rest, codes)
    del codes, dep_code
    ev_t = np.empty(size)
    ev_t[at] = deps0
    ev_t[-1] = math.inf
    np.place(ev_t, rest, arrive_t)
    del arrive_t, deps0, at, rest

    keys: list[int] = []  # type * num1 + local id of every job in the system
    b = 0  # keys[:b] are in service
    free = n_servers
    waits1 = _zeros(num1)
    deps1 = _zeros(num1)  # a waiting job's queue entry time until it departs
    clock_epoch = [0] * num1
    heap: list[tuple[float, int, int]] = []
    resample = resample_draws(stream.seed)
    put_t, put_code = log_t.append, log_code.append
    type_of, service = _view(type_of), _view(service)

    events = zip(_view(ev_t), _view(ev_code))
    t_ev, code = next(events)
    while True:
        if heap and heap[0][0] <= t_ev:
            t, lid, epoch = heappop(heap)
            if clock_epoch[lid] != epoch:
                continue
            i = type_of[lid]
            keys.pop(bisect_left(keys, i * num1 + lid))
            b -= 1
            free += needs_l[i]
            deps1[lid] = t
            put_t(t)
            put_code(~i)
        else:
            t = t_ev
            if code >= -1:
                if code >= 0:  # a larger job arrives
                    lid = code
                    i = type_of[lid]
                    need = needs_l[i]
                    key = i * num1 + lid
                    p = bisect_left(keys, key)
                    keys.insert(p, key)
                    t_ev, code = next(events)
                    if p > b or p == b and need > free:  # it waits
                        deps1[lid] = t
                        continue
                    # it lands inside the prefix and starts
                    b += 1
                    clock_epoch[lid] = 1
                    heappush(heap, (t + service[lid], lid, 1))
                else:  # a type-0 job starts at arrival
                    i, need = 0, l0
                    t_ev, code = next(events)
                free -= need
                put_t(t)
                put_code(i)
                if free >= 0:
                    continue
                # the servers overflow: the prefix's last job is preempted
                b -= 1
                lid = keys[b] % num1
                i = type_of[lid]
                free += needs_l[i]
                deps1[lid] = t
                clock_epoch[lid] += 1
                put_t(t)
                put_code(~i)
                continue
            if t == math.inf:  # the end of the stream; the heap is empty
                break
            put_t(t)  # a type-0 job departs
            put_code(~0)
            if code == -3:  # it hands its slot to a waiting type-0 job
                put_t(t)
                put_code(0)
                t_ev, code = next(events)
                continue
            free += l0
            t_ev, code = next(events)
        if b == len(keys):
            continue
        # the first waiting job starts or resumes if it now fits
        lid = keys[b] % num1
        i = type_of[lid]
        need = needs_l[i]
        if need > free:
            continue
        b += 1
        free -= need
        waits1[lid] += t - deps1[lid]
        if clock_epoch[lid]:
            dur = next(resample) / mus_l[i]
        else:
            dur = service[lid]
        epoch = clock_epoch[lid] + 1
        clock_epoch[lid] = epoch
        heappush(heap, (t + dur, lid, epoch))
        put_t(t)
        put_code(i)
    del ev_t, ev_code, events, type_of, service, clock_epoch, resample, put_t
    larger = stream.type_idx != 0
    np.place(waits, larger, waits1)
    np.place(departures, larger, deps1)
    del larger, waits1, deps1

    codes = np.frombuffer(log_code, dtype=code_dtype)
    stops = codes < 0
    one = code_dtype.type(1)
    return waits, departures, (np.frombuffer(log_t),
                               np.where(stops, ~codes, codes),
                               np.where(stops, -one, one))


def run_snf_np(stream: JobStream, needs, services, n_servers: int) -> np.ndarray:
    """Service start times under non-preemptive smallest-need-first
    admission; ``services`` are the jobs' service times.

    Whenever a job may fit, the waiting job with the smallest server need
    (earliest arrival on ties) is admitted while it fits.  The waiting jobs
    are one heap of (need, job id), and every waiting need exceeds ``idle``:
    a departure admits from the head while it fits, and an arrival that fits
    is the smallest waiting job and starts at once.
    """
    num = stream.horizon
    arrivals = _view(stream.arrival_times)
    type_of = _view(stream.type_idx)
    services = _view(services)

    needs_l = [int(v) for v in needs]
    idle = n_servers
    waiting: list[tuple[int, int]] = []
    heap: list[tuple[float, int]] = []
    starts = _zeros(num)

    k_next = 0
    while k_next < num or heap:
        t_arr = arrivals[k_next] if k_next < num else math.inf
        if heap and heap[0][0] <= t_arr:
            t, need = heappop(heap)
            idle += need
            while waiting and waiting[0][0] <= idle:
                need, jid = heappop(waiting)
                starts[jid] = t
                heappush(heap, (t + services[jid], need))
                idle -= need
        else:
            t = t_arr
            jid = k_next
            need = needs_l[type_of[jid]]
            k_next += 1
            if need > idle:
                heappush(waiting, (need, jid))
            else:
                starts[jid] = t
                heappush(heap, (t + services[jid], need))
                idle -= need
    return np.frombuffer(starts)


def _bin_integrals(lo, hi, edges, values=None, monotone=False):
    """Per bin [edges[b], edges[b+1]), the summed overlap of the intervals
    [lo[k], hi[k]) with it, each weighted by values[k] if given.  A ``hi``
    one shorter than ``lo`` leaves the last interval open-ended: it overlaps
    each bin up to the bin's right edge.

    Intervals before ``first`` (running max of ``hi`` <= a) and from ``last``
    on (suffix min of ``lo`` >= b) overlap the bin by <= 0, which clips to
    +0.0, so only [first, last) of the zeroed buffer is written.  The sum or
    dot still runs over the full buffer: the same terms in the same order as
    a full-length pass, hence the same bits.  If ``monotone``, ``lo`` and
    ``hi`` are nondecreasing and so their own running max and suffix min.
    """
    hi_max = hi if monotone else np.maximum.accumulate(hi)
    lo_min = lo if monotone else np.minimum.accumulate(lo[::-1])[::-1]
    firsts = np.searchsorted(hi_max, edges[:-1], "right")
    lasts = np.searchsorted(lo_min, edges[1:], "left")
    overlap = np.zeros(len(lo))
    out = np.empty(len(edges) - 1)
    for j, (a, b, first, last) in enumerate(zip(edges[:-1], edges[1:],
                                                 firsts, lasts)):
        seg = overlap[first:last]
        ends = hi[first:last]  # one short if it takes in the open interval
        np.minimum(ends, b, out=seg[:len(ends)])
        seg[len(ends):] = b
        seg -= np.maximum(lo[first:last], a)
        np.clip(seg, 0.0, None, out=seg)
        out[j] = overlap.sum() if values is None else np.dot(values, overlap)
        seg[:] = 0.0
    return out


def _step_integrals(t, values, edges):
    """Per bin, the integral of the step function that is ``values[k]`` on
    [t[k], t[k+1]) and ``values[-1]`` from t[-1] on; 0 if empty.  The
    interval ends are the view ``t[1:]``, the last interval open-ended; the
    sums are those of the explicit last end max(edges[-1], t[-1]), which
    clips to every bin's right edge."""
    return _bin_integrals(t, t[1:], edges, np.asarray(values, dtype=np.float64),
                          monotone=True)


def step_function(times, deltas):
    """Right-continuous step function from change times and jumps.

    Returns the distinct change times in increasing order and the value after
    all changes at each of them (value 0 before the first).  The sort is
    stable; ``deltas`` may carry one column per step function sharing the
    change times.  Integer jumps are summed in int64.
    """
    order = np.argsort(times, kind="stable")
    t = np.take(times, order)
    values = np.take(deltas, order, axis=0)
    del order  # lowers the peak memory of a long sweep
    values = np.cumsum(values, axis=0)
    keep = np.ones(len(t), dtype=bool)  # the last row at each distinct time
    keep[:-1] = t[1:] != t[:-1]
    return np.compress(keep, t), np.compress(keep, values, axis=0)


def step_at(t, values, query, side="right"):
    """Step-function value at each query time: after the changes at that
    time (side="right") or just before them (side="left")."""
    padded = np.concatenate((np.zeros((1, *values.shape[1:]), values.dtype), values))
    return np.take(padded, np.searchsorted(t, query, side=side), axis=0)


def count_steps(lo, hi, types, num_types):
    """Per-type number of intervals [lo[k], hi[k]) covering each time, as
    one step function with a column per type."""
    # int8 jumps keep the sorted copy small; step_function widens them
    onehot = (types[:, None] == np.arange(num_types)).astype(np.int8)
    return step_function(np.concatenate([lo, hi]),
                         np.concatenate([onehot, -onehot]))


def in_service_step(zlog, i):
    """Type i's in-service count of an SNF ``zlog`` as a step function:
    its change times and the count after each change."""
    zt, zi, zdz = zlog
    mask = zi == i
    return np.compress(mask, zt), np.cumsum(np.compress(mask, zdz))


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


# Arrivals per slice of the merged epoch sweep: a slice's sort and sums
# hold a few times this many rows, whatever the length of the run.
_SLICE = 4096


def _stable_order(a):
    """The stable argsort of ``a``, held as int32 when its rows fit, and
    ``a`` in that order, gathered with the int64 order (``np.take`` first
    converts int32 indices to int64)."""
    order = np.argsort(a, kind="stable")
    in_order = np.take(a, order)
    return order.astype(np.int32) if len(a) < 2**31 else order, in_order


def _epoch_slices(arrivals, departures, types, needs, service_starts, zlog):
    """The merged epoch sweep of ``collect_stats``, one slice of time at a
    time: per slice, its distinct change times ``t_ep`` and the total server
    need ``sx`` and busy servers ``sz`` after the changes at each of them.
    ``arrivals`` and the ``zlog`` times are nondecreasing."""
    # each source in time order, cut with "left" at every _SLICE-th arrival
    # time, so all changes at one time fall in one slice
    taus = arrivals[_SLICE::_SLICE]

    def cuts(sorted_times):
        inner = np.searchsorted(sorted_times, taus, "left").tolist()
        return zip([0, *inner], [*inner, len(sorted_times)])

    by_dep, in_order = _stable_order(departures)
    dep_cuts = cuts(in_order)
    if zlog is None:
        by_start, in_order = _stable_order(service_starts)
        start_cuts = cuts(in_order)
    else:
        start_cuts = cuts(zlog[0])
    del in_order
    carry = np.zeros(2, dtype=np.int64)  # sx and sz before the slice
    for (a0, a1), (s0, s1), (d0, d1) in zip(cuts(arrivals), start_cuts,
                                            dep_cuts):
        if zlog is None:
            rows = by_start[s0:s1]
            start_t = np.take(service_starts, rows)
            start_j = np.take(needs, np.take(types, rows))
        else:
            start_t = zlog[0][s0:s1]
            start_j = np.take(needs, zlog[1][s0:s1]) * zlog[2][s0:s1]
        rows = by_dep[d0:d1]
        times = np.concatenate([arrivals[a0:a1], start_t,
                                np.take(departures, rows)])
        if len(times) == 0:
            continue
        # the jumps of sx and sz at the slice's arrivals, starts, departures
        ns, nd = a1 - a0, a1 - a0 + len(start_t)
        jumps = np.zeros((len(times), 2), dtype=np.int64)
        jumps[:ns, 0] = np.take(needs, types[a0:a1])
        jumps[ns:nd, 1] = start_j
        np.negative(np.take(needs, np.take(types, rows)), out=jumps[nd:, 0])
        if zlog is None:  # the zlog already holds the in-service departures
            jumps[nd:, 1] = jumps[nd:, 0]
        t, levels = step_function(times, jumps)
        levels += carry
        carry = levels[-1].copy()
        yield t, levels[:, 0], levels[:, 1]


def collect_stats(*, arrivals, departures, types, needs, mus, n_servers,
                  window, batches, service_starts=None, zlog=None):
    """Per-batch time averages, the peak busy-server count and the
    work-conservation audit at delta' = l_max = max(needs), keyed by their
    ``SimResult`` field names.

    Exactly one of ``service_starts`` (contiguous service) or ``zlog``
    (explicit in-service step log, in time order) must be given.
    ``arrivals`` must be nondecreasing, as every engine requires.  All
    statistics are over the window [t0, t1]; batch bins split it evenly.
    """
    t0, t1 = window
    span = t1 - t0
    if span <= 0:
        raise ValueError("empty statistics window")
    num_types = len(needs)
    edges = np.linspace(t0, t1, batches + 1)
    bin_len = span / batches

    needs = np.asarray(needs, dtype=np.int64)
    batch_x = np.empty((batches, num_types))
    batch_z = np.empty((batches, num_types))
    for i in range(num_types):
        mask = types == i
        deps_i = np.compress(mask, departures)
        batch_x[:, i] = _bin_integrals(np.compress(mask, arrivals), deps_i, edges)
        if zlog is None:
            batch_z[:, i] = _bin_integrals(np.compress(mask, service_starts),
                                           deps_i, edges)
        else:
            batch_z[:, i] = _step_integrals(*in_service_step(zlog, i), edges)
    del mask, deps_i  # the last type's rows, before the sweep
    batch_x /= bin_len
    batch_z /= bin_len
    batch_q = batch_x - batch_z

    # merged epoch sweep for total server need, busy servers, audit,
    # P(queueing), one slice of time at a time; see the module docstring
    limit = n_servers - int(needs.max())
    violations, worst_slack, max_busy = 0, math.inf, 0
    t_parts, q_parts = [np.empty(0)], [np.empty(0, dtype=bool)]
    for t_ep, sx, sz in _epoch_slices(arrivals, departures, types, needs,
                                      service_starts, zlog):
        w = slice(np.searchsorted(t_ep, t0, "left"),
                  np.searchsorted(t_ep, t1, "right"))
        slack_w = sz[w] - np.minimum(sx[w], limit)
        if len(slack_w):
            violations += int(np.count_nonzero(slack_w < 0))
            worst_slack = min(worst_slack, int(slack_w.min()))
        max_busy = max(max_busy, int(sz.max()))
        t_parts.append(t_ep)
        q_parts.append(sx >= n_servers)
    audit = AuditResult(violations=violations, worst_slack=float(worst_slack))
    t_ep = np.concatenate(t_parts)
    del t_parts  # before the integrand and the qprob integral set the peak
    queued = np.concatenate(q_parts, dtype=np.float64)
    del q_parts
    batch_qprob = _step_integrals(t_ep, queued, edges) / bin_len

    lam_mu = needs / np.asarray(mus, dtype=np.float64)
    batch_workload = batch_q @ lam_mu
    return {
        "batch_x": batch_x,
        "batch_z": batch_z,
        "batch_workload": batch_workload,
        "batch_qprob": batch_qprob,
        "audit": audit,
        "max_busy": float(max_busy),
    }
