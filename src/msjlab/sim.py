"""Seeded discrete-event simulation runs, coupled multi-system runs, and the
pathwise dominance checkers built on top of them."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import engines
from .engines import AuditResult
from .model import ConfigError, SystemConfig, derive_params
from .stream import JobStream, build_job_stream  # re-export for convenience

__all__ = [
    "PolicyKind", "SimResult", "simulate", "simulate_coupled",
    "sandwich_systems", "DOMINANCE_SYSTEMS", "check_sandwich",
    "check_infinite_server_dominance", "check_couplings", "build_job_stream",
    "JobStream", "WARMUP", "BATCHES",
]

WARMUP = 0.1  # default fraction of simulated time discarded as warm-up
BATCHES = 20  # default number of equal batches for batch-means estimates


class PolicyKind(Enum):
    FCFS = "fcfs"
    SNF = "snf"
    SNF_NP = "snf-np"
    MODIFIED_FCFS = "mod-fcfs"
    INFINITE_SERVER = "inf"


def check_batch_settings(warmup: float, batches: int) -> None:
    """Raise ``ConfigError`` unless the warm-up fraction lies in [0, 1) and
    there are at least 2 batches, the fewest that give an interval."""
    if not 0 <= warmup < 1:
        raise ConfigError(f"warmup fraction must lie in [0, 1), got {warmup}")
    if batches < 2:
        raise ConfigError(f"need at least 2 batches, got {batches}")


@dataclass(eq=False)
class SimResult:
    """Everything a single run produces.

    Per-job arrays cover all jobs in the stream; the batch integrals and the
    audit cover the post-warm-up window only.  ``batch_*`` rows are time
    averages over equal spans of the window; the ``mean_*`` properties
    average them.
    """

    policy: PolicyKind
    n_servers: int
    seed: int
    warmup_discarded: float
    window: tuple[float, float]
    waits: np.ndarray
    arrivals: np.ndarray
    departures: np.ndarray
    types: np.ndarray
    batch_x: np.ndarray
    batch_z: np.ndarray
    batch_workload: np.ndarray
    batch_qprob: np.ndarray
    audit: AuditResult
    max_busy: float

    @property
    def num_jobs(self) -> int:
        return len(self.arrivals)

    @property
    def event_count(self) -> int:
        """Arrivals plus departures; SNF preemptions and resumes left out."""
        return 2 * self.num_jobs

    @property
    def batches(self) -> int:
        return len(self.batch_x)

    @property
    def batch_q(self) -> np.ndarray:
        return self.batch_x - self.batch_z

    @property
    def mean_x(self) -> np.ndarray:
        return self.batch_x.mean(axis=0)

    @property
    def mean_z(self) -> np.ndarray:
        return self.batch_z.mean(axis=0)

    @property
    def mean_q(self) -> np.ndarray:
        return self.batch_q.mean(axis=0)

    def digest(self) -> str:
        """SHA-256 over all result content; equal digests mean bit-identical runs."""
        h = hashlib.sha256()
        h.update(repr((self.policy.value, self.n_servers, self.seed,
                       self.num_jobs, self.warmup_discarded, self.window,
                       self.batches, self.audit, self.max_busy,
                       self.event_count, float(self.batch_workload.mean()),
                       float(self.batch_qprob.mean()))).encode())
        for arr in (self.waits, self.arrivals, self.departures, self.types,
                    self.mean_x, self.mean_z, self.mean_q, self.batch_x,
                    self.batch_z, self.batch_q, self.batch_workload,
                    self.batch_qprob):
            h.update(np.ascontiguousarray(arr))  # its buffer, not a copy
        return h.hexdigest()


def simulate(
    policy: PolicyKind,
    config: SystemConfig,
    stream: JobStream,
    warmup: float = WARMUP,
    *,
    batches: int = BATCHES,
    trajectory=None,
) -> SimResult:
    """Run one system, with ``config.n`` servers, on the given job stream.

    A non-preemptive engine returns start times only; a job's wait is its
    start minus its arrival, and its departure its start plus its service
    time ``unit_service / mu``.  ``run_snf`` returns waits and departures.
    The Modified-FCFS engine and the audit set their threshold and delta' to
    the config's maximal need.  ``trajectory``, an open text stream, receives
    the per-event records of ``dump_trajectory``.
    """
    policy = PolicyKind(policy)
    derive_params(config)  # refuses an overloaded config
    check_batch_settings(warmup, batches)
    needs = np.asarray(config.server_needs, dtype=np.int64)
    mus = np.asarray(config.service_rates, dtype=np.float64)

    starts = zlog = None
    if policy is PolicyKind.SNF:
        waits, deps, zlog = engines.run_snf(stream, needs, mus, config.n)
    else:  # non-preemptive: the engine gives the start times only
        services = stream.unit_service / mus[stream.type_idx]
        if policy is PolicyKind.SNF_NP:
            starts = engines.run_snf_np(stream, needs, services, config.n)
        elif policy is PolicyKind.INFINITE_SERVER:
            starts = engines.run_infinite_server(stream)
        else:
            starts = engines.run_order_preserving(
                stream, needs, services, config.n,
                modified=policy is PolicyKind.MODIFIED_FCFS)
        waits = starts - stream.arrival_times
        deps = starts + services
        del services  # not held through collect_stats, which sets the peak

    t1 = float(stream.arrival_times[-1])
    t0 = warmup * t1
    stats = engines.collect_stats(
        arrivals=stream.arrival_times,
        departures=deps,
        types=stream.type_idx,
        needs=needs,
        mus=mus,
        n_servers=config.n,
        window=(t0, t1),
        batches=batches,
        service_starts=starts,
        zlog=zlog,
    )
    result = SimResult(
        policy=policy,
        n_servers=config.n,
        seed=stream.seed,
        warmup_discarded=warmup,
        window=(t0, t1),
        waits=waits,
        arrivals=stream.arrival_times,
        departures=deps,
        types=stream.type_idx,
        **stats,
    )
    if trajectory is not None:
        dump_trajectory(result, config, trajectory,
                        service_starts=starts, zlog=zlog)
    return result


def simulate_coupled(systems, config: SystemConfig,
                     stream: JobStream) -> list[SimResult]:
    """Run several systems on one shared job stream, each at ``WARMUP`` and
    ``BATCHES``.

    ``systems`` is a list of (policy, server count) pairs; a server count of
    None means the config's own n.  Each system runs on a copy of the config
    with its own server count, and every system sees the identical arrival
    epochs, type labels and unit service draws.
    """
    return [simulate(policy, replace(config, n=n or config.n), stream)
            for policy, n in systems]


def sandwich_systems(config: SystemConfig) -> list:
    """The coupled [lower, original, upper] systems of the waiting-time
    sandwich: [Modified-FCFS @ n+l_max, FCFS @ n, Modified-FCFS @ n]."""
    l_max = derive_params(config).l_max
    return [(PolicyKind.MODIFIED_FCFS, config.n + l_max),
            (PolicyKind.FCFS, None),
            (PolicyKind.MODIFIED_FCFS, None)]


# The coupled [infinite-server, finite] pair of the dominance check.
DOMINANCE_SYSTEMS = ((PolicyKind.INFINITE_SERVER, None), (PolicyKind.FCFS, None))


def check_sandwich(results) -> bool:
    """Pathwise waiting-time sandwich: lower <= original <= upper, every job.

    Expects [lower, original, upper] from a coupled run of
    ``sandwich_systems(config)``.  Comparison is exact; the coupling
    argument is pathwise, not statistical.
    """
    if len(results) != 3:
        raise ValueError("expected [lower, original, upper]")
    lower, original, upper = results
    if not (len(lower.waits) == len(original.waits) == len(upper.waits)):
        raise ValueError("coupled results have mismatched job counts")
    return bool(np.all(lower.waits <= original.waits)
                and np.all(original.waits <= upper.waits))


def check_infinite_server_dominance(coupled) -> bool:
    """Pathwise per-type dominance of the infinite-server system.

    Expects [infinite-server result, finite-system result] from a coupled
    run, sharing arrivals and types; true iff the infinite-server job count
    is <= the finite system's, per type, at every time.  That holds iff the
    k-th earliest infinite-server departure of each type is no later than
    the finite system's k-th, for every k.
    """
    if len(coupled) != 2:
        raise ValueError("expected [infinite-server, finite] results")
    inf_res, fin_res = coupled
    if len(inf_res.waits) != len(fin_res.waits):
        raise ValueError("coupled results have mismatched job counts")
    if not (np.array_equal(inf_res.arrivals, fin_res.arrivals)
            and np.array_equal(inf_res.types, fin_res.types)):
        raise ValueError("results are not coupled: arrivals or types differ")
    for i in range(inf_res.batch_x.shape[1]):
        mask = inf_res.types == i
        if np.any(np.sort(np.compress(mask, inf_res.departures))
                  > np.sort(np.compress(mask, fin_res.departures))):
            return False
    return True


def check_couplings(config: SystemConfig,
                    stream: JobStream) -> tuple[bool, bool]:
    """(sandwich_ok, dominance_ok): both couplings run on one shared stream.

    FCFS @ n belongs to both couplings and is simulated once.  The verdicts
    depend on the waits, arrivals and departures only, not on the
    statistics window.
    """
    sandwich = sandwich_systems(config)
    systems = list(dict.fromkeys([*sandwich, *DOMINANCE_SYSTEMS]))
    runs = dict(zip(systems, simulate_coupled(systems, config, stream)))
    return (check_sandwich([runs[s] for s in sandwich]),
            check_infinite_server_dominance([runs[s] for s in DOMINANCE_SYSTEMS]))


def dump_trajectory(result: SimResult, config: SystemConfig, out,
                    *, service_starts=None, zlog=None) -> None:
    """Write one line per event to the text stream ``out``: t, kind, type,
    x-vector, z-vector (TSV).

    Vectors are semicolon-joined per-type counts after all events at time t;
    events at equal times are ordered departure first, then by job id.
    """
    num_types = config.num_types
    num = result.num_jobs
    # departures first in the stable sort, so ties go departure first, then
    # by job id
    ev_t = np.concatenate([result.departures, result.arrivals])
    order = np.argsort(ev_t, kind="stable")

    t_sorted = ev_t[order]
    x_at = engines.step_at(*engines.count_steps(
        result.arrivals, result.departures, result.types, num_types), t_sorted)
    if zlog is None:
        z_at = engines.step_at(*engines.count_steps(
            service_starts, result.departures, result.types, num_types), t_sorted)
    else:
        z_at = np.stack([engines.step_at(*engines.in_service_step(zlog, i),
                                         t_sorted)
                         for i in range(num_types)], axis=1)
    out.write("t\tkind\ttype\tx\tz\n")
    for row, idx in enumerate(order.tolist()):
        xs = ";".join(str(int(v)) for v in x_at[row])
        zs = ";".join(str(int(v)) for v in z_at[row])
        kind = "departure" if idx < num else "arrival"
        out.write(f"{float(t_sorted[row])!r}\t{kind}\t"
                  f"{int(result.types[idx % num])}\t{xs}\t{zs}\n")
