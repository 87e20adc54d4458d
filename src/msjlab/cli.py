"""Experiment harness CLI: single runs, parameter sweeps, bound reports,
invariant suites and coupled-path checks."""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from . import stats
from .bounds import evaluate_bounds
from .model import (ConfigError, ParamSet, SystemConfig, derive_params,
                    make_param_set)
from .sim import (BATCHES, WARMUP, PolicyKind, SimResult, build_job_stream,
                  check_batch_settings, simulate)
from .verify import SUITES, suite_coupling

CSV_COLUMNS = [
    "row_kind", "param_set", "n", "policy", "seed", "jobs", "warmup",
    "batches", "mean_wait", "mean_wait_hw", "wait_per_type",
    "wait_hw_per_type", "qprob", "qprob_hw", "workload", "workload_hw",
    "mean_x_per_type", "mean_z_per_type", "mean_q_per_type",
    "audit_violations", "audit_worst_slack", "event_count", "delta",
    "sigma2", "l_max", "workload_lower", "workload_upper",
    "fcfs_wait_lower", "fcfs_wait_upper", "universal_lower", "snf_upper",
    "qp_exponent", "error",
]


def resolve_config(param_set: str, n: int | None) -> SystemConfig:
    """``one``/``two`` build the named study set at n; anything else is a
    path to a config file ``{n, types: [{lambda, mu, l}]}`` that fixes n.
    An invalid or contradicting configuration raises ``ConfigError``."""
    if param_set.lower() in ("one", "two"):
        if n is None:
            raise ConfigError("--n is required with a named parameter set")
        return make_param_set(ParamSet(param_set.lower()), n)
    path = Path(param_set)
    if not path.exists():
        raise ConfigError(f"--param-set {param_set!r} is neither one/two nor a file")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {param_set!r} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {param_set!r} cannot be read: {exc}") from exc
    config = SystemConfig.from_file_dict(doc)
    if n is not None and n != config.n:
        raise ConfigError(f"--n {n} contradicts n={config.n} in {param_set!r}")
    return config


def _require_distinct(**values) -> None:
    """Raise ``ConfigError`` if a named tuple of run values repeats one: a
    repeat would simulate the same cell twice."""
    for name, vals in values.items():
        if len(set(vals)) < len(vals):
            raise ConfigError(f"{name} must not repeat a value")


def _require_jobs_per_batch(jobs: int, batches: int) -> None:
    """Raise ``ConfigError`` below 20 jobs per batch.  The statistics
    allocate and loop over every batch, so this also bounds ``batches``."""
    if jobs < 20 * batches:
        raise ConfigError(f"jobs {jobs} below 20 * batches = {20 * batches}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple, np.ndarray)):
        return ";".join(_fmt(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _strict_json(doc) -> str:
    """``doc`` as indented RFC 8259 JSON: a non-finite float, such as the
    half-width of an estimate with no interval, is written as null."""
    def finite(value):
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value
    return json.dumps(finite(doc), indent=2, allow_nan=False)


def _summary(result: SimResult, config: SystemConfig) -> dict:
    """What a run reports, keyed by the ``sim`` columns of ``CSV_COLUMNS``
    from ``mean_wait`` to ``event_count``; ``run`` and ``sweep`` only render
    it.  A type with no arrival after the warm-up has None for its wait and
    half-width."""
    waits = stats.mean_waiting_time(result, config)
    qp = stats.queueing_probability(result)
    wl = stats.workload(result)
    per_type = [waits["per_type"].get(i) for i in range(config.num_types)]
    return {
        "mean_wait": waits["overall"].mean,
        "mean_wait_hw": waits["overall"].half_width,
        "wait_per_type": [e.mean if e else None for e in per_type],
        "wait_hw_per_type": [e.half_width if e else None for e in per_type],
        "qprob": qp.mean, "qprob_hw": qp.half_width,
        "workload": wl.mean, "workload_hw": wl.half_width,
        "mean_x_per_type": result.mean_x.tolist(),
        "mean_z_per_type": result.mean_z.tolist(),
        "mean_q_per_type": result.mean_q.tolist(),
        "audit_violations": result.audit.violations,
        "audit_worst_slack": result.audit.worst_slack,
        "event_count": result.event_count,
    }


def _row(base: dict, config: SystemConfig, columns) -> dict:
    """``base`` plus the config's delta, sigma2 and l_max and ``columns()``;
    a failure goes to the ``error`` column, and the sweep goes on."""
    try:
        p = derive_params(config)
        base.update(columns(), delta=p.delta, sigma2=p.sigma2, l_max=p.l_max)
    except Exception as exc:
        base["error"] = f"{type(exc).__name__}: {exc}"
    return base


def _sim_cell(args):
    """One sweep cell; module-level so worker processes can pickle it."""
    (param_set, config, policy, seed, jobs, warmup, batches) = args

    def columns():
        stream = build_job_stream(seed, jobs, config)
        return _summary(simulate(PolicyKind(policy), config, stream, warmup,
                                 batches=batches), config)
    return _row({"row_kind": "sim", "param_set": param_set, "n": config.n,
                 "policy": policy, "seed": seed, "jobs": jobs,
                 "warmup": warmup, "batches": batches}, config, columns)


def _bounds_row(param_set, config: SystemConfig):
    def columns():  # the bound columns name the report's fields
        report = evaluate_bounds(config)
        return {col: getattr(report, col) for col in CSV_COLUMNS[
            CSV_COLUMNS.index("workload_lower"):CSV_COLUMNS.index("error")]}
    return _row({"row_kind": "bounds", "param_set": param_set, "n": config.n},
                config, columns)


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep: one simulation per (n, policy, seed) plus one bounds
    row per n."""

    param_set: str
    n_list: tuple[int, ...]
    policies: tuple[str, ...]
    seeds: tuple[int, ...]
    jobs: int
    warmup: float = WARMUP
    batches: int = BATCHES
    workers: int = 1

    def __post_init__(self):
        if not self.n_list or not self.policies or not self.seeds:
            raise ConfigError("n_list, policies and seeds must be nonempty")
        _require_distinct(n_list=self.n_list, policies=self.policies,
                          seeds=self.seeds)
        check_batch_settings(self.warmup, self.batches)
        _require_jobs_per_batch(self.jobs, self.batches)


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Execute a sweep and return its table rows, deterministically ordered."""
    cells = []
    bounds_rows = []
    for n in spec.n_list:
        config = resolve_config(spec.param_set, n)
        bounds_rows.append(_bounds_row(spec.param_set, config))
        for policy in spec.policies:
            for seed in spec.seeds:
                cells.append((spec.param_set, config, policy, seed,
                              spec.jobs, spec.warmup, spec.batches))
    if spec.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            sim_rows = list(pool.map(_sim_cell, cells))
    else:
        sim_rows = [_sim_cell(c) for c in cells]
    rows = bounds_rows + sim_rows
    rows.sort(key=lambda r: (r["n"], r["row_kind"], str(r.get("policy", "")),
                             r.get("seed", -1)))
    return rows


def write_csv(rows: list[dict], out, header_meta: str | None = None) -> None:
    if header_meta:
        out.write(f"# {header_meta}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_fmt(row.get(col)) for col in CSV_COLUMNS] for row in rows)


class _Main(click.Group):
    """The command group; a ``ConfigError`` raised under any command is a
    usage error (exit 2), and a ``MemoryError`` an error (exit 1), not a
    traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            raise click.UsageError(str(exc)) from exc
        except MemoryError as exc:
            detail = f": {exc}" if str(exc) else ""
            raise click.ClickException(f"out of memory{detail}") from exc


@click.group(cls=_Main)
def main():
    """Multiserver-job queueing laboratory."""


_param_set = click.option(
    "--param-set", default="one", show_default=True,
    help="one | two | path to a config file {n, types:[{lambda,mu,l}]}")

_shared = [
    _param_set,
    click.option("--warmup", default=WARMUP, show_default=True,
                 type=click.FloatRange(0, 1, max_open=True),
                 help="fraction of simulated time discarded"),
    click.option("--batches", default=BATCHES, show_default=True,
                 type=click.IntRange(min=2)),
]


def shared_options(fn):
    for opt in reversed(_shared):
        fn = opt(fn)
    return fn


@main.command()
@shared_options
@click.option("--n", type=int, default=None, help="server count (named sets)")
@click.option("--policy", default="fcfs", show_default=True,
              type=click.Choice([p.value for p in PolicyKind]))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=200_000,
              show_default=True)
@click.option("--out", type=click.File("w", lazy=False), default="-",
              help="JSON summary path; - is stdout")
@click.option("--dump-trajectory", type=click.File("w", lazy=False), default=None,
              help="write per-event state records to this path")
def run(param_set, warmup, batches, n, policy, seed, jobs, out, dump_trajectory):
    """Simulate one (policy, config, seed) cell and emit a JSON summary."""
    _require_jobs_per_batch(jobs, batches)
    config = resolve_config(param_set, n)
    stream = build_job_stream(seed, jobs, config)
    result = simulate(PolicyKind(policy), config, stream, warmup,
                      batches=batches, trajectory=dump_trajectory)
    summary = _summary(result, config)
    waits = zip(summary["wait_per_type"], summary["wait_hw_per_type"])
    doc = {
        "config": config.to_file_dict(),
        "policy": policy, "seed": seed, "jobs": jobs, "warmup": warmup,
        "batches": batches,
        "mean_wait": summary["mean_wait"],
        "mean_wait_hw": summary["mean_wait_hw"],
        "wait_per_type": {str(i + 1): {"mean": mean, "half_width": hw}
                          for i, (mean, hw) in enumerate(waits)
                          if mean is not None},
        "qprob": summary["qprob"], "workload": summary["workload"],
        "mean_x": summary["mean_x_per_type"],
        "mean_z": summary["mean_z_per_type"],
        "mean_q": summary["mean_q_per_type"],
        "audit": {"violations": summary["audit_violations"],
                  "worst_slack": summary["audit_worst_slack"]},
        "digest": result.digest(),
    }
    click.echo(_strict_json(doc), file=out)


@main.command()
@shared_options
@click.option("--n", "n_list", type=int, multiple=True,
              help="server count, repeatable; a config file's n by default")
@click.option("--policy", "policies", multiple=True,
              type=click.Choice([p.value for p in PolicyKind]),
              default=("fcfs", "snf", "snf-np"), show_default=True)
@click.option("--seed", "seeds", type=int, multiple=True, default=(0,),
              show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=2_000_000,
              show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--out", type=click.File("w", lazy=False), default="-",
              help="CSV output path; - is stdout")
def sweep(param_set, warmup, batches, n_list, policies, seeds, jobs, workers,
          out):
    """Run the full (n, policy, seed) grid and emit one CSV row per cell
    plus one bounds row per n."""
    n_list = n_list or (resolve_config(param_set, None).n,)
    spec = SweepSpec(param_set=param_set, n_list=tuple(n_list),
                     policies=tuple(policies), seeds=tuple(seeds), jobs=jobs,
                     warmup=warmup, batches=batches, workers=workers)
    rows = run_sweep(spec)
    meta = f"msjlab sweep generated {time.strftime('%Y-%m-%dT%H:%M:%S')}"
    write_csv(rows, out, header_meta=meta)


@main.command()
@_param_set
@click.option("--n", type=int, default=None)
@click.option("--out", type=click.File("w", lazy=False), default="-",
              help="JSON report path; - is stdout")
def bounds(param_set, n, out):
    """Evaluate every closed-form bound at a configuration (JSON)."""
    report = evaluate_bounds(resolve_config(param_set, n))
    click.echo(_strict_json(report.to_dict()), file=out)


def _report(outcomes) -> None:
    """Print one line per check and a ``k/m checks passed`` tally; exit 1 if
    any check failed."""
    for oc in outcomes:
        detail = f"  ({oc.detail})" if oc.detail else ""
        click.echo(f"[{'PASS' if oc.passed else 'FAIL'}] {oc.name}{detail}")
    passed = sum(oc.passed for oc in outcomes)
    click.echo(f"{passed}/{len(outcomes)} checks passed")
    if passed < len(outcomes):
        sys.exit(1)


@main.command()
@click.option("--suite", required=True, type=click.Choice(sorted(SUITES)))
def verify(suite):
    """Run a named invariant suite; nonzero exit on any failure."""
    _report(SUITES[suite]())


@main.command()
@_param_set
@click.option("--n", type=int, default=None, help="server count (named sets)")
@click.option("--seed", "seeds", type=int, multiple=True, default=(0,),
              show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=100_000,
              show_default=True)
def couple(param_set, n, seeds, jobs):
    """Coupled-path checks: waiting-time sandwich and infinite-server
    dominance on one shared stream per seed; nonzero exit if any fails."""
    _require_distinct(seeds=seeds)
    _report(suite_coupling(resolve_config(param_set, n), seeds, jobs))


if __name__ == "__main__":
    main()
