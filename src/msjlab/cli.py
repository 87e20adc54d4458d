"""Experiment harness CLI: single runs, parameter sweeps, bound reports,
invariant suites and coupled-path checks.

Every option can also be set through an environment variable named
``MSJLAB_<COMMAND>_<OPTION>`` (click's auto-envvar convention), e.g.
``MSJLAB_SWEEP_JOBS=500000``.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from . import stats
from .bounds import evaluate_bounds
from .model import (ConfigError, ParamSet, SystemConfig, derive_params,
                    make_param_set)
from .policies import PolicyKind
from .sim import build_job_stream, check_couplings, simulate
from .verify import SUITES, run_suite

LARGE_N = 4096  # larger sweeps are compute-heavy and need an explicit opt-in

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
    path to a config file ``{n, types: [{lambda, mu, l}]}``.  An invalid
    configuration is a usage error."""
    try:
        if param_set.lower() in ("one", "two"):
            if n is None:
                raise click.UsageError("--n is required with a named parameter set")
            return make_param_set(ParamSet(param_set.lower()), n)
        path = Path(param_set)
        if not path.exists():
            raise click.UsageError(
                f"--param-set {param_set!r} is neither one/two nor a file")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {param_set!r} is not valid JSON: {exc}") from exc
        return SystemConfig.from_file_dict(doc)
    except ConfigError as exc:
        raise click.UsageError(str(exc)) from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple, np.ndarray)):
        return ";".join(_fmt(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _sim_cell(args):
    """One sweep cell; module-level so worker processes can pickle it."""
    (param_set, config_doc, n, policy, seed, jobs, warmup, batches) = args
    base = {
        "row_kind": "sim", "param_set": param_set, "n": n, "policy": policy,
        "seed": seed, "jobs": jobs, "warmup": warmup, "batches": batches,
    }
    try:
        config = SystemConfig.from_file_dict(config_doc)
        p = derive_params(config)
        stream = build_job_stream(seed, jobs, config)
        result = simulate(PolicyKind(policy), config, stream, warmup,
                          batches=batches)
        waits = stats.mean_waiting_time(result, config)
        qp = stats.queueing_probability(result)
        wl = stats.workload(result)
        per_type = [waits["per_type"].get(i) for i in range(config.num_types)]
        base.update({
            "mean_wait": waits["overall"].mean,
            "mean_wait_hw": waits["overall"].half_width,
            "wait_per_type": [e.mean if e else None for e in per_type],
            "wait_hw_per_type": [e.half_width if e else None for e in per_type],
            "qprob": qp.mean, "qprob_hw": qp.half_width,
            "workload": wl.mean, "workload_hw": wl.half_width,
            "mean_x_per_type": [float(v) for v in result.mean_x],
            "mean_z_per_type": [float(v) for v in result.mean_z],
            "mean_q_per_type": [float(v) for v in result.mean_q],
            "audit_violations": result.audit.violations,
            "audit_worst_slack": result.audit.worst_slack,
            "event_count": result.event_count,
            "delta": p.delta, "sigma2": p.sigma2, "l_max": p.l_max,
        })
    except Exception as exc:  # per-cell failures stay in-row
        base["error"] = f"{type(exc).__name__}: {exc}"
    return base


def _bounds_row(param_set, config: SystemConfig):
    base = {"row_kind": "bounds", "param_set": param_set, "n": config.n}
    try:
        p = derive_params(config)
        report = evaluate_bounds(config)
        base.update({
            "delta": p.delta, "sigma2": p.sigma2, "l_max": p.l_max,
            "workload_lower": report.workload_lower,
            "workload_upper": report.workload_upper,
            "fcfs_wait_lower": report.fcfs_wait_lower,
            "fcfs_wait_upper": report.fcfs_wait_upper,
            "universal_lower": report.universal_lower,
            "snf_upper": report.snf_upper,
            "qp_exponent": report.qp_exponent,
        })
    except Exception as exc:
        base["error"] = f"{type(exc).__name__}: {exc}"
    return base


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep: one simulation per (n, policy, seed) plus one bounds
    row per n."""

    param_set: str
    n_list: tuple[int, ...]
    policies: tuple[str, ...]
    seeds: tuple[int, ...]
    jobs: int
    warmup: float = 0.1
    batches: int = 20
    workers: int = 1

    def __post_init__(self):
        if not self.n_list or not self.policies or not self.seeds:
            raise ValueError("n_list, policies and seeds must be nonempty")
        if self.jobs < 20 * self.batches:
            raise ValueError(
                f"jobs {self.jobs} below 20 * batches = {20 * self.batches}")


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Execute a sweep and return its table rows, deterministically ordered."""
    cells = []
    bounds_rows = []
    for n in spec.n_list:
        config = resolve_config(spec.param_set, n)
        doc = config.to_file_dict()
        bounds_rows.append(_bounds_row(spec.param_set, config))
        for policy in spec.policies:
            for seed in spec.seeds:
                cells.append((spec.param_set, doc, config.n, policy, seed,
                              spec.jobs, spec.warmup, spec.batches))
    if spec.workers > 1:
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
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        out.write(",".join(_fmt(row.get(col)) for col in CSV_COLUMNS) + "\n")


@click.group(context_settings={"auto_envvar_prefix": "MSJLAB"})
def main():
    """Multiserver-job queueing laboratory."""


_shared = [
    click.option("--param-set", default="one", show_default=True,
                 help="one | two | path to a config file {n, types:[{lambda,mu,l}]}"),
    click.option("--warmup", default=0.1, show_default=True,
                 type=click.FloatRange(0, 1, max_open=True),
                 help="fraction of simulated time discarded"),
    click.option("--batches", default=20, show_default=True,
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
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="write the JSON summary here instead of stdout")
@click.option("--dump-trajectory", type=click.Path(dir_okay=False), default=None,
              help="write per-event state records here")
def run(param_set, warmup, batches, n, policy, seed, jobs, out, dump_trajectory):
    """Simulate one (policy, config, seed) cell and emit a JSON summary."""
    config = resolve_config(param_set, n)
    stream = build_job_stream(seed, jobs, config)
    result = simulate(PolicyKind(policy), config, stream, warmup,
                      batches=batches, trajectory_path=dump_trajectory)
    waits = stats.mean_waiting_time(result, config)
    doc = {
        "config": config.to_file_dict(),
        "policy": policy, "seed": seed, "jobs": jobs, "warmup": warmup,
        "batches": batches,
        "mean_wait": waits["overall"].mean,
        "mean_wait_hw": waits["overall"].half_width,
        "wait_per_type": {
            str(i + 1): {"mean": e.mean, "half_width": e.half_width}
            for i, e in waits["per_type"].items()},
        "qprob": stats.queueing_probability(result).mean,
        "workload": stats.workload(result).mean,
        "mean_x": list(result.mean_x), "mean_z": list(result.mean_z),
        "mean_q": list(result.mean_q),
        "audit": {"violations": result.audit.violations,
                  "worst_slack": result.audit.worst_slack},
        "digest": result.digest(),
    }
    text = json.dumps(doc, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        click.echo(text)


@main.command()
@shared_options
@click.option("--n", "n_list", type=int, multiple=True, required=True)
@click.option("--policy", "policies", multiple=True,
              type=click.Choice([p.value for p in PolicyKind]),
              default=("fcfs", "snf", "snf-np"), show_default=True)
@click.option("--seed", "seeds", type=int, multiple=True, default=(0,),
              show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=2_000_000,
              show_default=True)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--allow-large", is_flag=True,
              help=f"permit n > {LARGE_N} (compute-heavy)")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="CSV output path (default stdout)")
def sweep(param_set, warmup, batches, n_list, policies, seeds, jobs, workers,
          allow_large, out):
    """Run the full (n, policy, seed) grid and emit one CSV row per cell
    plus one bounds row per n."""
    if any(n > LARGE_N for n in n_list) and not allow_large:
        raise click.UsageError(
            f"n > {LARGE_N} requires --allow-large (long runtimes)")
    try:
        spec = SweepSpec(param_set=param_set, n_list=tuple(n_list),
                         policies=tuple(policies), seeds=tuple(seeds), jobs=jobs,
                         warmup=warmup, batches=batches, workers=workers)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    rows = run_sweep(spec)
    meta = f"msjlab sweep generated {time.strftime('%Y-%m-%dT%H:%M:%S')}"
    if out:
        with open(out, "w") as fh:
            write_csv(rows, fh, header_meta=meta)
    else:
        write_csv(rows, sys.stdout, header_meta=meta)


@main.command()
@click.option("--param-set", default="one", show_default=True)
@click.option("--n", type=int, default=None)
@click.option("--delta-prime", type=float, default=None,
              help="work-conservation slack (default: maximal need)")
@click.option("--epsilon0", type=float, default=0.9, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def bounds(param_set, n, delta_prime, epsilon0, out):
    """Evaluate every closed-form bound at a configuration (JSON)."""
    config = resolve_config(param_set, n)
    report = evaluate_bounds(config, delta_prime, epsilon0)
    text = json.dumps(report.to_dict(), indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        click.echo(text)


@main.command()
@click.option("--suite", required=True, type=click.Choice(sorted(SUITES)))
def verify(suite):
    """Run a named invariant suite; nonzero exit on any failure."""
    outcomes = run_suite(suite)
    failed = 0
    for oc in outcomes:
        mark = "PASS" if oc.passed else "FAIL"
        detail = f"  ({oc.detail})" if oc.detail else ""
        click.echo(f"[{mark}] {oc.name}{detail}")
        failed += not oc.passed
    click.echo(f"{len(outcomes) - failed}/{len(outcomes)} checks passed")
    if failed:
        sys.exit(1)


@main.command()
@shared_options
@click.option("--n", type=int, default=64, show_default=True)
@click.option("--seed", "seeds", type=int, multiple=True, default=(0,),
              show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=100_000,
              show_default=True)
def couple(param_set, warmup, batches, n, seeds, jobs):
    """Coupled-path checks: waiting-time sandwich and infinite-server
    dominance on one shared stream per seed; nonzero exit if any fails."""
    config = resolve_config(param_set, n)
    all_ok = True
    for seed in seeds:
        stream = build_job_stream(seed, jobs, config)
        sandwich_ok, dominance_ok = check_couplings(config, stream, warmup,
                                                    batches=batches)
        click.echo(f"[{'PASS' if sandwich_ok else 'FAIL'}] waiting-time sandwich "
                   f"(n={config.n}, jobs={jobs}, seed={seed})")
        click.echo(f"[{'PASS' if dominance_ok else 'FAIL'}] infinite-server dominance")
        all_ok &= sandwich_ok and dominance_ok
    if not all_ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
