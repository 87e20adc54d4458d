"""Spans around msjlab's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces each traced function at every msjlab module
attribute that refers to it (so ``cli``'s imported ``simulate`` is traced as
well as ``sim.simulate``), routes ``msjlab.oracle.spla.spsolve`` through a
proxy, and ``uninstall`` puts the originals back.  Each wrapped call appends
one span ``[name, start, end, parent, attrs]`` to an in-memory list; spans are
written out only when the run ends.  ``layer_metrics`` turns the spans of
one unit of work into the per-layer metrics.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

import numpy as np

from msjlab import oracle, sim


def _jobs_arg0(args, kwargs, out):
    return {"jobs": len(args[0])}


def _jobs_stream(args, kwargs, out):
    return {"jobs": args[0].horizon}


def _snf_counts(args, kwargs, out):
    """Exact preemptions and resumes from the in-service step log.

    Every negative in-service step is a departure or a preemption, and every
    job departs once; every positive step is a first start or a resume.
    """
    jobs = args[0].horizon
    dz = out[2][2]
    return {"jobs": jobs,
            "preemptions": int(-dz[dz < 0].sum()) - jobs,
            "resumes": int(dz[dz > 0].sum()) - jobs}


def _sim_events(args, kwargs, out):
    return {"arrivals": int(out.num_jobs),
            "departures": int(np.isfinite(out.departures).sum())}


def _states(args, kwargs, out):
    return {"states": len(out.pi)}


# (module, attribute, span name, attrs from (args, kwargs, result))
TRACED = [
    ("stream", "build_job_stream", "stream.build_job_stream", None),
    ("engines", "hol_start_times", "engines.hol_start_times", _jobs_arg0),
    ("engines", "run_order_preserving", "engines.run_order_preserving", None),
    ("engines", "run_infinite_server", "engines.run_infinite_server", None),
    ("engines", "run_snf", "engines.run_snf", _snf_counts),
    ("engines", "run_snf_np", "engines.run_snf_np", _jobs_stream),
    ("engines", "collect_stats", "engines.collect_stats", None),
    ("sim", "simulate", "sim.simulate", _sim_events),
    ("sim", "simulate_coupled", "sim.simulate_coupled", None),
    ("sim", "check_sandwich", "sim.check_sandwich", None),
    ("sim", "check_infinite_server_dominance",
     "sim.check_infinite_server_dominance", None),
    ("stats", "mean_waiting_time", "stats.mean_waiting_time", None),
    ("stats", "queueing_probability", "stats.queueing_probability", None),
    ("stats", "workload", "stats.workload", None),
    ("bounds", "evaluate_bounds", "bounds.evaluate_bounds", None),
    ("cli", "run_sweep", "cli.run_sweep", None),
    ("cli", "_sim_cell", "cli.sweep_cell", None),
    ("cli", "write_csv", "cli.write_csv", None),
    ("oracle", "ctmc_stationary", "oracle.ctmc_stationary", _states),
    ("oracle", "erlang_c", "oracle.erlang_c", None),
]


class _SplaProxy:
    """``scipy.sparse.linalg`` as seen by msjlab.oracle, with spsolve traced."""

    def __init__(self, real, spsolve):
        self._real = real
        self.spsolve = spsolve

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out

        return traced

    def _swap(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "msjlab" or name.startswith("msjlab.")]
        for mod_name, attr, span_name, attrs in TRACED:
            orig = getattr(sys.modules[f"msjlab.{mod_name}"], attr)
            wrapped = self.wrap(span_name, orig, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._swap(mod, key, wrapped)
        self._swap(sim.SimResult, "digest",
                   self.wrap("sim.digest", sim.SimResult.digest))
        self._swap(oracle, "spla", _SplaProxy(
            oracle.spla, self.wrap("oracle.spsolve", oracle.spla.spsolve)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def untraced(name, fn):
    return fn


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one unit of work from its spans.

    ``.s`` sums span durations over calls; ``.self_s`` subtracts the time
    covered by direct child spans.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    self_t = list(dur)
    for k, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_t[parent] -= dur[k]
    by_name: dict[str, list[int]] = {}
    for k, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(k)

    def total(name, values=dur):
        return sum(values[k] for k in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(spans[k][4][key] for k in by_name.get(name, ()))

    def per_s(name, key="jobs"):
        s = total(name)
        return attr_sum(name, key) / s if s > 0 else 0.0

    cells = [dur[k] for k in by_name.get("cli.sweep_cell", ())]
    return {
        "stream.build_job_stream.s": total("stream.build_job_stream"),
        "engines.hol_start_times.s": total("engines.hol_start_times"),
        "engines.hol_start_times.jobs_per_s": per_s("engines.hol_start_times"),
        "engines.hol_start_times.calls": len(by_name.get("engines.hol_start_times", ())),
        "engines.run_snf.s": total("engines.run_snf"),
        "engines.run_snf.jobs_per_s": per_s("engines.run_snf"),
        "engines.run_snf.preemptions": attr_sum("engines.run_snf", "preemptions"),
        "engines.run_snf_np.s": total("engines.run_snf_np"),
        "engines.run_snf_np.jobs_per_s": per_s("engines.run_snf_np"),
        "engines.run_infinite_server.s": total("engines.run_infinite_server"),
        "engines.collect_stats.s": total("engines.collect_stats"),
        "engines.collect_stats.calls": len(by_name.get("engines.collect_stats", ())),
        "sim.simulate.self_s": total("sim.simulate", self_t),
        "sim.digest.s": total("sim.digest"),
        "sim.check_sandwich.s": total("sim.check_sandwich"),
        "sim.check_infinite_server_dominance.s":
            total("sim.check_infinite_server_dominance"),
        "sim.events": (attr_sum("sim.simulate", "arrivals")
                       + attr_sum("sim.simulate", "departures")
                       + attr_sum("engines.run_snf", "preemptions")
                       + attr_sum("engines.run_snf", "resumes")),
        "stats.estimate.s": (total("stats.mean_waiting_time")
                             + total("stats.queueing_probability")
                             + total("stats.workload")),
        "bounds.evaluate_bounds.s": total("bounds.evaluate_bounds"),
        "cli.run_sweep.self_s": total("cli.run_sweep", self_t),
        "cli.write_csv.s": total("cli.write_csv"),
        "cli.sweep_cell.s_p50": statistics.median(cells) if cells else 0.0,
        "cli.sweep_cell.s_max": max(cells, default=0.0),
        "oracle.ctmc_stationary.s": total("oracle.ctmc_stationary"),
        "oracle.ctmc_stationary.calls": len(by_name.get("oracle.ctmc_stationary", ())),
        "oracle.states": attr_sum("oracle.ctmc_stationary", "states"),
        "oracle.allocation.s": total("oracle.allocation"),
        "oracle.spsolve.s": total("oracle.spsolve"),
        "oracle.erlang_c.s": total("oracle.erlang_c"),
    }


COUNT_METRICS = ("engines.hol_start_times.calls", "engines.run_snf.preemptions",
                 "engines.collect_stats.calls", "sim.events",
                 "oracle.ctmc_stationary.calls", "oracle.states")


def self_time_total(spans: list[list]) -> float:
    """Sum of self times over all spans, which is the time root spans cover."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
