"""One workload run in a fresh process; started by run.py, not by hand.

Prints ``ready`` once the interpreter, ``msjlab``, ``msjlab.cli`` and the
workload's configs are loaded (run.py times process start to this line as
``setup_s``), then repeats the workload's unit of work until ``--seconds``
have passed and prints one JSON line with the unit times, output checks,
peak RSS and, with ``--trace 1``, the per-layer metrics.

With ``--trace 1`` untraced and traced units alternate in the same process,
so ``tracing.overhead_s`` compares like with like and the traced outputs
can be checked against the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_UNITS = 3  # per mode (untraced, traced), even if --seconds runs out first
# The self times of a traced unit must add up to its wall time within the
# tracing overhead, or within this share of the wall time if that is larger:
# the gap is the benchmark's own glue between calls.
SELF_TIME_SLACK = 0.01


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import msjlab
    import msjlab.cli  # noqa: F401  (click and scipy.stats load here)
    if Path(msjlab.__file__).resolve().parent != ROOT / "src" / "msjlab":
        print(f"msjlab imported from {msjlab.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import numpy
    import scipy

    import hostspeed
    import tracing
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    state = setup(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    check = workloads.Checks()
    walls: list[float] = []
    scaled_walls: list[float] = []
    outputs: list[str] = []
    traced_walls: list[float] = []
    traced_scaled_walls: list[float] = []
    traced_outputs: list[str] = []
    traced_spans: list[list] = []
    deadline = time.perf_counter() + args.seconds
    unit = 0
    loop_after = hostspeed.loop_time()
    while (time.perf_counter() < deadline or len(walls) < MIN_UNITS
           or (args.trace and len(traced_walls) < MIN_UNITS)):
        tracer = tracing.Tracer() if args.trace and unit % 2 else None
        if tracer is not None:
            tracer.install()
        loop_before = loop_after
        t0 = time.perf_counter()
        try:
            out = run(state, check, tracer.wrap if tracer else tracing.untraced)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        loop_after = hostspeed.loop_time()
        scaled = hostspeed.scaled(wall, loop_before, loop_after)
        if tracer is None:
            walls.append(wall)
            scaled_walls.append(scaled)
            outputs.append(out)
        else:
            traced_walls.append(wall)
            traced_scaled_walls.append(scaled)
            traced_outputs.append(out)
            traced_spans.append(tracer.spans)
        unit += 1

    check(f"{args.workload}: every unit gives identical outputs", len(set(outputs)) == 1)
    result = {
        "walls": walls,
        "scaled_walls": scaled_walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "msjlab": msjlab.__version__},
    }
    if args.trace:
        check(f"{args.workload}: traced outputs equal untraced outputs",
              set(traced_outputs) == set(outputs))
        overhead = (statistics.median(traced_scaled_walls)
                    - statistics.median(scaled_walls))
        per_unit = [tracing.layer_metrics(spans) for spans in traced_spans]
        for name in tracing.COUNT_METRICS:
            check(f"{args.workload}: {name} repeats exactly",
                  len({m[name] for m in per_unit}) == 1)
        gaps = [wall - tracing.self_time_total(spans)
                for wall, spans in zip(traced_walls, traced_spans)]
        check(f"{args.workload}: self times sum to traced wall_s",
              max(abs(g) for g in gaps)
              <= max(abs(overhead), SELF_TIME_SLACK * statistics.median(traced_walls)))
        layers = {name: (per_unit[0][name] if name in tracing.COUNT_METRICS
                         else statistics.median(m[name] for m in per_unit))
                  for name in per_unit[0]}
        layers["tracing.overhead_s"] = overhead
        result.update(traced_walls=traced_walls, layers=layers, self_time_gaps=gaps)
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(traced_spans, separators=(",", ":")))
    result.update(attempted=check.attempted, failed=check.failed,
                  failures=check.failures)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
