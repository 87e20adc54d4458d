"""msjlab benchmark: one workload per run, each in fresh processes.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # all three, one table

For each workload run this starts ``SETUP_SAMPLES`` set-up-only worker
processes and then the measuring worker, one at a time, and times each
set-up-only worker from process start to its ``ready`` line (``setup_s`` is
their median).  The measuring worker repeats the workload's unit of work for
``--seconds``; ``wall_s`` is the median unit time and ``peak_rss_mb`` that
worker's peak resident memory.  Both times are in reference-speed seconds
(see hostspeed.py).  With ``--trace 1`` the per-layer metrics are reported
instead.  The last line of standard output is one JSON object; the lines
before it give every metric by name and unit, ``fail_frac`` and the run's
environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def start_worker(workload, seed, seconds, trace, setup_only):
    """Start a worker; return it and the time from its start to ``ready``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker exited before set-up finished")
    return proc, setup_s


def finish_worker(proc, workload) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return out


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    load_before = os.getloadavg()
    setup, scaled_setup = [], []
    loop_after = hostspeed.loop_time()
    for _ in range(SETUP_SAMPLES):
        loop_before = loop_after
        proc, setup_s = start_worker(workload, seed, seconds, trace, True)
        finish_worker(proc, workload)
        loop_after = hostspeed.loop_time()
        setup.append(setup_s)
        scaled_setup.append(hostspeed.scaled(setup_s, loop_before, loop_after))
    proc, _ = start_worker(workload, seed, seconds, trace, False)
    worker = json.loads(finish_worker(proc, workload).splitlines()[-1])
    versions = worker.pop("versions")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_samples": setup, "scaled_setup_samples": scaled_setup, **worker,
        "env": {**versions, "git_sha": git_sha(),
                "nproc": len(os.sched_getaffinity(0)),
                "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
    }
    if trace:
        values = worker["layers"]
    else:
        values = {"wall_s": statistics.median(worker["scaled_walls"]),
                  "setup_s": statistics.median(scaled_setup),
                  "peak_rss_mb": worker["peak_rss_mb"]}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"{workload} metrics differ from BENCHMARK.json")
    record["metrics"] = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    return record


def report(record: dict) -> None:
    walls = record["traced_walls"] if record["trace"] else record["walls"]
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{len(walls)} units of work, {min(walls):.3f}-{max(walls):.3f} s each")
    for name, (value, unit) in record["metrics"].items():
        note = ""
        if name == "wall_s":
            note = (f"   median of {len(walls)} units at reference speed"
                    f" (raw median {statistics.median(walls):.4f} s)")
        elif name == "setup_s":
            note = (f"   median of {SETUP_SAMPLES} fresh processes at reference speed"
                    f" (raw median {statistics.median(record['setup_samples']):.4f} s)")
        print(f"  {name:<42} {value:>14.6g} {unit}{note}")
    frac = record["failed"] / record["attempted"]
    print(f"  {'fail_frac':<42} {frac:>14.6g} ratio   "
          f"{record['failed']} of {record['attempted']} output checks failed")
    for failure in record["failures"]:
        print(f"    FAILED: {failure}")
    print(f"  env {json.dumps(record['env'])}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "msjlab" / "__init__.py").is_file():
        print(f"no msjlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record)
    prefix = len(records) > 1
    metrics = {(f"{r['workload']}.{name}" if prefix else name):
               {"value": value, "unit": unit}
               for r in records for name, (value, unit) in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
