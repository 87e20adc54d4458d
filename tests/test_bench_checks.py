"""The benchmark's own output checks, run on one unit of each workload.

``perfbench/worker.py`` repeats each workload's unit of work untraced and
under ``perfbench/tracing.py``'s ``Tracer``. It counts the output checks that
fail (the golden sweep CSV sha256, the ``couple`` digests, the oracle
``mean_q`` and the per-row checks), requires the traced outputs to equal the
untraced ones and every count metric to repeat exactly, and ``run.py``
requires the per-layer metrics to be the ones ``BENCHMARK.json`` declares.
This test does the same at seed 0 for one untraced and two traced units, so
a change that would fail a benchmark check fails here first. It reads the
perfbench files by path and changes nothing in them.

The timing check, that the self times of a traced unit sum to its wall time,
is left to the benchmark: it needs many units on a quiet host.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from msjlab import verify

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")

# metrics that read 0 if the tracer no longer reaches the calls they time
REACHED = {"sweep": ("stats.estimate.s", "bounds.evaluate_bounds.s",
                     "cli.sweep_cell.s_p50")}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_pass_traced_and_untraced(name):
    setup, run = workloads.WORKLOADS[name]
    state = setup(workloads.DEFAULT_SEED)
    check = workloads.Checks()
    untraced = run(state, check, tracing.untraced)
    traced, metrics = [], []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(run(state, check, tracer.wrap))
        finally:
            tracer.uninstall()
        metrics.append(tracing.layer_metrics(tracer.spans))

    assert check.attempted > 0
    assert check.failed == 0, check.failures
    assert traced == [untraced, untraced]
    for key in tracing.COUNT_METRICS:
        assert metrics[0][key] == metrics[1][key], key
    for key in REACHED.get(name, ()):
        assert metrics[0][key] > 0, key
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {*metrics[0], "tracing.overhead_s"} == {m["name"] for m in declared}


def test_benchmark_builds_the_reference_configs(box_spec):
    # perfbench keeps its own copies of these configs; a drifted copy would
    # time a chain the tests no longer check
    state = workloads.setup_oracle(workloads.DEFAULT_SEED)
    assert state["two_type"] == verify.TWO_TYPE
    assert state["box"] == box_spec.config
    assert workloads.BOX_CAP == box_spec.cap
