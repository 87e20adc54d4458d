"""Every function the benchmark tracer wraps must exist in msjlab.

``perfbench/tracing.py`` replaces msjlab functions by module and attribute
name; a rename or deletion in msjlab would make ``perfbench/run.py --trace 1``
fail at install time.  This test reads that list and changes nothing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.TRACED]


@pytest.mark.parametrize("module,attr", _traced())
def test_traced_attribute_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"msjlab.{module}"), attr))


def test_traced_method_and_solver_exist():
    from msjlab import oracle, sim
    assert callable(sim.SimResult.digest)
    assert callable(oracle.spla.spsolve)
