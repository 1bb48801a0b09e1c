"""Every function the benchmark's tracer wraps still exists in jamsim.

perfbench's tracer skips a target it cannot find, so a renamed or deleted
function would silently leave its per-layer span at zero calls.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
#: (defining module, function, span name, sample counter) per traced function.
TARGETS = runpy.run_path(str(TRACING), run_name="perfbench_tracing")["TARGETS"]


@pytest.mark.parametrize("module,function", [t[:2] for t in TARGETS], ids=[t[2] for t in TARGETS])
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))
