"""The names the benchmark's span tracer (``perfbench/tracing.py``) wraps.

The tracer skips a name pdflow no longer has, so that span silently reads
0; this test makes a renamed or deleted function fail here instead.
"""

import importlib
import runpy
from pathlib import Path

from pdflow.sets import SimpleSet

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_wrapped_names_resolve_in_pdflow():
    tracing = runpy.run_path(str(TRACING))  # executed, not imported: no bytecode written
    functions = [
        (module, name)
        for module, name, _ in tracing["FUNCTION_SPANS"] + tracing["COUNTED_FUNCTIONS"]
    ] + [("flow", "_make_recorder")]
    missing = {
        (module, name)
        for module, name in functions
        if not callable(getattr(importlib.import_module(f"pdflow.{module}"), name, None))
    }
    assert not missing, sorted(missing)
    for method in tracing["SET_METHOD_SPANS"]:
        assert callable(getattr(SimpleSet, method, None)), method
