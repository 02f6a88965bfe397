"""The traced benchmark run wraps library functions by module and name
(`perfbench/tracing.py`); every name it lists must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_targets_resolve():
    if not TRACING.is_file():
        pytest.skip("perfbench/tracing.py is absent")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{fn}" for mod, fn, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(
                   f"bakerlab.{mod}"), fn, None))]
    assert tracing.TARGETS and not missing
