"""The benchmark's per-layer span names resolve in the package.

benchmark/spans.py wraps every function its LAYERS table names, by
module; a name that no longer resolves fails the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


@pytest.mark.parametrize("module, name", [(m, fn) for m, fns in _layers().items() for fn in fns])
def test_layer_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"dephaselab.{module}"), name, None))
