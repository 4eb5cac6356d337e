"""The benchmark's per-layer span recorder fits the package.

benchmark/spans.py wraps every function its LAYERS table names, by
module; a name that no longer resolves fails the traced benchmark run.
Its certificate counter reads bool(result.passed) off each
separability_certificate result, so a record shape it cannot read fails
there too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from dephaselab import cli

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize("module, name", [(m, fn) for m, fns in _spans().LAYERS.items() for fn in fns])
def test_layer_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"dephaselab.{module}"), name, None))


def test_recorder_counts_certificates_without_changing_output(capsys):
    argv = ["thresholds", "--alpha", "4.5", "--gamma", "1"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    recorder = _spans().SpanRecorder()
    with recorder:
        assert cli.main(argv) == 0
    assert capsys.readouterr() == plain
    assert recorder.counts["certificates"] > 0
