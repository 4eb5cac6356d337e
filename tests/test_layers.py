"""The benchmark's per-layer span recorder fits the package.

benchmark/spans.py wraps every function its LAYERS table names, by
module; a name that no longer resolves fails the traced benchmark run.
Its certificate counter reads bool(result.passed) off each
separability_certificate result, so a record shape it cannot read fails
there too.
"""

import importlib
import importlib.util
import math
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


def _plain_and_traced(argv, capsys):
    """Run cli.main(argv) in process, plain and then under SpanRecorder;
    assert identical output and return the recorder."""
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    recorder = _spans().SpanRecorder()
    with recorder:
        assert cli.main(argv) == 0
    assert capsys.readouterr() == plain
    return recorder


def test_recorder_counts_certificates_without_changing_output(capsys):
    recorder = _plain_and_traced(["thresholds", "--alpha", "4.5", "--gamma", "1"], capsys)
    assert recorder.counts["certificates"] > 0


def test_recorder_sees_every_one_sided_probe(capsys):
    # Four fixed claim probes, then one per sampled chunk.
    recorder = _plain_and_traced(["verify-lemmas", "--seed", "5", "--samples", "200"], capsys)
    assert recorder.summary()["family.one_sided_probe"][0] == 4 + math.ceil(200 / cli.STACK_CHUNK)


def test_recorder_reads_stacked_verdict_sweeps(capsys):
    # The stacked certificate runs inside classify, not through
    # separability_certificate, whose results the recorder reads one by one.
    _plain_and_traced(["sweep", "--quantity", "verdict", "--t-range", "0", "3", "301"], capsys)
