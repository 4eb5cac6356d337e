"""Self-test of the benchmark.

    python -m pytest -q benchmark/selftest.py

Tiny-size runs of every workload must report every metric named in
BENCHMARK.json with zero failed operations; a deliberately wrong oracle
value must be counted as a failed operation; the oracles must agree
with the library's own closed forms; and outside a dephaselab checkout
the entry point must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    result, record = bench.measure(workload, seed=7, seconds=0.0, trace=trace, size=workloads.TINY)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    assert record["passes"] == 1


def test_wrong_oracle_value_counts_as_failure(monkeypatch):
    exact = oracles.realignment_closed_form
    monkeypatch.setattr(oracles, "realignment_closed_form", lambda a, g, t: exact(a, g, t) + 1e-6)
    result, _ = bench.measure("grid-sweep", seed=7, seconds=0.0, trace=False, size=workloads.TINY)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]


def test_oracles_agree_with_library_closed_forms():
    sys.path.insert(0, str(bench.SRC))
    from dephaselab import family

    for alpha, gamma, t in ((4.5, 1.0, 0.3), (4.2, 0.7, 1.9), (3.5, 1.3, 0.1)):
        assert oracles.realignment_closed_form(alpha, gamma, t) == pytest.approx(
            family.realignment_closed_form(alpha, gamma, t), abs=1e-15)
        assert oracles.certificate_onset_time(alpha, gamma) == pytest.approx(
            family.certificate_onset_time(alpha, gamma), abs=1e-15)
        assert abs(oracles.realignment_excess(oracles.evolve(oracles.family_state(alpha), gamma, gamma, t))
                   - oracles.realignment_closed_form(alpha, gamma, t)) < 1e-12
        assert np.max(np.abs(oracles.family_state(alpha) - family.initial_state(alpha).mat)) < 1e-15
        assert np.max(np.abs(oracles.swapped_state(alpha) - family.swapped_state(alpha).mat)) < 1e-15
    assert oracles.ppt_onset_time(4.5, 1.0) == family.ppt_onset_time(4.5, 1.0)
    assert oracles.ppt_onset_time(4.0, 1.0) is None
    assert math.isinf(oracles.ppt_onset_time(5.0, 1.0))


def test_outside_checkout_exits_nonzero_without_result():
    bare = bench.WORK / f"bare-{os.getpid()}"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "grid-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
