"""End-to-end tests of the command line: formats, exit codes, determinism."""

import csv
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import GOLDEN_DIR, child_env, run_cli, sweep_by_points
from dephaselab import cli
from dephaselab.channels import NoiseParams, apply_channel, kraus_ground_excited
from dephaselab.family import FamilyParams, certificate_blocks, evolved_closed_form, initial_state, swapped_state
from dephaselab.qstate import Dims, random_state, state_from_json, state_to_json


def read_csv(stdout: bytes):
    text = stdout.decode()
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestEvolve:
    def test_rho_matches_closed_form(self):
        result = run_cli("evolve", "--alpha", "4.5", "--t", "1.0")
        assert result.returncode == 0
        state = state_from_json(result.stdout.decode())
        expected = evolved_closed_form(FamilyParams(4.5, NoiseParams(1.0, 1.0, 1.0)))
        assert np.max(np.abs(state.mat - expected.mat)) < 1e-12

    def test_rho_prime_matches_kraus_path(self):
        result = run_cli("evolve", "--initial", "rho-prime", "--t", "0.7")
        assert result.returncode == 0
        state = state_from_json(result.stdout.decode())
        expected = apply_channel(
            swapped_state(4.5), kraus_ground_excited(NoiseParams(1.0, 1.0, 0.7))
        )
        assert np.max(np.abs(state.mat - expected.mat)) < 1e-12

    def test_asymmetric_rates(self):
        result = run_cli("evolve", "--gamma-a", "0.6", "--gamma-b", "1.3", "--t", "0.9")
        assert result.returncode == 0
        state = state_from_json(result.stdout.decode())
        expected = evolved_closed_form(FamilyParams(4.5, NoiseParams(0.6, 1.3, 0.9)))
        assert np.max(np.abs(state.mat - expected.mat)) < 1e-12

    def test_state_file_input(self, tmp_path):
        source = evolved_closed_form(FamilyParams(4.2, NoiseParams(1.0, 1.0, 0.0)))
        path = tmp_path / "state.json"
        path.write_text(state_to_json(source))
        result = run_cli("evolve", "--initial", str(path), "--t", "0.5")
        assert result.returncode == 0
        state = state_from_json(result.stdout.decode())
        expected = apply_channel(source, kraus_ground_excited(NoiseParams(1.0, 1.0, 0.5)))
        assert np.max(np.abs(state.mat - expected.mat)) < 1e-12


class TestClassify:
    @pytest.mark.parametrize(
        "t,verdict",
        [("0.3", "NptFreeEntangled"), ("0.7", "PptBoundEntangled"), ("2.0", "SeparableCertified")],
    )
    def test_phase_ladder_with_certificate(self, t, verdict):
        result = run_cli("classify", "--t", t, "--certificate", "three-block")
        assert result.returncode == 0
        lines = result.stdout.decode().splitlines()
        assert lines[0] == verdict

    def test_undetermined_window(self):
        result = run_cli("classify", "--t", "1.1", "--certificate", "three-block")
        assert result.returncode == 0
        lines = result.stdout.decode().splitlines()
        assert lines[0] == "PptUndetermined"
        metrics = json.loads(lines[1])
        assert metrics["certificate_passed"] is False
        assert metrics["min_pt_eigenvalue"] > -1e-10
        assert metrics["realignment_excess"] <= 1e-10

    def test_metrics_json_shape(self):
        result = run_cli("classify", "--t", "0.3")
        lines = result.stdout.decode().splitlines()
        metrics = json.loads(lines[1])
        assert set(metrics) == {
            "verdict",
            "min_pt_eigenvalue",
            "realignment_excess",
            "certificate_passed",
        }
        assert metrics["verdict"] == lines[0]
        assert metrics["certificate_passed"] is None

    def test_swapped_family_never_loses_distillability(self):
        result = run_cli("classify", "--initial", "rho-prime", "--t", "5.0")
        assert result.stdout.decode().splitlines()[0] == "NptFreeEntangled"


class TestSweep:
    def test_pt_min_eig_csv(self):
        result = run_cli("sweep", "--quantity", "pt-min-eig", "--t-range", "0", "1", "5")
        assert result.returncode == 0
        header, rows = read_csv(result.stdout)
        assert header == ["t", "gamma", "value"]
        assert len(rows) == 5
        ts = [float(r[0]) for r in rows]
        assert np.max(np.abs(np.array(ts) - np.linspace(0, 1, 5))) < 1e-10
        assert all(float(r[1]) == 1.0 for r in rows)

    def test_lf_line_endings(self):
        result = run_cli("sweep", "--quantity", "realignment", "--t-range", "0", "1", "3")
        assert b"\r" not in result.stdout
        assert result.stdout.endswith(b"\n")

    def test_values_round_trip_against_library(self):
        result = run_cli("sweep", "--quantity", "realignment", "--t-range", "0", "2", "9")
        _, rows = read_csv(result.stdout)
        from dephaselab.criteria import realignment_excess

        for row in rows:
            t = float(row[0])
            expected = realignment_excess(
                evolved_closed_form(FamilyParams(4.5, NoiseParams(1.0, 1.0, t)))
            )
            assert abs(float(row[2]) - expected) < 1e-10

    def test_gamma_range_grid_ordering(self):
        result = run_cli(
            "sweep",
            "--quantity",
            "pt-min-eig",
            "--t-range",
            "0",
            "1",
            "3",
            "--gamma-range",
            "0.5",
            "1.0",
            "2",
        )
        _, rows = read_csv(result.stdout)
        assert [(float(r[0]), float(r[1])) for r in rows] == [
            (0.0, 0.5),
            (0.0, 1.0),
            (0.5, 0.5),
            (0.5, 1.0),
            (1.0, 0.5),
            (1.0, 1.0),
        ]

    def test_fidelity_columns(self):
        result = run_cli("sweep", "--quantity", "fidelity", "--t-range", "0", "2", "5")
        header, rows = read_csv(result.stdout)
        assert header == ["t", "gamma", "f_rho", "f_rho_prime"]
        for row in rows:
            assert float(row[3]) >= float(row[2])

    def test_verdict_sweep_covers_all_phases(self):
        result = run_cli("sweep", "--quantity", "verdict", "--t-range", "0", "2", "21")
        _, rows = read_csv(result.stdout)
        seen = [r[2] for r in rows]
        for verdict in (
            "NptFreeEntangled",
            "PptBoundEntangled",
            "PptUndetermined",
            "SeparableCertified",
        ):
            assert verdict in seen
        boundary = [seen[i] != seen[i + 1] for i in range(len(seen) - 1)]
        assert sum(boundary) == 3

    def test_default_time_window(self):
        result = run_cli("sweep", "--quantity", "pt-min-eig")
        _, rows = read_csv(result.stdout)
        assert len(rows) == 121
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 3.0

    def test_file_initial_state(self, tmp_path):
        path = tmp_path / "swapped.json"
        path.write_text(state_to_json(swapped_state(4.5)))
        result = run_cli(
            "sweep", "--quantity", "pt-min-eig", "--initial", str(path), "--t-range", "0", "1", "3"
        )
        assert result.returncode == 0
        _, rows = read_csv(result.stdout)
        assert all(float(r[2]) < -1e-4 for r in rows)

    @pytest.mark.parametrize("quantity", ["verdict", "pt-min-eig", "realignment"])
    @pytest.mark.parametrize("initial", ["rho", "rho-prime", "file"])
    def test_chunked_sweep_matches_pointwise_oracle(self, quantity, initial, tmp_path, capsys):
        if initial == "file":
            path = tmp_path / "state.json"
            path.write_text(state_to_json(random_state(np.random.default_rng(5), Dims(3, 3))))
            initial, base = str(path), state_from_json(path.read_text())
        else:
            base = initial_state(4.3) if initial == "rho" else swapped_state(4.3)
        blocks = certificate_blocks() if initial == "rho" else None
        # One t grid crossing two chunk boundaries, one t x gamma grid
        # crossing one; neither is a multiple of the chunk size.
        n_t, n_tg = 2 * cli.SWEEP_CHUNK + 5, cli.SWEEP_CHUNK // 7 + 5
        grids = (
            (["--t-range", "0", "4", str(n_t)], np.linspace(0.0, 4.0, n_t), np.array([1.0])),
            (
                ["--t-range", "0", "4", str(n_tg), "--gamma-range", "0.2", "2.2", "7"],
                np.linspace(0.0, 4.0, n_tg),
                np.linspace(0.2, 2.2, 7),
            ),
        )
        for flags, ts, gammas in grids:
            argv = ["sweep", "--quantity", quantity, "--initial", initial, "--alpha", "4.3", *flags]
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == sweep_by_points(quantity, base, blocks, ts, gammas)

    def test_conflicting_gamma_flags_is_usage_error(self):
        result = run_cli(
            "sweep", "--quantity", "verdict", "--gamma", "1", "--gamma-range", "0.1", "2", "5"
        )
        assert result.returncode == 2
        assert result.stdout == b""
        assert b"error" in result.stderr.lower()

    @pytest.mark.parametrize(
        "t_range",
        [("1", "0", "5"), ("0", "1", "1"), ("0", "1", "2.5"), ("-1", "1", "5")],
    )
    def test_malformed_ranges_are_usage_errors(self, t_range):
        result = run_cli("sweep", "--quantity", "verdict", "--t-range", *t_range)
        assert result.returncode == 2


class TestThresholds:
    def test_golden_report_default_family(self):
        result = run_cli("thresholds", "--alpha", "4.5", "--gamma", "1")
        assert result.returncode == 0
        assert result.stdout == (GOLDEN_DIR / "thresholds_alpha45_gamma1.json").read_bytes()

    def test_golden_report_boundary_alpha(self):
        result = run_cli("thresholds", "--alpha", "5", "--gamma", "0.7")
        assert result.returncode == 0
        assert result.stdout == (GOLDEN_DIR / "thresholds_alpha5_gamma07.json").read_bytes()

    def test_report_invariants(self):
        for alpha, gamma in (("4.5", "1"), ("4.9", "1"), ("4.3", "0.7")):
            result = run_cli("thresholds", "--alpha", alpha, "--gamma", gamma)
            doc = json.loads(result.stdout.decode())
            assert abs(doc["t_d_analytic"] - doc["t_d_numeric"]) < 1e-6
            assert doc["certificate_onset"] >= doc["t_d_numeric"] - 1e-9

    def test_bound_window_ordering_at_reference_point(self):
        doc = json.loads(run_cli("thresholds", "--alpha", "4.5", "--gamma", "1").stdout.decode())
        assert doc["t_d_numeric"] < doc["realignment_zero"] < doc["certificate_onset"]

    def test_infinite_fields_encoded_as_strings(self):
        result = run_cli("thresholds", "--alpha", "5", "--gamma", "1")
        doc = json.loads(result.stdout.decode())
        assert doc["t_d_analytic"] == "inf"
        assert doc["t_d_numeric"] == "inf"
        assert doc["certificate_onset"] == "inf"
        assert isinstance(doc["realignment_zero"], float)

    def test_ppt_from_start_reports_null_onset(self):
        result = run_cli("thresholds", "--alpha", "3.9", "--gamma", "1")
        assert result.returncode == 0
        doc = json.loads(result.stdout.decode())
        assert doc["t_d_analytic"] is None
        assert doc["t_d_numeric"] is None
        assert abs(doc["certificate_onset"] - 2.0 * math.log(2.0)) < 1e-6
        assert doc["realignment_zero"] > 0


class TestVerifyLemmas:
    def test_all_checks_pass(self):
        result = run_cli("verify-lemmas", "--samples", "50")
        assert result.returncode == 0
        out = result.stdout.decode()
        assert "[FAIL]" not in out
        match = re.search(r"^(\d+)/(\d+) checks passed$", out.splitlines()[-1])
        assert match and match.group(1) == match.group(2)

    def test_zero_samples_still_runs_family_checks(self):
        result = run_cli("verify-lemmas", "--samples", "0")
        assert result.returncode == 0
        out = result.stdout.decode()
        assert "(0 samples)" in out
        assert "[FAIL]" not in out

    def test_injected_fault_fails_loudly(self):
        result = run_cli("verify-lemmas", "--samples", "0", "--inject-fault")
        assert result.returncode == 1
        out = result.stdout.decode()
        assert "[FAIL]" in out
        match = re.search(r"^(\d+)/(\d+) checks passed$", out.splitlines()[-1])
        assert match and int(match.group(1)) == int(match.group(2)) - 1

    def test_seed_changes_keep_passing(self):
        for seed in ("1", "7", "123"):
            assert run_cli("verify-lemmas", "--seed", seed, "--samples", "20").returncode == 0


class TestDeterminism:
    def test_sweep_reruns_are_byte_identical(self):
        args = ("sweep", "--quantity", "verdict", "--t-range", "0", "2", "11")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_thresholds_reruns_are_byte_identical(self):
        args = ("thresholds", "--alpha", "4.7", "--gamma", "1.3")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_verify_lemmas_reruns_are_byte_identical(self):
        args = ("verify-lemmas", "--seed", "42", "--samples", "25")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestExitCodes:
    def test_usage_errors_exit_two(self, tmp_path):
        assert run_cli("evolve").returncode == 2
        assert run_cli("nonsense").returncode == 2
        assert run_cli("sweep", "--quantity", "bogus", "--t", "1").returncode == 2
        assert run_cli("evolve", "--t", "-1").returncode == 2
        assert run_cli("evolve", "--initial", str(tmp_path / "missing.json"), "--t", "1").returncode == 2
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert run_cli("evolve", "--initial", str(bad), "--t", "1").returncode == 2
        short = tmp_path / "short.json"
        short.write_text(json.dumps({"da": 3, "db": 3, "mat": [[1.0, 0.0]] * 4}))
        assert run_cli("evolve", "--initial", str(short), "--t", "1").returncode == 2

    def test_content_errors_exit_three(self, tmp_path):
        assert run_cli("evolve", "--alpha", "5.5", "--t", "1").returncode == 3
        assert run_cli("classify", "--alpha", "3.0", "--t", "1").returncode == 3
        heavy = tmp_path / "heavy.json"
        pairs = [[0.0, 0.0]] * 81
        pairs[0] = [2.0, 0.0]
        heavy.write_text(json.dumps({"da": 3, "db": 3, "mat": pairs}))
        assert run_cli("evolve", "--initial", str(heavy), "--t", "1").returncode == 3
        small = tmp_path / "qubitpair.json"
        pairs = [[0.0, 0.0]] * 16
        for k in (0, 5, 10, 15):
            pairs[k] = [0.25, 0.0]
        small.write_text(json.dumps({"da": 2, "db": 2, "mat": pairs}))
        assert run_cli("evolve", "--initial", str(small), "--t", "1").returncode == 3
        uncovered = ("classify", "--initial", "rho-prime", "--alpha", "3.5", "--t", "1", "--certificate", "three-block")
        assert run_cli(*uncovered).returncode == 3
        nan = tmp_path / "nan.json"
        pairs = [[0.0, 0.0]] * 81
        pairs[0] = [math.nan, 0.0]
        nan.write_text(json.dumps({"da": 3, "db": 3, "mat": pairs}))
        for args in (("evolve", "--t", "1"), ("classify", "--t", "1"), ("sweep", "--quantity", "pt-min-eig")):
            result = run_cli(*args, "--initial", str(nan))
            assert result.returncode == 3
            assert result.stdout == b""

    def test_errors_leave_stdout_empty(self, tmp_path):
        result = run_cli("evolve", "--alpha", "5.5", "--t", "1")
        assert result.stdout == b""
        assert result.stderr != b""
        not_psd = tmp_path / "not_psd.json"
        pairs = [[0.0, 0.0]] * 81
        for k, v in ((0, 0.6), (10, 0.5), (20, -0.1)):
            pairs[k] = [v, 0.0]
        not_psd.write_text(json.dumps({"da": 3, "db": 3, "mat": pairs}))
        qubits = tmp_path / "qubitpair.json"
        pairs = [[0.0, 0.0]] * 16
        for k in (0, 5, 10, 15):
            pairs[k] = [0.25, 0.0]
        qubits.write_text(json.dumps({"da": 2, "db": 2, "mat": pairs}))
        for path, code in ((tmp_path / "missing.json", 2), (not_psd, 3), (qubits, 3)):
            result = run_cli("sweep", "--quantity", "pt-min-eig", "--initial", str(path))
            assert result.returncode == code
            assert result.stdout == b""
            assert result.stderr != b""


class TestScripts:
    def test_window_scan_and_figure_data(self, tmp_path):
        scripts = Path(__file__).parent.parent / "scripts"
        scan = subprocess.run(
            [sys.executable, str(scripts / "ppt_window_scan.py"), "--alphas", "4.5"],
            capture_output=True,
            check=False,
            env=child_env(),
        )
        assert scan.returncode == 0
        lines = scan.stdout.decode().splitlines()
        assert len(lines) == 3 and lines[2].split()[0] == "4.50"
        figures = subprocess.run(
            [sys.executable, str(scripts / "figure_data.py"), "--out-dir", str(tmp_path), "--points", "5"],
            capture_output=True,
            check=False,
            env=child_env(),
        )
        assert figures.returncode == 0
        for name, rows in (("pt_min_eig.csv", 15), ("realignment_excess.csv", 5), ("fidelity.csv", 5)):
            assert len((tmp_path / name).read_text().splitlines()) == rows + 1
