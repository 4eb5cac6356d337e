"""End-to-end tests of the command line: formats, exit codes, determinism."""

import argparse
import ast
import csv
import importlib
import io
import json
import math
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dephaselab
from conftest import (
    CHUNK_SIZES, GOLDEN_DIR, SRC_DIR, child_env, lemma_witnesses_by_samples, retention, run_cli, sweep_by_points,
)
from dephaselab import channels, cli, criteria, family
from dephaselab.channels import GROUND_EXCITED, apply_channel, evolve, kraus_ground_excited
from dephaselab.criteria import transition_times
from dephaselab.family import certificate_blocks, certificate_onset_time, evolved_closed_form, initial_state, swapped_state
from dephaselab.linalg import TOL, DomainError
from dephaselab.qstate import DensityMatrix, Dims, random_state, state_from_json, state_to_json


def read_csv(stdout: bytes):
    text = stdout.decode()
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestEvolve:
    def test_rho_matches_closed_form(self):
        result = run_cli("evolve", "--alpha", "4.5", "--t", "1.0")
        assert result.returncode == 0
        state = state_from_json(result.stdout.decode())
        expected = evolved_closed_form(4.5, 1.0, 1.0, 1.0)
        assert np.max(np.abs(state.mat - expected.mat)) < 1e-12

    def test_rho_prime_matches_kraus_path(self):
        result = run_cli("evolve", "--initial", "rho-prime", "--t", "0.7")
        assert result.returncode == 0
        state = state_from_json(result.stdout.decode())
        expected = apply_channel(swapped_state(4.5), kraus_ground_excited(retention(1.0, 0.7), retention(1.0, 0.7)))
        assert np.max(np.abs(state.mat - expected.mat)) < 1e-12

    def test_asymmetric_rates(self):
        result = run_cli("evolve", "--gamma-a", "0.6", "--gamma-b", "1.3", "--t", "0.9")
        assert result.returncode == 0
        state = state_from_json(result.stdout.decode())
        expected = evolved_closed_form(4.5, 0.6, 1.3, 0.9)
        assert np.max(np.abs(state.mat - expected.mat)) < 1e-12

    def test_state_file_input(self, tmp_path):
        source = evolved_closed_form(4.2, 1.0, 1.0, 0.0)
        path = tmp_path / "state.json"
        path.write_text(state_to_json(source))
        result = run_cli("evolve", "--initial", str(path), "--t", "0.5")
        assert result.returncode == 0
        state = state_from_json(result.stdout.decode())
        expected = apply_channel(source, kraus_ground_excited(retention(1.0, 0.5), retention(1.0, 0.5)))
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

    @pytest.mark.parametrize("alpha,t", [("4.9", "2.09964423"), ("4.5", "1.386294359")])
    def test_no_certificate_from_negative_block_minima(self, alpha, t):
        # Just before an onset a block minimum is negative by less than
        # 1e-10. A block with a negative eigenvalue is not separable, so
        # nothing is certified.
        result = run_cli("classify", "--alpha", alpha, "--t", t, "--certificate", "three-block")
        assert result.returncode == 0
        lines = result.stdout.decode().splitlines()
        assert lines[0] == "PptUndetermined"
        assert json.loads(lines[1])["certificate_passed"] is False

    def test_no_certificate_from_underflowed_minima(self, capsys):
        # At alpha = 5 two block PTs are exactly NPT at every t, but at
        # t = 745 their float minima, and the state's, underflow to 0.0.
        assert cli.main(["classify", "--alpha", "5", "--t", "745", "--certificate", "three-block"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "PptUndetermined"
        metrics = json.loads(lines[1])
        assert metrics["min_pt_eigenvalue"] == 0.0 and metrics["certificate_passed"] is False

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
                evolved_closed_form(4.5, 1.0, 1.0, t)
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
        result = run_cli("sweep", "--quantity", "fidelity", "--t-range", "0", "2", "5", "--gamma", "-0")
        assert [r[1] for r in read_csv(result.stdout)[1]] == ["0"] * 5

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

    def test_verdict_sweep_certifies_no_exactly_npt_state(self, capsys):
        # At t = 1000 the alpha = 5 state's block PTs are exactly NPT with
        # minima that underflow to 0.0; at t = 2000 every coherence
        # exp(-1000) is exactly 0, so the stored state is diagonal.
        assert cli.main(["sweep", "--quantity", "verdict", "--alpha", "5", "--t-range", "0", "2000", "3"]) == 0
        _, rows = read_csv(capsys.readouterr().out.encode())
        assert rows == [["0", "1", "NptFreeEntangled"], ["1000", "1", "PptUndetermined"],
                        ["2000", "1", "SeparableCertified"]]

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
        # crossing one; neither is a multiple of the chunk size. A rate of
        # -0 is the rate 0 and prints as 0.
        n_t, n_tg = 2 * cli.STACK_CHUNK + 5, cli.STACK_CHUNK // 7 + 5
        grids = (
            (["--t-range", "0", "4", str(n_t)], np.linspace(0.0, 4.0, n_t), np.array([1.0])),
            (["--t-range", "0", "4", "5", "--gamma", "-0"], np.linspace(0.0, 4.0, 5), np.array([0.0])),
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

    def test_overflowing_rate_times_time_is_silent(self, capsys):
        # gamma * t overflows to inf on the last two points, whose
        # coherences are then gone; a numpy overflow warning there would
        # be an error under pytest's filterwarnings.
        grid = ["--t-range", "0", "1e308", "3", "--gamma", "1e308"]
        assert cli.main(["sweep", "--quantity", "verdict", *grid]) == 0
        assert capsys.readouterr().out == (
            "t,gamma,verdict\n0,1e+308,NptFreeEntangled\n"
            "5e+307,1e+308,SeparableCertified\n1e+308,1e+308,SeparableCertified\n"
        )
        assert cli.main(["sweep", "--quantity", "fidelity", *grid]) == 0
        assert capsys.readouterr().out == (
            "t,gamma,f_rho,f_rho_prime\n0,1e+308,1,1\n"
            "5e+307,1e+308,0.773068137084,0.85978249127\n1e+308,1e+308,0.773068137084,0.85978249127\n"
        )

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

    @pytest.mark.parametrize("ranges, message", [
        (("--t-range", "0", "1", "1e20"), "t range step count 100000000000000000000"),
        (("--t-range", "0", "1", "3", "--gamma-range", "0", "1", "1e19"), "gamma range step count 10000000000000000000"),
        (("--t-range", "0", "1", "9223372036854775807"), "t range step count 9223372036854775808"),
        (("--t-range", "0", "1", "1e15"), "t range step count 1000000000000000"),
        (("--t-range", "0", "1", "3", "--gamma-range", "0", "1", "1e15"), "gamma range step count 1000000000000000"),
    ])
    def test_step_counts_numpy_refuses_are_usage_errors(self, ranges, message):
        # numpy refuses each count before touching any memory: with a
        # ValueError (too large for an array), at 2**63 an IndexError, and
        # at 1e15 a MemoryError, since 7.1 PiB of doubles lies past the
        # 47-bit user address space.
        result = run_cli("sweep", "--quantity", "pt-min-eig", *ranges)
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr.decode() == f"error: {message} is more than numpy can hold\n"

    @pytest.mark.parametrize("ranges, code, stderr", [
        (("--t-range", "-1", "1", "3"), 2, b"error: t range must be nonnegative\n"),
        (("--gamma-range", "-1", "1", "3"), 2, b"error: gamma range must be nonnegative\n"),
        (("--t-range", "-1", "1", "1e20"), 2,
         b"error: t range step count 100000000000000000000 is more than numpy can hold\n"),
        (("--t-range", "-0.0", "1", "2"), 0, b""),
    ])
    def test_negative_ranges_are_refused_after_the_step_count(self, ranges, code, stderr):
        result = run_cli("sweep", "--quantity", "pt-min-eig", *ranges)
        assert (result.returncode, result.stderr) == (code, stderr)
        assert (result.stdout == b"") == (code != 0)


class TestThresholds:
    def test_golden_report_default_family(self):
        result = run_cli("thresholds", "--alpha", "4.5", "--gamma", "1")
        assert result.returncode == 0
        assert result.stdout == (GOLDEN_DIR / "thresholds_alpha45_gamma1.json").read_bytes()

    def test_golden_report_boundary_alpha(self):
        # alpha = 5 never turns PPT ("inf" onsets); alpha = 3.5 is PPT from the start (null onsets).
        for alpha, gamma, golden in (("5", "0.7", "thresholds_alpha5_gamma07.json"),
                                     ("3.5", "1", "thresholds_alpha35_gamma1.json")):
            result = run_cli("thresholds", "--alpha", alpha, "--gamma", gamma)
            assert result.returncode == 0
            assert result.stdout == (GOLDEN_DIR / golden).read_bytes()

    def test_report_invariants(self):
        for alpha, gamma in (("4.5", "1"), ("4.9", "1"), ("4.3", "0.7")):
            result = run_cli("thresholds", "--alpha", alpha, "--gamma", gamma)
            doc = json.loads(result.stdout.decode())
            assert abs(doc["t_d_analytic"] - doc["t_d_numeric"]) < 1e-6
            assert doc["certificate_onset"] >= doc["t_d_numeric"] - 1e-9
        # Rates far from 1 move every transition by 1/gamma, so they are
        # compared relative to the closed forms.
        for gamma in ("1e-7", "1e-8", "1e-10", "3e6", "1e9"):
            doc = json.loads(run_cli("thresholds", "--alpha", "4.5", "--gamma", gamma).stdout.decode())
            onset = certificate_onset_time(4.5, float(gamma))
            assert abs(doc["t_d_analytic"] - doc["t_d_numeric"]) <= 1e-9 * doc["t_d_analytic"], gamma
            assert abs(doc["certificate_onset"] - onset) <= 1e-9 * onset, gamma
            assert doc["t_d_numeric"] < doc["realignment_zero"] < doc["certificate_onset"], gamma

    def test_extreme_rates_answer(self):
        # The bisection ends by construction and the horizon stops at the
        # largest double, so every accepted rate gives a report. At
        # gamma = 1e-308 the PPT onset (5.8e307) is still inside the
        # horizon; at 5e-309 and 4e-309 it (1.15e308, 1.44e308) lies past
        # the doubling's last power of two, 2**1023, but not past the
        # horizon, which the search probes itself; at 1e-310 and below
        # every transition is past the horizon.
        for gamma in ("2e51", "1e308", "1e-308", "5e-309", "4e-309", "1e-310", "5e-324"):
            result = run_cli("thresholds", "--alpha", "4.5", "--gamma", gamma)
            assert result.returncode == 0, result.stderr
            doc = json.loads(result.stdout.decode())
            if float(gamma) > 1e-309:
                assert abs(doc["t_d_numeric"] - doc["t_d_analytic"]) <= 1e-8 * doc["t_d_analytic"], gamma
            else:
                times = ("t_d_analytic", "t_d_numeric", "realignment_zero", "certificate_onset")
                assert {doc[key] for key in times} == {"inf"}, gamma

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

    def test_report_times_are_transition_times(self, capsys):
        # thresholds' PT onset and realignment zero are criteria.transition_times, bit for bit.
        for alpha, gamma in ((3.5, 1.0), (4.5, 0.7), (4.9, 1.3), (5.0, 0.7)):
            assert cli.main(["thresholds", "--alpha", str(alpha), "--gamma", str(gamma)]) == 0
            doc = json.loads(capsys.readouterr().out)
            base = initial_state(alpha)
            times = transition_times(lambda t: evolve(base, GROUND_EXCITED, gamma, gamma, t), gamma)
            assert [doc["t_d_numeric"], doc["realignment_zero"]] == [
                "inf" if value == math.inf else value for value in times
            ], (alpha, gamma)

    def test_ppt_from_start_reports_null_onset(self):
        result = run_cli("thresholds", "--alpha", "3.9", "--gamma", "1")
        assert result.returncode == 0
        doc = json.loads(result.stdout.decode())
        assert doc["t_d_analytic"] is None
        assert doc["t_d_numeric"] is None
        assert abs(doc["certificate_onset"] - 2.0 * math.log(2.0)) < 1e-6
        assert doc["realignment_zero"] > 0


def break_unswapped_limit_claim(monkeypatch) -> None:
    """Make verify-lemmas' claim that the unswapped family's limit is
    separable fail, and only that claim: family.limit_verdict answers a
    separable limit with a stand-in that reads SeparableLimit but is not
    LimitVerdict.SEPARABLE_LIMIT."""
    limit_verdict, separable = family.limit_verdict, family.LimitVerdict.SEPARABLE_LIMIT
    stand_in = SimpleNamespace(value=separable.value)

    def fake(state):
        verdict = limit_verdict(state)
        return stand_in if verdict is separable else verdict

    monkeypatch.setattr(family, "limit_verdict", fake)


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

    def test_injected_fault_fails_loudly(self, monkeypatch, capsys):
        break_unswapped_limit_claim(monkeypatch)
        assert cli.main(["verify-lemmas", "--samples", "0"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        match = re.search(r"^(\d+)/(\d+) checks passed$", out.splitlines()[-1])
        assert match and int(match.group(1)) == int(match.group(2)) - 1

    def test_bound_screen_cannot_hide_a_ppt_witnessed_limit(self, monkeypatch, capsys):
        # Every other sample is the doublet Bell state (|11> + |22>)/sqrt(2),
        # its own limit, with realignment excess 1: its bound lets it
        # through, so the SVD runs on exactly those members. The limit's
        # PT minimum alone is made to read PPT, so only the limit claim
        # may fail, once per doublet.
        psi = np.zeros(9)
        psi[[4, 8]] = 1.0 / math.sqrt(2.0)

        def half_doublets(rng, dims, size):
            mats = np.array(random_state(rng, dims, size).mat)
            mats[::2] = np.outer(psi, psi)
            return DensityMatrix(mats, dims)

        limits = []
        infinite_limit, witness_where = channels.infinite_limit, cli._witness_where

        def recorded_limit(state):
            limits.append(infinite_limit(state))
            return limits[-1]

        def ppt_limit(witness, mask, state):
            values = witness_where(witness, mask, state)
            if witness is criteria.min_pt_eigenvalue and any(state is lim for lim in limits):
                values[mask] = 0.0
            return values

        monkeypatch.setattr(cli, "random_state", half_doublets)
        monkeypatch.setattr(channels, "infinite_limit", recorded_limit)
        monkeypatch.setattr(cli, "_witness_where", ppt_limit)
        chunk = next(cli._sample_witnesses(0, 64))
        assert np.array_equal(~np.isnan(chunk["limit_excess"]), np.arange(64) % 2 == 0)
        assert np.max(np.abs(chunk["limit_excess"][::2] - 1.0)) < 1e-12
        assert cli.main(["verify-lemmas", "--samples", "64"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
        assert failed == ["[FAIL] no random infinite-time limit is PPT-entangled-witnessed (64 samples): 32 violations"]

    def test_seed_changes_keep_passing(self):
        for seed in ("1", "7", "123"):
            assert run_cli("verify-lemmas", "--seed", seed, "--samples", "20").returncode == 0

    @pytest.mark.parametrize(
        "flags, golden, code",
        [
            (["verify-lemmas", "--seed", "42", "--samples", "200"], "verify_lemmas_seed42_samples200.txt", 0),
            # The one exit 1: the unswapped-limit claim broken from outside.
            (["verify-lemmas", "--seed", "42", "--samples", "0"], "verify_lemmas_seed42_samples0_broken_limit_claim.txt", 1),
            # grid-sweep's rate grid and the default verdict sweep: goldens
            # independent of the library code the sweep itself runs.
            (["sweep", "--quantity", "pt-min-eig", "--initial", "rho-prime", "--t-range", "0", "10", "41",
              "--gamma-range", "0", "2", "11"], "sweep_pt_min_eig_rho_prime_t0_10_41_gamma0_2_11.csv", 0),
            (["sweep", "--quantity", "verdict", "--t-range", "0", "3", "121"], "sweep_verdict_t0_3_121.csv", 0),
        ],
    )
    def test_golden_stdout(self, flags, golden, code, monkeypatch, capsys):
        if code == 0:
            result = run_cli(*flags)
            returncode, stdout = result.returncode, result.stdout
        else:
            break_unswapped_limit_claim(monkeypatch)
            returncode, stdout = cli.main(flags), capsys.readouterr().out.encode()
        assert returncode == code
        assert stdout == (GOLDEN_DIR / golden).read_bytes()

    @pytest.mark.parametrize(
        "key, samples, fault", [("seed42_samples200", 200, False), ("seed42_samples0_broken_limit_claim", 0, True)]
    )
    def test_golden_checks(self, key, samples, fault, monkeypatch):
        # stdout shows a claim's detail only when it fails: pin every
        # (name, passed, detail) triple, details of passing claims included.
        if fault:
            break_unswapped_limit_claim(monkeypatch)
        golden = json.loads((GOLDEN_DIR / "verify_checks_seed42.json").read_text())[key]
        checks = [[name, bool(passed), detail] for name, passed, detail in cli._verify_checks(42, samples)]
        assert checks == golden

    @pytest.mark.parametrize("samples", (0,) + CHUNK_SIZES)
    def test_chunked_samples_match_per_sample_oracle(self, samples):
        # Every violation count is 0, so stdout alone cannot tell a wrong
        # stack from a right one: compare the witnesses themselves.
        seed = 1000 + samples
        chunks = list(cli._sample_witnesses(seed, samples))
        assert [len(c["limit_pt_min"]) for c in chunks] == [
            min(cli.STACK_CHUNK, samples - start) for start in range(0, samples, cli.STACK_CHUNK)
        ]
        oracle = lemma_witnesses_by_samples(seed, samples)
        assert np.all(oracle["limit_bound"] >= oracle["limit_excess"])
        # A claim's second witness is taken only where its first fires,
        # and the limit's excess only where its bound lets it fire.
        screened = oracle["limit_bound"] > 0
        gates = {
            "limit_excess": screened,
            "limit_pt_min": screened & (oracle["limit_excess"] > TOL.verdict),
            "parent_pt_min": oracle["two_sided"] < -TOL.verdict,
            "evolved_pt_min": oracle["one_sided"] < -TOL.verdict,
        }
        expected = {key: np.where(gates[key], want, np.nan) if key in gates else want for key, want in oracle.items()}
        assert all(c.keys() == expected.keys() for c in chunks)
        for key, want in expected.items():
            stacked = np.concatenate([c[key] for c in chunks] or [want[:0]])
            assert stacked.dtype == want.dtype, key
            assert np.array_equal(stacked, want, equal_nan=True), key
            assert stacked.tobytes() == want.tobytes(), key

    def test_violations_count_only_rows_where_both_witnesses_fire(self):
        # Random samples break no claim, so their counts cannot tell a
        # dropped or inverted conjunct from a right one: count a hand-built
        # chunk instead. Column order: limit_excess, limit_pt_min,
        # two_sided, parent_pt_min, one_sided, evolved_pt_min.
        nan, edge = np.nan, TOL.verdict
        rows = [
            (1e-3, 0.0, -1e-3, -1e-3, nan, nan),  # breaks the limit claim; NPT parent, empty probe doublet
            (0.0, nan, -1e-3, 0.0, -1e-3, -1e-3),  # breaks the two-sided claim; NPT evolved state
            (2 * edge, -1e-3, nan, nan, -1e-3, -edge),  # breaks the one-sided claim; NPT limit, empty corner
            (-0.5, 0.0, 0.0, 0.0, 0.0, 0.0),  # only the second conjuncts hold
            (edge, -edge, -edge, 0.0, -edge, 0.0),  # first conjuncts at their thresholds, which do not fire
            (1e-3, nan, -1e-3, nan, -1e-3, nan),  # first conjuncts fire, second witnesses NaN
            (1e-3, -2 * edge, -1e-3, -2 * edge, -1e-3, -2 * edge),  # every state NPT
        ]
        keys = ("limit_excess", "limit_pt_min", "two_sided", "parent_pt_min", "one_sided", "evolved_pt_min")
        chunk = dict(zip(keys, np.array(rows).T))
        assert cli._violations(chunk).tolist() == [1, 1, 1]


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
        assert run_cli("verify-lemmas", "--seed", "-1").returncode == 2
        removed = run_cli("verify-lemmas", "--inject-fault")
        assert removed.returncode == 2 and b"error: unrecognized arguments: --inject-fault" in removed.stderr
        assert run_cli("evolve", "--initial", str(tmp_path / "missing.json"), "--t", "1").returncode == 2
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert run_cli("evolve", "--initial", str(bad), "--t", "1").returncode == 2
        short = tmp_path / "short.json"
        short.write_text(json.dumps({"da": 3, "db": 3, "mat": [[1.0, 0.0]] * 4}))
        assert run_cli("evolve", "--initial", str(short), "--t", "1").returncode == 2

    def test_no_hidden_options(self):
        # Every option a subcommand takes shows in its --help.
        subparsers = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        hidden = [
            (command, action.dest) for command, parser in subparsers.choices.items()
            for action in parser._actions if action.help == argparse.SUPPRESS
        ]
        assert hidden == []

    @pytest.mark.parametrize("da", [None, [3], 3.9, "3"], ids=["null", "list", "float", "string"])
    def test_non_integer_dimensions_exit_two(self, da, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(state_to_json(initial_state(4.5)).replace('"da": 3', f'"da": {json.dumps(da)}'))
        result = run_cli("classify", "--initial", str(path), "--t", "1")
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr.decode().startswith("error: malformed state file")
        assert b"Traceback" not in result.stderr

    @pytest.mark.parametrize("content, error", [
        (b'{"da": 3, "db": 3, "mat": "\xff"}', "cannot read state file"),
        (json.dumps({"da": 3, "db": 3, "mat": [[0.0, 0.0]] * 81}).replace("0.0", "9" * 401, 1).encode(),
         "malformed state file"),
        (b"[" * 100000 + b"]" * 100000, "malformed state file"),
    ], ids=["not-utf8", "huge-integer", "deep-nesting"])
    @pytest.mark.parametrize("command", ["classify", "evolve", "sweep"])
    def test_unparsable_state_files_exit_two(self, command, content, error, tmp_path):
        # Bytes that are not UTF-8, an integer too large for a double and
        # arrays nested past the recursion limit: each is a usage error.
        path = tmp_path / "state.json"
        path.write_bytes(content)
        args = ("--quantity", "pt-min-eig") if command == "sweep" else ("--t", "1")
        result = run_cli(command, *args, "--initial", str(path))
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr.decode().startswith(f"error: {error} {path}")
        assert b"Traceback" not in result.stderr

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
        for args in (("evolve", "--alpha", "5.5", "--t", "1"), ("verify-lemmas", "--seed", "-1")):
            result = run_cli(*args)
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


def buffered_env() -> dict:
    """child_env without PYTHONUNBUFFERED: the child block-buffers stdout,
    as an installed CLI does, so its last block reaches the pipe only
    through the flush in dephaselab.__main__.run."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


class TestProcessExit:
    """dephaselab.__main__.run ends the process with os._exit once stdout
    and stderr are flushed. Called in pytest it would end the test
    process, so every test here runs it in a child."""

    def test_closed_stdout_exits_zero_quietly(self):
        # Python starts with sys.stdout None when fd 1 is closed, and print
        # then writes nowhere; an unconditional sys.stdout.flush() exits 1.
        command = f'"{sys.executable}" -m dephaselab classify --t 0.5 >&-'
        result = subprocess.run(["sh", "-c", command], capture_output=True, check=False, env=buffered_env())
        assert (result.returncode, result.stderr) == (0, b"")

    def test_long_sweep_arrives_whole_through_a_pipe(self):
        args = ("sweep", "--quantity", "pt-min-eig", "--t-range", "0", "3", "20001")
        result = subprocess.run(
            [sys.executable, "-m", "dephaselab", *args], capture_output=True, check=False, env=buffered_env()
        )
        assert (result.returncode, result.stderr) == (0, b"")
        lines = result.stdout.decode().split("\n")
        assert lines[0] == "t,gamma,value" and lines[-1] == ""
        assert [line.split(",")[0] for line in lines[1:-1]] == [f"{t:.12g}" for t in np.linspace(0.0, 3.0, 20001)]

    def test_closed_pipe_exits_141_quietly(self):
        # The reader leaves after one line, long before the sweep's 1.3 MB
        # are written: 128 + SIGPIPE, with no BrokenPipeError traceback.
        args = ("sweep", "--quantity", "realignment", "--t-range", "0", "3", "40000")
        command = [sys.executable, "-m", "dephaselab", *args]
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=buffered_env()) as child:
            assert child.stdout.readline() == b"t,gamma,value\n"
            child.stdout.close()
            assert (child.wait(timeout=60), child.stderr.read()) == (141, b"")

    @pytest.mark.parametrize("args,code,message", [
        (("evolve", "--t", "-1"), 2, "argument --t: must be finite and nonnegative, got -1"),
        (("sweep", "--quantity", "verdict", "--t-range", "1", "0", "5"), 2,
         "error: t range needs start < end, got 1.0 >= 0.0"),
        (("classify", "--alpha", "9", "--t", "1"), 3, "error: alpha must lie in (3, 5], got 9.0"),
    ])
    def test_error_exits_keep_their_message(self, args, code, message):
        result = subprocess.run(
            [sys.executable, "-m", "dephaselab", *args], capture_output=True, check=False, env=buffered_env()
        )
        assert (result.returncode, result.stdout) == (code, b"")
        assert message in result.stderr.decode()


def test_console_script_is_the_module_entry():
    """The installed `dephaselab` command and `python -m dephaselab` call
    the same function."""
    pyproject = (SRC_DIR.parent / "pyproject.toml").read_text()
    module_name, function_name = re.search(
        r'^\[project\.scripts\]\ndephaselab = "([\w.]+):(\w+)"$', pyproject, re.MULTILINE
    ).groups()
    entry_source = (SRC_DIR / "dephaselab" / "__main__.py").read_text()
    (guard,) = [node for node in ast.parse(entry_source).body if isinstance(node, ast.If)]
    (statement,) = guard.body
    called = statement.value.func.id
    entry = importlib.import_module("dephaselab.__main__")
    assert getattr(entry, called) is getattr(importlib.import_module(module_name), function_name)
    assert function_name == "run"


def test_entry_imports_the_cli_without_collections():
    """The process entry imports the CLI (numpy included) with the cyclic
    collector off and freezes what that import leaves, then runs the
    command with the collector on. The child wraps os._exit to report
    before it leaves."""
    code = """if True:
        import gc, os, runpy, sys
        during_import = []
        def count(phase, info):
            cli = sys.modules.get("dephaselab.cli")
            if phase == "start" and cli is not None and not hasattr(cli, "main"):
                during_import.append(info["generation"])
        gc.callbacks.append(count)
        leave = os._exit
        def report(code):
            sys.stdout.flush()
            print(len(during_import), gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr, flush=True)
            leave(code)
        os._exit = report
        sys.argv = ["dephaselab", "classify", "--t", "0.5"]
        runpy.run_module("dephaselab", run_name="__main__", alter_sys=True)
    """
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, check=False, env=child_env())
    assert (result.returncode, result.stdout.split(b"\n")[0]) == (0, b"NptFreeEntangled"), result
    assert result.stderr.decode() == "0 True True\n"


def test_domain_errors_are_the_exit_3_classes():
    """Every error class the package defines takes a side on purpose:
    a DomainError subclass exits 3, any other error does not."""
    defined = set()
    for info in pkgutil.iter_modules(dephaselab.__path__):
        module = importlib.import_module(f"dephaselab.{info.name}")
        defined |= {
            value for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == module.__name__
        }
    assert DomainError in defined and issubclass(DomainError, ValueError)
    assert {kind.__name__ for kind in defined if issubclass(kind, DomainError) and kind is not DomainError} == {
        "NotHermitianError", "NotPSDError", "BadShapeError", "TraceNotOneError",
        "NonFiniteError", "CoverageError", "AlphaDomainError",
    }


def window_scan(*args: str) -> subprocess.CompletedProcess:
    """Run scripts/ppt_window_scan.py with args, capturing bytes."""
    script = Path(__file__).parent.parent / "scripts" / "ppt_window_scan.py"
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, check=False, env=child_env())


def window_onset(alpha: float, g: float) -> float:
    """Closed-form PPT onset of the family under general dephasing at
    symmetric rate g, where every family coherence keeps exp(-2 g t)."""
    return math.log(4.0 / (alpha * (5.0 - alpha))) / (4.0 * g)


def window_zero(alpha: float, g: float) -> float:
    """Closed-form realignment zero, in the same setting as window_onset."""
    return -math.log((7.0 - math.sqrt(3.0 * alpha ** 2 - 15.0 * alpha + 19.0)) / 6.0) / (2.0 * g)


def readme_commands() -> list[list[str]]:
    """The arguments of every `dephaselab ...` line in README's Command
    line block, each without its `> file` redirect."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line.split(">")[0])[1:] for line in block.splitlines() if line.startswith("dephaselab ")]


class TestScripts:
    def test_window_scan_and_figure_data(self):
        alphas = (4.1, 4.5, 4.9, 4.000001, 3.5, 4.0, 5.0)
        runs = [("1.0", alphas), ("0.02", (4.5,)), ("0.1", (4.999,))]
        rows = {}
        for gamma, run_alphas in runs:
            scan = window_scan("--gamma", gamma, "--alphas", *map(str, run_alphas))
            assert scan.returncode == 0, scan.stderr
            lines = scan.stdout.decode().splitlines()
            assert len(lines) == 2 + len(run_alphas) and lines[0] == f"gamma = {gamma}"
            for line, alpha in zip(lines[2:], run_alphas):
                shown, t_ppt, t_real, window = line.split(maxsplit=3)
                assert float(shown) == alpha
                assert abs(float(t_real) - window_zero(alpha, float(gamma))) <= 5e-7
                if alpha < 5.0 and t_ppt != "-":
                    assert abs(float(t_ppt) - window_onset(alpha, float(gamma))) <= 5e-7
                rows[gamma, alpha] = (line, t_ppt, window)
        # Each row to the byte; at 4.000001 the onset is 1.9e-7, so the search must start at t = 0.
        assert [rows["1.0", alpha][0] for alpha in alphas[:4]] == [
            "4.100000   0.020167      0.180249     0.1601",
            "4.500000   0.143841      0.269498     0.1257",
            "4.900000   0.524911      0.378733      empty",
            "4.000001   0.000000      0.160304     0.1603",
        ]
        # Times past t = 12: a realignment zero at 13.47 and an onset at 16.71.
        assert rows["0.02", 4.5][2] == "6.2829" and rows["0.1", 4.999][2] == "empty"
        assert abs(window_zero(4.5, 0.02) - window_onset(4.5, 0.02) - 6.2829) <= 5e-5
        # PPT at t = 0 has no onset; at alpha = 5 the slowest branch never turns.
        assert rows["1.0", 3.5][1:] == rows["1.0", 4.0][1:] == ("-", "no PPT onset")
        assert rows["1.0", 5.0][1:] == ("inf", "empty")
        for gamma in ("0", "-1"):
            bad = window_scan("--gamma", gamma, "--alphas", "4.5")
            assert bad.returncode == 2 and bad.stdout == b""
            assert f"finite and positive, got {float(gamma)}\n".encode() in bad.stderr
            assert b"Traceback" not in bad.stderr
        # Every alpha is checked before the first line is printed.
        for run_alphas in (("4.5", "3"), ("nan",)):
            bad = window_scan("--alphas", *run_alphas)
            assert bad.returncode == 2 and bad.stdout == b""
            assert f"must lie in (3, 5], got {float(run_alphas[-1])}\n".encode() in bad.stderr
            assert b"Traceback" not in bad.stderr

    def test_window_scan_default_grid(self):
        # The default grid is alpha = 4.05, 4.1, ..., 5 as two-decimal
        # floats, so its last row is alpha = 5 itself, whose slowest branch
        # never turns: there the onset is inf and the window empty.
        scan = window_scan()
        assert scan.returncode == 0, scan.stderr
        lines = scan.stdout.decode().splitlines()
        assert len(lines) == 22 and lines[0] == "gamma = 1.0"
        for k, line in enumerate(lines[2:]):
            alpha = round(4.05 + 0.05 * k, 2)
            shown, t_ppt, t_real, window = line.split()
            assert float(shown) == alpha
            assert abs(float(t_real) - window_zero(alpha, 1.0)) <= 5e-7
            if alpha == 5.0:
                assert (t_ppt, window) == ("inf", "empty")
                continue
            assert abs(float(t_ppt) - window_onset(alpha, 1.0)) <= 5e-7
            width = window_zero(alpha, 1.0) - window_onset(alpha, 1.0)
            assert window == "empty" if width <= 0 else abs(float(window) - width) <= 6e-5

    def test_readme_commands_run(self, capsys):
        # README is the one place these commands are written, the figure data among them.
        commands = readme_commands()
        assert any(args[:3] == ["sweep", "--quantity", "fidelity"] for args in commands)
        for args in commands:
            assert cli.main(args) == 0, args
            assert capsys.readouterr().out.strip(), args
