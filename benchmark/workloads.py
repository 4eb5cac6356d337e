"""Seeded workloads: the CLI argument lists, the files they read, and the
check of each invocation's output against the oracles.

Every value the program sees (alpha, gamma, t, grid ends, lemma seeds,
state files) is drawn from the benchmark seed and written with six
decimals, so the oracle recomputes from exactly the number the program
parsed. A check returns None when the output is right, or a one-line
description of the first problem it found.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracles as o

# Bisection in `thresholds` stops at a bracket of 1e-9, so a root found
# after a legitimate reordering of the arithmetic may move by about that
# much; reports are compared at ten times that, relative to max(1, |t|).
GOLDEN_TOL = 1e-8
# Witness values are compared in absolute terms: near zero their sign can
# flip in the last printed digit, so no relative or digest test is used.
VALUE_TOL = 1e-9
STATE_TOL = 1e-12

# Input sizes per workload. TINY is for the benchmark's self-test.
FULL = {"grid_t": 1001, "realign_t": 301, "rho_prime_t": 41, "rho_prime_gamma": 11, "lemma_samples": 1000,
        "lemma_seeds": 3, "classify_rho": 8, "classify_rho_prime": 5, "state_files": 5,
        "seeded_thresholds": 2}
TINY = {"grid_t": 31, "realign_t": 21, "rho_prime_t": 5, "rho_prime_gamma": 3, "lemma_samples": 5,
        "lemma_seeds": 2, "classify_rho": 2, "classify_rho_prime": 1, "state_files": 1,
        "seeded_thresholds": 1}

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Call:
    """One CLI invocation: the arguments after `python -m dephaselab`,
    the check of its (exit code, stdout), and how many items it covers
    (grid points, random samples, or 1 for a single-shot call)."""

    argv: list[str]
    check: Check
    items: int = 1


def _num(x: float) -> str:
    return f"{x:.6f}"


def _draw(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Uniform draw rounded to the six decimals the program will parse."""
    return float(_num(rng.uniform(lo, hi)))


def _close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol


def _expect_exit(code: int, want: int) -> Optional[str]:
    return None if code == want else f"exit code {code}, expected {want}"


# --- sweeps ---------------------------------------------------------------

def _csv_rows(out: str, header: str, expected_rows: int):
    lines = out.split("\n")
    if lines[0] != header:
        return None, f"header {lines[0]!r}, expected {header!r}"
    if lines[-1] != "" or len(lines) - 2 != expected_rows:
        return None, f"{len(lines) - 2} rows, expected {expected_rows}"
    return [line.split(",") for line in lines[1:-1]], None


def _grid_matches(row: list[str], t: float, gamma: float) -> bool:
    return (_close(float(row[0]), t, 1e-11 * max(1.0, t))
            and _close(float(row[1]), gamma, 1e-11 * max(1.0, gamma)))


def _sweep_check(header: str, ts: np.ndarray, gammas: np.ndarray,
                 row_problem: Callable[[str, float, float], Optional[str]]) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        bad = _expect_exit(code, 0)
        if bad:
            return bad
        rows, bad = _csv_rows(out, header, len(ts) * len(gammas))
        if bad:
            return bad
        grid = ((t, g) for t in ts for g in gammas)
        for i, (row, (t, g)) in enumerate(zip(rows, grid)):
            if len(row) != 3 or not _grid_matches(row, t, g):
                return f"row {i}: {row} is not grid point ({t}, {g})"
            problem = row_problem(row[2], t, g)
            if problem:
                return f"row {i} (t={t}, gamma={g}): {problem}"
        return None
    return check


def grid_sweep(rng: np.random.Generator, size: dict) -> list[Call]:
    """Three long sweeps: verdicts and realignment of rho over a fine t
    grid that crosses every phase, and the PT minimum of rho' over t x gamma."""
    alpha, gamma = _draw(rng, 4.1, 4.6), _draw(rng, 0.6, 1.6)
    # Ending the grid at three times the realignment zero keeps the share
    # of points that reach the certificate at two thirds for every seed.
    t_end = float(_num(3.0 * o.realignment_zero(alpha, gamma)))
    rho = ["--alpha", _num(alpha), "--gamma", _num(gamma), "--t-range", "0", _num(t_end)]
    ts, ts_r = np.linspace(0.0, t_end, size["grid_t"]), np.linspace(0.0, t_end, size["realign_t"])
    one_gamma = np.array([gamma])

    def verdict(cell: str, t: float, g: float) -> Optional[str]:
        want = o.family_verdict(alpha, g, t, certificate=True)
        return None if want is None or cell == want else f"verdict {cell}, expected {want}"

    def realignment(cell: str, t: float, g: float) -> Optional[str]:
        want = o.realignment_closed_form(alpha, g, t)
        return None if _close(float(cell), want, VALUE_TOL) else f"excess {cell}, expected {want!r}"

    # rho' is NPT at every t for alpha > 4 and PPT for alpha <= 4.
    alpha_p = _draw(rng, 4.1, 5.0)
    tp_end, g_lo, g_hi = _draw(rng, 2.0, 4.0), _draw(rng, 0.2, 0.6), _draw(rng, 1.2, 2.0)
    tps = np.linspace(0.0, tp_end, size["rho_prime_t"])
    gps = np.linspace(g_lo, g_hi, size["rho_prime_gamma"])
    swapped = o.swapped_state(alpha_p)

    def pt_min(cell: str, t: float, g: float) -> Optional[str]:
        want = o.min_pt_eigenvalue(o.evolve(swapped, g, g, t))
        value = float(cell)
        if not _close(value, want, VALUE_TOL) or value >= 0:
            return f"PT minimum {cell}, expected {want!r} (< 0)"
        return None

    # The three sweeps differ in length by about a factor of two each, so
    # the per-call median and 75th percentile fall inside one sweep's
    # cluster of timings rather than on the boundary between two.
    return [
        Call(["sweep", "--quantity", "verdict", *rho, str(len(ts))],
             _sweep_check("t,gamma,verdict", ts, one_gamma, verdict), len(ts)),
        Call(["sweep", "--quantity", "realignment", *rho, str(len(ts_r))],
             _sweep_check("t,gamma,value", ts_r, one_gamma, realignment), len(ts_r)),
        Call(["sweep", "--quantity", "pt-min-eig", "--initial", "rho-prime", "--alpha", _num(alpha_p),
              "--t-range", "0", _num(tp_end), str(len(tps)),
              "--gamma-range", _num(g_lo), _num(g_hi), str(len(gps))],
             _sweep_check("t,gamma,value", tps, gps, pt_min), len(tps) * len(gps)),
    ]


# --- verify-lemmas ----------------------------------------------------------

def _lemma_check(code: int, out: str) -> Optional[str]:
    bad = _expect_exit(code, 0)
    if bad:
        return bad
    lines = out.rstrip("\n").split("\n")
    total = len(lines) - 1
    if total < 1 or lines[-1] != f"{total}/{total} checks passed":
        return f"summary {lines[-1]!r} after {total} checks"
    failing = [line for line in lines[:-1] if not line.startswith("[ok] ")]
    return f"failing check {failing[0]!r}" if failing else None


def lemma_check(rng: np.random.Generator, size: dict) -> list[Call]:
    """verify-lemmas with many random samples, at a few seeds."""
    samples = size["lemma_samples"]
    seeds = rng.integers(0, 2 ** 31, size=size["lemma_seeds"])
    return [Call(["verify-lemmas", "--seed", str(s), "--samples", str(samples)], _lemma_check, samples)
            for s in seeds]


# --- single-shot ------------------------------------------------------------

def _classify_doc(code: int, out: str):
    bad = _expect_exit(code, 0)
    if bad:
        return None, bad
    lines = out.split("\n")
    if len(lines) != 3 or lines[2] != "":
        return None, f"expected two lines, got {len(lines) - 1}"
    doc = json.loads(lines[1])
    if set(doc) != {"verdict", "min_pt_eigenvalue", "realignment_excess", "certificate_passed"}:
        return None, f"metric keys {sorted(doc)}"
    if doc["verdict"] != lines[0]:
        return None, f"verdict line {lines[0]!r} disagrees with metrics {doc['verdict']!r}"
    return doc, None


def _classify_rho_check(alpha: float, gamma: float, t: float, certificate: bool) -> Check:
    matrix = o.evolve(o.family_state(alpha), gamma, gamma, t)

    def check(code: int, out: str) -> Optional[str]:
        doc, bad = _classify_doc(code, out)
        if bad:
            return bad
        if not _close(doc["min_pt_eigenvalue"], o.min_pt_eigenvalue(matrix), VALUE_TOL):
            return f"min_pt_eigenvalue {doc['min_pt_eigenvalue']!r}"
        if not _close(doc["realignment_excess"], o.realignment_closed_form(alpha, gamma, t), VALUE_TOL):
            return f"realignment_excess {doc['realignment_excess']!r}"
        want = o.family_verdict(alpha, gamma, t, certificate)
        if want is None:
            return None
        if doc["verdict"] != want:
            return f"verdict {doc['verdict']}, expected {want}"
        evaluated = certificate and want in (o.UNDETERMINED, o.CERTIFIED)
        passed = (want == o.CERTIFIED) if evaluated else None
        if doc["certificate_passed"] != passed:
            return f"certificate_passed {doc['certificate_passed']}, expected {passed}"
        return None
    return check


def _classify_matrix_check(matrix: np.ndarray) -> Check:
    pt_min, excess = o.min_pt_eigenvalue(matrix), o.realignment_excess(matrix)

    def check(code: int, out: str) -> Optional[str]:
        doc, bad = _classify_doc(code, out)
        if bad:
            return bad
        if not _close(doc["min_pt_eigenvalue"], pt_min, VALUE_TOL):
            return f"min_pt_eigenvalue {doc['min_pt_eigenvalue']!r}, expected {pt_min!r}"
        if not _close(doc["realignment_excess"], excess, VALUE_TOL):
            return f"realignment_excess {doc['realignment_excess']!r}, expected {excess!r}"
        want = o.witness_verdict(pt_min, excess)
        if want is not None and doc["verdict"] != want:
            return f"verdict {doc['verdict']}, expected {want}"
        if doc["certificate_passed"] is not None:
            return "certificate_passed set without a certificate"
        return None
    return check


def _evolve_check(matrix: np.ndarray) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        bad = _expect_exit(code, 0)
        if bad:
            return bad
        doc = json.loads(out)
        if doc.get("da") != 3 or doc.get("db") != 3 or len(doc.get("mat", ())) != 81:
            return "state document is not qutrit-qutrit"
        got = np.array([complex(re, im) for re, im in doc["mat"]]).reshape(9, 9)
        dev = float(np.max(np.abs(got - matrix)))
        return None if dev <= STATE_TOL else f"evolved state deviates by {dev:.3e}"
    return check


def _report_problem(doc: dict, expected: dict, source: str) -> Optional[str]:
    if set(doc) != set(expected):
        return f"report keys {sorted(doc)}"
    for key, want in expected.items():
        got = doc[key]
        if want is None or (isinstance(want, float) and math.isinf(want)):
            ok = got == (None if want is None else "inf")
        else:
            ok = isinstance(got, (int, float)) and _close(got, want, GOLDEN_TOL * max(1.0, abs(want)))
        if not ok:
            return f"{key} = {got!r}, {source} says {want!r}"
    return None


def _thresholds_check(alpha: float, gamma: float, golden: Optional[dict] = None) -> Check:
    closed = o.thresholds(alpha, gamma)

    def check(code: int, out: str) -> Optional[str]:
        bad = _expect_exit(code, 0)
        if bad:
            return bad
        doc = json.loads(out)
        if golden is not None:
            bad = _report_problem(doc, golden, "golden file")
        return bad or _report_problem(doc, closed, "closed form")
    return check


def _golden(path: Path) -> dict:
    doc = json.loads(path.read_text())
    return {k: math.inf if v == "inf" else v for k, v in doc.items()}


def _write_state(path: Path, matrix: np.ndarray) -> str:
    pairs = [[float(z.real), float(z.imag)] for z in matrix.ravel()]
    path.write_text(json.dumps({"da": 3, "db": 3, "mat": pairs}))
    return str(path)


def _invalid_check(code: int, out: str) -> Optional[str]:
    return _expect_exit(code, 3) or (None if out == "" else "printed output for an invalid state")


def single_shot(rng: np.random.Generator, size: dict, workdir: Path, golden_dir: Path) -> list[Call]:
    """Short cold calls: classify rho and rho' with and without the
    certificate, classify and evolve state files, thresholds at both
    golden settings and at seeded (alpha, gamma), and one invalid file."""
    calls = []
    for certificate in (False, True):
        flag = ["--certificate", "three-block"] if certificate else []
        for _ in range(size["classify_rho"]):
            alpha, gamma = _draw(rng, 4.1, 4.6), _draw(rng, 0.6, 1.6)
            t = _draw(rng, 0.0, 2.0 * o.certificate_onset_time(alpha, gamma))
            argv = ["classify", "--alpha", _num(alpha), "--gamma-a", _num(gamma), "--gamma-b", _num(gamma),
                    "--t", _num(t), *flag]
            calls.append(Call(argv, _classify_rho_check(alpha, gamma, t, certificate)))
        for _ in range(size["classify_rho_prime"]):
            # alpha > 4 keeps rho' NPT, so the certificate is never reached:
            # the family's blocks do not cover rho' and would raise.
            alpha, gamma, t = _draw(rng, 4.1, 5.0), _draw(rng, 0.6, 1.6), _draw(rng, 0.0, 3.0)
            matrix = o.evolve(o.swapped_state(alpha), gamma, gamma, t)
            argv = ["classify", "--initial", "rho-prime", "--alpha", _num(alpha),
                    "--gamma-a", _num(gamma), "--gamma-b", _num(gamma), "--t", _num(t), *flag]
            calls.append(Call(argv, _classify_matrix_check(matrix)))
    for i in range(size["state_files"]):
        source = o.random_full_rank_state(rng)
        path = _write_state(workdir / f"state{i}.json", source)
        for command in ("classify", "evolve"):
            ga, gb, t = _draw(rng, 0.2, 2.0), _draw(rng, 0.2, 2.0), _draw(rng, 0.0, 3.0)
            matrix = o.evolve(source, ga, gb, t)
            check = _classify_matrix_check(matrix) if command == "classify" else _evolve_check(matrix)
            argv = [command, "--initial", path, "--gamma-a", _num(ga), "--gamma-b", _num(gb), "--t", _num(t)]
            calls.append(Call(argv, check))
    for name, alpha, gamma in (("thresholds_alpha45_gamma1.json", "4.5", "1"),
                               ("thresholds_alpha5_gamma07.json", "5", "0.7")):
        golden = _golden(golden_dir / name)
        calls.append(Call(["thresholds", "--alpha", alpha, "--gamma", gamma],
                          _thresholds_check(float(alpha), float(gamma), golden)))
    for lo, hi in ((4.1, 4.9), (3.3, 3.95)):
        for _ in range(size["seeded_thresholds"]):
            alpha, gamma = _draw(rng, lo, hi), _draw(rng, 0.5, 1.5)
            calls.append(Call(["thresholds", "--alpha", _num(alpha), "--gamma", _num(gamma)],
                              _thresholds_check(alpha, gamma)))
    bad = _write_state(workdir / "not_psd.json", o.non_psd_state(rng))
    calls.append(Call(["classify", "--initial", bad, "--t", "0.5"], _invalid_check))
    return calls


def warmups() -> list[Call]:
    """Cheap calls run before timing; they compile and cache the bytecode."""
    return [Call(["classify", "--t", "0.5"], _classify_rho_check(4.5, 1.0, 0.5, False))] * 2


def build(name: str, seed: int, workdir: Path, size: dict, golden_dir: Path) -> list[Call]:
    rng = np.random.default_rng(seed)
    if name == "grid-sweep":
        return grid_sweep(rng, size)
    if name == "lemma-check":
        return lemma_check(rng, size)
    if name == "single-shot":
        return single_shot(rng, size, workdir, golden_dir)
    raise ValueError(f"unknown workload {name!r}")

