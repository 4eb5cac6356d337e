"""Shared fixtures and independent oracles.

The reshuffle and fidelity oracles here are written as explicit index
loops or textbook formulas on purpose: they give every vectorized
implementation a second, independently derived route to agree with.
"""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dephaselab import criteria
from dephaselab.channels import NoiseParams, ground_excited
from dephaselab.family import initial_state
from dephaselab.linalg import eigvals_hermitian, sqrt_psd
from dephaselab.qstate import DensityMatrix, Dims, make_state

QUTRIT_PAIR = Dims(3, 3)
GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """The environment with src first on PYTHONPATH, so child
    interpreters import this checkout's package without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    return env


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a subprocess, capturing stdout/stderr as bytes."""
    return subprocess.run(
        [sys.executable, "-m", "dephaselab", *args],
        capture_output=True,
        check=False,
        env=child_env(),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)


def random_factor(rng: np.random.Generator, d: int) -> np.ndarray:
    """Single-system full-rank density matrix, G G† / trace."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_product_state(rng: np.random.Generator, dims: Dims) -> DensityMatrix:
    """sigma_a (x) sigma_b with independent random factors."""
    return make_state(dims, np.kron(random_factor(rng, dims.da), random_factor(rng, dims.db)))


def random_separable_mixture(
    rng: np.random.Generator, dims: Dims, components: int = 4
) -> DensityMatrix:
    """sum_k p_k sigma_a^k (x) sigma_b^k with Dirichlet mixing weights."""
    weights = rng.dirichlet(np.ones(components))
    m = sum(
        w * np.kron(random_factor(rng, dims.da), random_factor(rng, dims.db))
        for w in weights
    )
    return make_state(dims, m)


def evolved_family_by_entries(alpha: float, noise: NoiseParams) -> DensityMatrix:
    """The evolved family written entry by entry.

    Only the three coherences of the initial state move: (|01>,|10>)
    keeps gamma_a * gamma_b, (|01>,|22>) keeps gamma_a, (|10>,|22>)
    keeps gamma_b.
    """
    d = QUTRIT_PAIR
    m = np.array(initial_state(alpha).mat)
    ga, gb = noise.gamma_a, noise.gamma_b
    c01, c10, c22 = d.flat(0, 1), d.flat(1, 0), d.flat(2, 2)
    m[c01, c10] *= ga * gb
    m[c10, c01] *= ga * gb
    m[c01, c22] *= ga
    m[c22, c01] *= ga
    m[c10, c22] *= gb
    m[c22, c10] *= gb
    return make_state(d, m)


def swapped_family_by_mixture(alpha: float) -> DensityMatrix:
    """The swapped family built directly as a three-component mixture.

    (2/7) maximally entangled projector + (alpha/7) uniform diagonal on
    the pairs (a, a+1 mod 3) + ((5-alpha)/7) uniform diagonal on the
    pairs (a, a-1 mod 3): a construction independent of the level swap.
    """
    d = QUTRIT_PAIR
    phi = np.zeros(9)
    phi[[d.flat(0, 0), d.flat(1, 1), d.flat(2, 2)]] = 1.0 / np.sqrt(3.0)
    m = (2.0 / 7.0) * np.outer(phi, phi).astype(complex)
    for a in range(3):
        m[d.flat(a, (a + 1) % 3), d.flat(a, (a + 1) % 3)] += alpha / 21.0
        m[d.flat(a, (a - 1) % 3), d.flat(a, (a - 1) % 3)] += (5.0 - alpha) / 21.0
    return make_state(d, m)


def pt_by_loops(state: DensityMatrix, side: str = "B") -> np.ndarray:
    """Partial transpose via explicit four-index loops."""
    d = state.dims
    out = np.zeros_like(state.mat)
    for a in range(d.da):
        for b in range(d.db):
            for a2 in range(d.da):
                for b2 in range(d.db):
                    if side == "B":
                        out[d.flat(a, b), d.flat(a2, b2)] = state.mat[d.flat(a, b2), d.flat(a2, b)]
                    else:
                        out[d.flat(a, b), d.flat(a2, b2)] = state.mat[d.flat(a2, b), d.flat(a, b2)]
    return out


def realign_by_loops(state: DensityMatrix) -> np.ndarray:
    """Realignment via explicit loops: out[(a,a'),(b,b')] = rho[(a,b),(a',b')]."""
    d = state.dims
    out = np.zeros((d.da * d.da, d.db * d.db), dtype=complex)
    for a in range(d.da):
        for a2 in range(d.da):
            for b in range(d.db):
                for b2 in range(d.db):
                    out[a * d.da + a2, b * d.db + b2] = state.mat[d.flat(a, b), d.flat(a2, b2)]
    return out


def bures_by_eigh(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Textbook fidelity route: eigenvalues of sqrt(rho) sigma sqrt(rho).

    Less accurate than the trace-norm route near zero eigenvalues (about
    1e-8 on rank-deficient inputs), which is exactly why it serves as the
    independent cross-check rather than the implementation.
    """
    r = sqrt_psd(rho.mat)
    inner = r @ sigma.mat @ r
    w = eigvals_hermitian((inner + inner.conj().T) / 2)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


def sweep_by_points(quantity: str, base: DensityMatrix, blocks, ts, gammas) -> str:
    """The witness and verdict sweep CSV, one grid point at a time.

    Every (t, gamma) point, t outer, is dephased on its own through
    ground_excited and NoiseParams (math.exp retentions) and classified
    as a single state.
    """
    value = {
        "pt-min-eig": lambda s: f"{criteria.min_pt_eigenvalue(s):.12g}",
        "realignment": lambda s: f"{criteria.realignment_excess(s):.12g}",
        "verdict": lambda s: criteria.classify(s, blocks).verdict.value,
    }[quantity]
    rows = [["t", "gamma", "verdict" if quantity == "verdict" else "value"]] + [
        [f"{t:.12g}", f"{g:.12g}", value(ground_excited(base, NoiseParams(g, g, t)))] for t in ts for g in gammas
    ]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()
