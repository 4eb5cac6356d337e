"""Shared fixtures and independent oracles.

The reshuffle and fidelity oracles here are written as explicit index
loops or textbook formulas on purpose: they give every vectorized
implementation a second, independently derived route to agree with.
bures_fidelity (with sqrt_psd) is the numerical Bures route that checks
the shipped closed forms family.fidelity_initial and fidelity_swapped.
"""

from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from dephaselab import channels, cli, criteria, family
from dephaselab.channels import GROUND_EXCITED, evolve
from dephaselab.family import initial_state
from dephaselab.linalg import TOL, NotPSDError, eig_hermitian, eigvals_hermitian, singular_values
from dephaselab.qstate import BadShapeError, DensityMatrix, Dims, make_state

QUTRIT_PAIR = Dims(3, 3)
GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SQRT_FLOOR = 1e-12  # sqrt_psd zeroes eigenvalues below this times the largest
# Stack sizes around one and two chunks of cli.STACK_CHUNK states, one
# past two and one past four: where a chunked loop or a stacked call
# would lose or reorder a member.
_C = cli.STACK_CHUNK
CHUNK_SIZES = (1, _C - 1, _C, _C + 1, 2 * _C - 1, 2 * _C, 2 * _C + 1, 2 * _C + 3, 4 * _C + 3)


def child_env() -> dict:
    """The environment with src first on PYTHONPATH, so child
    interpreters import this checkout's package without an install, and
    with error::RuntimeWarning on PYTHONWARNINGS, so a RuntimeWarning
    fails a child as pyproject's filterwarnings fails an in-process test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    env["PYTHONWARNINGS"] = ",".join(w for w in (env.get("PYTHONWARNINGS"), "error::RuntimeWarning") if w)
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


def retention(rate: float, t: float) -> float:
    """The ground/excited coherence retention exp(-rate*t/2), computed
    here rather than by the library: the Kraus route and the entrywise
    oracles take it."""
    return math.exp(-float(rate) * float(t) / 2)


def evolved_family_by_entries(alpha: float, rate_a: float, rate_b: float, t: float) -> DensityMatrix:
    """The evolved family written entry by entry.

    Only the three coherences of the initial state move: (|01>,|10>)
    keeps gamma_a * gamma_b, (|01>,|22>) keeps gamma_a, (|10>,|22>)
    keeps gamma_b.
    """
    d = QUTRIT_PAIR
    m = np.array(initial_state(alpha).mat)
    ga, gb = retention(rate_a, t), retention(rate_b, t)
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


def sqrt_psd(a) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    An eigenvalue below TOL.psd_floor raises NotPSDError. Eigenvalues
    below SQRT_FLOOR times the largest, negative rounding included,
    are zeroed: a rank-deficient matrix's ~1e-17 rounding eigenvalues
    would otherwise add their ~3e-9 roots.
    """
    w, v = eig_hermitian(a)
    if w.size and float(w[0]) < TOL.psd_floor:
        raise NotPSDError(f"minimum eigenvalue {w[0]:.3e} below {TOL.psd_floor:.1e}")
    root = (v * np.sqrt(np.where(w < SQRT_FLOOR * w.max(initial=0.0), 0.0, w))) @ v.conj().T
    return (root + root.conj().T) / 2


def bures_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann-Bures fidelity [tr sqrt(sqrt(rho) sigma sqrt(rho))]^2.

    Evaluated as the squared trace norm of sqrt(rho) @ sqrt(sigma), which
    is the same quantity with far less rounding amplification near zero
    eigenvalues. Symmetric; 1 exactly when the states coincide.
    """
    if rho.dims != sigma.dims:
        raise BadShapeError(f"dims {rho.dims} and {sigma.dims} do not match")
    cross = sqrt_psd(rho.mat) @ sqrt_psd(sigma.mat)
    root_sum = float(np.sum(singular_values(cross)))
    return min(max(root_sum ** 2, 0.0), 1.0)


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


def family_by_definition(alpha, gamma_a, gamma_b, zeros, one, swapped: bool = False):
    """The family state under ground/excited dephasing, written out from
    its definition in any number type; swapped gives the mixture of
    swapped_family_by_mixture instead.

    (2/21) |psi><psi| with psi = |01> + |10> + |22> (|00> + |11> + |22>
    when swapped), plus alpha/21 on |00>, |12>, |21> and (5 - alpha)/21
    on |11>, |20>, |02> (|01>, |12>, |20> and |02>, |10>, |21> when
    swapped). A coherence keeps gamma_a when its side-A labels straddle
    {0} | {1, 2}, and gamma_b likewise on side B.

    zeros(9, 9) builds the matrix and one is the number type's unit:
    sympy.zeros and sympy.Integer(1) give exact entries, in which alpha
    and the retentions may be symbols; mpmath.zeros and mpmath.mpf(1)
    give entries at mpmath's working precision. The exponential enters
    only through the retentions, exp(-rate*t/2) in the caller's type.
    """
    d = QUTRIT_PAIR
    m = zeros(9, 9)
    triple = [(0, 0), (1, 1), (2, 2)] if swapped else [(0, 1), (1, 0), (2, 2)]
    for i in triple:
        for j in triple:
            m[d.flat(*i), d.flat(*j)] += 2 * one / 21
    for a in range(3):
        up, down = ((a, (a + 1) % 3), (a, (a - 1) % 3)) if swapped else ((a, 2 * a % 3), (a, (2 - a) % 3))
        m[d.flat(*up), d.flat(*up)] += alpha / 21
        m[d.flat(*down), d.flat(*down)] += (5 - alpha) / 21
    for i in range(9):
        for j in range(9):
            if (i // 3 == 0) != (j // 3 == 0):
                m[i, j] *= gamma_a
            if (i % 3 == 0) != (j % 3 == 0):
                m[i, j] *= gamma_b
    return m


def family_by_mpmath(alpha: float, swapped: bool, rate_a: float, rate_b: float, t):
    """family_by_definition as an mpmath matrix at the working precision,
    with the retentions exp(-rate*t/2) taken by mpmath.exp (t may be
    mpmath.inf: the infinite-time limit)."""
    gamma_a, gamma_b = (mpmath.exp(-mpmath.mpf(rate) * t / 2) for rate in (rate_a, rate_b))
    return family_by_definition(mpmath.mpf(alpha), gamma_a, gamma_b, mpmath.zeros, mpmath.mpf(1), swapped)


def family_fidelity_by_mpmath(alpha: float, swapped: bool, rate_a: float, rate_b: float, t):
    """Uhlmann fidelity [tr sqrt(sqrt(rho) sigma sqrt(rho))]^2 at 50 digits
    between the family state (the swapped one as the mixture of
    swapped_family_by_mixture) and its ground/excited evolution to time
    t (mpmath.inf for the infinite-time limit), as an mpmath number.

    Both states are real symmetric and built entry by entry from their
    definitions by family_by_mpmath; each root comes from a Jacobi
    eigendecomposition (mpmath.eigsy), with rounding-level negative
    eigenvalues set to zero.
    """
    with mpmath.workdps(50):
        rho = family_by_mpmath(alpha, swapped, rate_a, rate_b, 0)
        sigma = family_by_mpmath(alpha, swapped, rate_a, rate_b, t)
        w, q = mpmath.eigsy(rho)
        root = q * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * q.T
        return mpmath.fsum(mpmath.sqrt(max(x, 0)) for x in mpmath.eigsy(root * sigma * root)[0]) ** 2


def sweep_by_points(quantity: str, base: DensityMatrix, blocks, ts, gammas) -> str:
    """The witness and verdict sweep CSV, one grid point at a time.

    Every (t, gamma) point, t outer, is dephased on its own through
    channels.evolve and classified as a single state.
    """
    value = {
        "pt-min-eig": lambda s: f"{criteria.min_pt_eigenvalue(s):.12g}",
        "realignment": lambda s: f"{criteria.realignment_excess(s):.12g}",
        "verdict": lambda s: criteria.classify(s, blocks).verdict.value,
    }[quantity]
    rows = [["t", "gamma", "verdict" if quantity == "verdict" else "value"]] + [
        [f"{t:.12g}", f"{g:.12g}", value(evolve(base, GROUND_EXCITED, g, g, t))] for t in ts for g in gammas
    ]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def hermitize_by_passes(m: np.ndarray, passes: int = 1) -> np.ndarray:
    """(m + m†) / 2 in complex arithmetic, repeated: make_state's
    hermitization was one pass, sector_dephase's two."""
    for _ in range(passes):
        m = (m + m.conj().swapaxes(-1, -2)) / 2
    return m


def random_state_by_draws(rng: np.random.Generator, dims: Dims) -> DensityMatrix:
    """One random state drawn as two separate (n, n) normal draws, real
    then imaginary part, normalized on its own and validated by
    make_state, which random_state itself skips."""
    g = rng.standard_normal((dims.n, dims.n)) + 1j * rng.standard_normal((dims.n, dims.n))
    m = g @ g.conj().T
    return make_state(dims, m / np.trace(m).real)


def lemma_witnesses_by_samples(seed: int, samples: int) -> dict[str, np.ndarray]:
    """verify-lemmas' random-sample witnesses, one state at a time.

    Keys match the chunks of cli._sample_witnesses. A probe whose
    projection carries no weight gives a NaN witness. Every witness is computed for
    every state, including the second witnesses that the chunks compute
    only where their claim's first witness fires; a test applies that
    gate to this full result.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for s in [random_state_by_draws(rng, QUTRIT_PAIR) for _ in range(samples)]:
        lim = channels.infinite_limit(s)
        evolved = evolve(s, GROUND_EXCITED, 1.0, 1.0, 0.7)
        rows.append({
            "limit_pt_min": criteria.min_pt_eigenvalue(lim),
            "limit_excess": criteria.realignment_excess(lim),
            "parent_pt_min": criteria.min_pt_eigenvalue(s),
            "evolved_pt_min": criteria.min_pt_eigenvalue(evolved),
            "two_sided": family.two_sided_probe(s),
            "one_sided": family.one_sided_probe(evolved, "B"),
        })
    keys = ("limit_pt_min", "limit_excess", "two_sided", "parent_pt_min", "one_sided", "evolved_pt_min")
    return {key: np.array([row[key] for row in rows], dtype=float) for key in keys}


def allocation_peak(fn, *args) -> int:
    """The most memory, in bytes, that fn(*args) holds at once beyond
    what was allocated before the call, its result included, as
    tracemalloc traces it; numpy reports every array buffer to
    tracemalloc. fn runs once untraced first, so the caches it fills are
    not counted."""
    fn(*args)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
