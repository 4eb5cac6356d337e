"""Dense Hermitian linear algebra with explicit tolerance contracts.

Thin wrappers over LAPACK (through numpy.linalg) that validate inputs,
fix output conventions (eigenvalues ascending, singular values descending,
square roots positive semidefinite) and translate failures into typed
errors. Every numeric tolerance used across the package lives in the
Tolerances record so callers and tests share a single source of truth.
DomainError is the base of every error that says an input lies outside
the physical domain; the command line maps it, and only it, to exit 3.

Leading-axis convention: check_hermitian, hermitize, trace,
eig_hermitian, eigvals_hermitian, eigvals_hermitized and singular_values
take one matrix or a stack of N matrices (N, n, m) and return the
members' results along the same leading axis. numpy runs the same
LAPACK call on each member, so a member's result is bit-identical to
the result for that matrix alone. sqrt_psd takes one matrix.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class DomainError(ValueError):
    """A parameter or matrix lies outside the physical domain."""


class CheckedRecord:
    """Base for a NamedTuple record whose __new__ validates its fields:
    _make, and so _replace, build through __new__ as well."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class NotSquareError(ValueError):
    """Matrix is not square (or not 2-dimensional)."""


class NotHermitianError(DomainError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPSDError(DomainError):
    """Matrix has an eigenvalue below the positive-semidefinite floor."""


class NoConvergenceError(RuntimeError):
    """The underlying eigenvalue / singular value iteration did not converge."""


class Tolerances(NamedTuple):
    """Shared numeric tolerances.

    hermitian and trace are relative to matrices of unit scale; psd_floor
    is the (negative) eigenvalue floor below which a matrix stops counting
    as positive semidefinite.
    """

    hermitian: float = 1e-12             # vs max(1, Frobenius norm)
    trace: float = 1e-12                 # |tr - 1| for density matrices
    psd_floor: float = -1e-10            # eigenvalue floor for PSD checks
    residual: float = 1e-10              # eigendecomposition residual / unitarity
    sqrt_floor: float = 1e-12            # sqrt_psd zeroes eigenvalues below this times the largest
    zero_trace: float = 1e-12            # projected weight below this is "zero"
    verdict: float = 1e-10               # entanglement witness threshold
    coherence_floor: float = 1e-14       # |entry| above this is a coherence a certificate must cover
    allocation_slack: float = 1e-12      # certificate blocks may allocate 1 + this of a diagonal entry
    residual_offdiagonal: float = 1e-12  # certificate residual must be diagonal to this
    sign_floor: float = 1e-12            # crossing search: values in [0, sign_floor] are not positive
    bisection: float = 1e-9              # bisection stops once its bracket is this narrow (/ rate above 1)
    crossing_horizon: float = 1e6        # crossing search reports no crossing (inf) past this time (/ rate below 1)
    mc_pattern: float = 1e-12            # |entry| up to this is zero in a maximally correlated pattern
    kraus_completeness: float = 1e-12    # sum of K†K may deviate from the identity by this, entrywise


TOL = Tolerances()


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise NotSquareError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def check_hermitian(a: np.ndarray) -> None:
    """Raise NotHermitianError unless a == a† within TOL.hermitian * max(1, ||a||_F).

    A stack (N, n, n) is checked member by member; the error reports the
    first member that fails. A NaN or infinite entry fails, without a
    numpy warning: it makes the deviation NaN or inf, and an infinite
    bound would let either through.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and an overflowing norm fail below
        dev = np.abs(a - a.conj().swapaxes(-1, -2))
        if dev.max(initial=0.0) <= TOL.hermitian:
            return  # the scale is at least 1, so no norm is needed; NaN lands below
        dev = dev.max(axis=(-2, -1), initial=0.0)
        bound = TOL.hermitian * np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))
    failing = np.flatnonzero(~(dev <= bound) | np.isinf(bound))
    if failing.size:
        k = failing[0]
        raise NotHermitianError(
            f"Hermiticity deviation {dev.flat[k]:.3e} is not within the finite bound {bound.flat[k]:.3e}"
        )


def hermitize(a: np.ndarray) -> np.ndarray:
    """The Hermitian part (a + a†) / 2, as a bitwise fixed point.

    With x = re(a + aᵀ) and y = im(a - aᵀ), each entry is
    (x/2 - z, y/2 - z), z being a zero with the sign of x: a real zero is
    always +0.0, and an imaginary zero is +0.0 where x has its sign bit
    set. Each output pair then has re[j, i] == re[i, j] and
    im[j, i] == -im[i, j] (or both +0.0), which the formula maps to
    itself: hermitize is idempotent bit for bit, signed zeros and
    subnormals included. One complex pass of (a + a†) / 2 gives
    ((x + y*0) / 2, (y - x*0) / 2) instead, whose cross terms can leave
    a zero sign that a second pass flips. Where that pass is already a
    fixed point the bits are the same, and it is one on every matrix
    without -0.0 entries whose entries and entry sums stay clear of the
    subnormal range.
    """
    out = np.add(a, a.conj().swapaxes(-1, -2), out=np.empty(a.shape, dtype=complex))
    parts = out.view(np.float64).reshape(out.shape + (2,))
    parts *= 0.5
    parts -= parts[..., :1] * 0.0  # a zero with the sign of x
    return out


def trace(a: np.ndarray) -> np.ndarray:
    """Trace of a matrix, or of each member of a stack.

    Each diagonal is summed as one contiguous row. np.trace over a stack
    sums the strided diagonals in another order, which changes the last
    bit of about a quarter of 4x4 traces against np.trace of the member.
    """
    return np.ascontiguousarray(a.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v): w real ascending, columns of v orthonormal, with
    a @ v = v @ diag(w) within TOL.residual.
    """
    a = _as_square(a)
    check_hermitian(a)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return w, v


def eigvals_hermitian(a) -> np.ndarray:
    """Eigenvalues only (real, ascending) of a Hermitian matrix."""
    a = _as_square(a)
    check_hermitian(a)
    return eigvals_hermitized(a)


def eigvals_hermitized(a: np.ndarray) -> np.ndarray:
    """eigvals_hermitian without the Hermiticity check, for a matrix that
    is Hermitian by construction, such as the output of hermitize."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc


def singular_values(a) -> np.ndarray:
    """Singular values of any (possibly rectangular) matrix, descending."""
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3):
        raise NotSquareError(f"expected a matrix or a stack of them, got shape {a.shape}")
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc


def sqrt_psd(a) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    An eigenvalue below TOL.psd_floor raises NotPSDError. Eigenvalues
    below TOL.sqrt_floor times the largest, negative rounding included,
    are zeroed: a rank-deficient matrix's ~1e-17 rounding eigenvalues
    would otherwise add their ~3e-9 roots.
    """
    w, v = eig_hermitian(a)
    if w.size and float(w[0]) < TOL.psd_floor:
        raise NotPSDError(f"minimum eigenvalue {w[0]:.3e} below {TOL.psd_floor:.1e}")
    root = (v * np.sqrt(np.where(w < TOL.sqrt_floor * w.max(initial=0.0), 0.0, w))) @ v.conj().T
    return (root + root.conj().T) / 2
