"""Dense Hermitian linear algebra with explicit tolerance contracts.

Thin wrappers over LAPACK (through numpy.linalg) that validate inputs,
fix output conventions (eigenvalues ascending, singular values descending,
square roots positive semidefinite) and translate failures into typed
errors. Every numeric tolerance used across the package lives in the
Tolerances record so callers and tests share a single source of truth.

Leading-axis convention: check_hermitian, eig_hermitian,
eigvals_hermitian and singular_values take one matrix or a stack of N
matrices (N, n, m) and return the members' results along the same
leading axis. numpy runs the same LAPACK call on each member, so a
member's result is bit-identical to the result for that matrix alone.
sqrt_psd takes one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NotSquareError(ValueError):
    """Matrix is not square (or not 2-dimensional)."""


class NotHermitianError(ValueError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPSDError(ValueError):
    """Matrix has an eigenvalue below the positive-semidefinite floor."""


class NoConvergenceError(RuntimeError):
    """The underlying eigenvalue / singular value iteration did not converge."""


@dataclass(frozen=True)
class Tolerances:
    """Shared numeric tolerances.

    hermitian and trace are relative to matrices of unit scale; psd_floor
    is the (negative) eigenvalue floor below which a matrix stops counting
    as positive semidefinite.
    """

    hermitian: float = 1e-12             # vs max(1, Frobenius norm)
    trace: float = 1e-12                 # |tr - 1| for density matrices
    psd_floor: float = -1e-10            # eigenvalue floor for PSD checks
    residual: float = 1e-10              # eigendecomposition residual / unitarity
    sqrt_residual: float = 1e-9          # sqrt_psd(a) @ sqrt_psd(a) vs a
    zero_trace: float = 1e-12            # projected weight below this is "zero"
    verdict: float = 1e-10               # entanglement witness threshold
    coherence_floor: float = 1e-14       # |entry| above this is a coherence a certificate must cover
    allocation_slack: float = 1e-12      # certificate blocks may allocate 1 + this of a diagonal entry
    residual_offdiagonal: float = 1e-12  # certificate residual must be diagonal to this
    sign_floor: float = 1e-12            # crossing search: values in [0, sign_floor] are not positive


TOL = Tolerances()


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise NotSquareError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def check_hermitian(a: np.ndarray, tol: float = TOL.hermitian) -> None:
    """Raise NotHermitianError unless a == a† within tol * max(1, ||a||_F).

    A stack (N, n, n) is checked member by member; the error reports the
    first member that fails.
    """
    dev = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    if (dev <= tol).all():
        return  # the scale is at least 1, so no norm is needed
    bound = tol * np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))
    failing = np.flatnonzero(dev > bound)
    if failing.size:
        k = failing[0]
        raise NotHermitianError(
            f"Hermiticity deviation {dev.flat[k]:.3e} exceeds {bound.flat[k]:.3e}"
        )


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

    Eigenvalues within the rounding band [TOL.psd_floor, 0) are clipped to
    zero; anything below the floor raises NotPSDError. The result r
    satisfies r @ r = a within TOL.sqrt_residual.
    """
    w, v = eig_hermitian(a)
    if w.size and float(w[0]) < TOL.psd_floor:
        raise NotPSDError(f"minimum eigenvalue {w[0]:.3e} below {TOL.psd_floor:.1e}")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (root + root.conj().T) / 2
