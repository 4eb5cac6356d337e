"""Dense Hermitian linear algebra with explicit tolerance contracts.

Thin wrappers over LAPACK (through numpy.linalg) that validate inputs,
fix output conventions (eigenvalues ascending, singular values
descending) and translate failures into typed errors. Every numeric
tolerance used across the package lives in the Tolerances record so
callers and tests share a single source of truth.
DomainError is the base of every error that says an input lies outside
the physical domain, check_nonneg's among them (the package's one rule
for a rate and a time); the command line maps it, and only it, to exit 3.

Leading-axis convention: check_hermitian, hermitize, trace,
eig_hermitian, eigvals_hermitian, eigvals_hermitized and singular_values
take one matrix or a stack of N matrices (N, n, m) and return the
members' results along the same leading axis. numpy runs the same
LAPACK call on each member, so a member's result is bit-identical to
the result for that matrix alone.

Block-by-block spectra: eigvals_hermitized (so eigvals_hermitian too)
and singular_values split each member into the connected blocks of its
nonzero pattern: the symmetric pattern for Hermitian input, the
bipartite row-column pattern for singular values. Each group of
equal-shape blocks is one stacked LAPACK call, a 1x1 block is read off
directly, an empty row or column adds a zero singular value, and the
values are sorted as the dense call sorts them. This is exact, since a
block-diagonal matrix's spectrum is the union of its blocks' spectra,
and only the rounding differs from the dense call (about 1e-16 on unit
scale). The states that local dephasing derives from the family, and
every infinite-time limit, are block diagonal up to a permutation. The
split of each pattern is computed once and cached. Members are grouped
by their own pattern, so each is split as it would be alone and keeps
the bit-identity above. A pattern that is one block (a random full-rank
state) is one dense call, as are matrices no longer than DENSE_MAX_SIDE
on either side (the certificate's 4x4 blocks), where splitting costs
more than it saves.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np


class DomainError(ValueError):
    """A parameter or matrix lies outside the physical domain."""


def check_nonneg(name: str, value, positive: bool = False):
    """value as a float, refused with DomainError unless finite and
    nonnegative (a rate or a time), or finite and positive when asked;
    a value that is not a real number, such as a string, is a TypeError.
    What numpy reads with ndim >= 1 (a list, a tuple, a range, an array)
    comes back as a float array, refused by its minimum (NaN if it holds
    one) and its maximum."""
    if not isinstance(value, (int, float)):
        array = np.asarray(value)
        if array.ndim:
            if array.size:
                check_nonneg(name, array.min(), positive)
                check_nonneg(name, array.max(), positive)
            return array.astype(float)
    if math.isfinite(value) and (value > 0 if positive else value >= 0):
        return float(value)
    raise DomainError(f"{name} must be finite and {'positive' if positive else 'nonnegative'}, got {float(value)}")


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
    zero_trace: float = 1e-12            # projected weight below this is "zero"
    verdict: float = 1e-10               # entanglement witness threshold
    coherence_floor: float = 1e-14       # mc_report: a state with an off-diagonal |a_ij| above this is entangled
    allocation_slack: float = 1e-12      # certificate blocks may allocate 1 + this of a diagonal entry
    sign_floor: float = 1e-12            # crossing search: values in [0, sign_floor] are not positive
    bisection: float = 1e-9              # bisection stops once its bracket is this narrow (/ rate above 1)
    crossing_horizon: float = 1e6        # crossing search reports no crossing (inf) past this time (/ rate below 1)
    mc_pattern: float = 1e-12            # |entry| up to this is zero in a maximally correlated pattern


TOL = Tolerances()


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise NotSquareError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    """a† as a new C-ordered complex array: a transposed copy, conjugated
    in place. A ufunc reading the transposed view directly stages it
    through an 8192-element buffer, 128 KiB, more than a (64, 9, 9)
    stack."""
    out = np.array(a.swapaxes(-1, -2), dtype=complex, order="C")
    np.conjugate(out, out=out)
    return out


def check_hermitian(a: np.ndarray) -> None:
    """Raise NotHermitianError unless a == a† within TOL.hermitian * max(1, ||a||_F).

    A stack (N, n, n) is checked member by member; the error reports the
    first member that fails. A NaN or infinite entry fails, without a
    numpy warning: it makes the deviation NaN or inf, and an infinite
    bound would let either through.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and an overflowing norm fail below
        diff = _adjoint(a)
        np.subtract(a, diff, out=diff)
        dev = np.abs(diff)
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

    The result is a new read-only array that owns its data, so
    DensityMatrix holds it without a copy. It is built in place: a†,
    then a added to it (the same sums as a + a†), so its only temporary
    is the half-size sign pass.
    """
    out = _adjoint(a)
    out += a
    parts = out.view(np.float64)
    parts *= 0.5
    x, y = out.real, out.imag  # views, each updated on its own: a broadcast z would be buffered
    z = x * 0.0  # a zero with the sign of x
    x -= z
    y -= z
    out.setflags(write=False)
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
    is Hermitian by construction, such as the output of hermitize, or
    already checked. Solved block by block (see the module docstring)."""
    return _blockwise(a, True, np.linalg.eigvalsh)


def singular_values(a) -> np.ndarray:
    """Singular values of any (possibly rectangular) matrix, descending.
    Solved block by block (see the module docstring)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3):
        raise NotSquareError(f"expected a matrix or a stack of them, got shape {a.shape}")
    return _blockwise(a, False, lambda x: np.linalg.svd(x, compute_uv=False))


# Matrices whose longer side is at most this stay one dense LAPACK call.
# Splitting the certificate's 4x4 blocks as well (each is two 2x2 blocks
# and two 1x1 entries) made `thresholds --alpha 4.5` 56% slower in
# process (10.6 -> 16.6 ms, medians of 24 interleaved runs on a 2-vCPU
# VM with one BLAS thread), and a 1001-point verdict sweep 4% slower:
# at that size the gathers cost more than the solves they save.
DENSE_MAX_SIDE = 4


@functools.lru_cache(maxsize=256)
def _split(shape: tuple[int, int], pattern: bytes, hermitian: bool) -> Optional[tuple]:
    """The connected blocks of an (n, m) nonzero pattern (a bool mask's
    bytes), or None when it is one block, which one dense call solves.

    A Hermitian matrix's rows and columns share their labels, so its
    blocks are the components of the symmetric pattern, all square.
    Otherwise rows and columns are the two sides of a bipartite graph,
    a block may be rectangular, and a row or column that is all zero
    belongs to none. Returns (index, groups, zeros): index lists the
    flat positions of every block's entries, block after block; groups
    gives each group of equal-shape blocks as (slice of index, (B, r, c));
    zeros counts the zero singular values that empty rows and columns add.
    """
    n, m = shape
    parent = list(range(n if hermitian else n + m))  # column j is node n + j in the bipartite graph

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in np.argwhere(np.frombuffer(pattern, dtype=bool).reshape(n, m)).tolist():
        parent[root(i)] = root(j if hermitian else n + j)
    components = {}
    for x in range(len(parent)):
        components.setdefault(root(x), []).append(x)
    groups = {}
    for nodes in components.values():
        rows = [x for x in nodes if x < n]
        cols = rows if hermitian else [x - n for x in nodes if x >= n]
        if rows and cols:
            groups.setdefault((len(rows), len(cols)), []).append([[i * m + j for j in cols] for i in rows])
    if list(groups) == [(n, m)]:
        return None
    index, slices = [], []
    for shape in sorted(groups):
        start = len(index)
        index += [k for block in groups[shape] for row in block for k in row]
        slices.append((slice(start, len(index)), (len(groups[shape]),) + shape))
    index = np.array(index, dtype=int)
    index.setflags(write=False)
    return index, tuple(slices), min(n, m) - sum(len(group) * min(shape) for shape, group in groups.items())


def _blockwise(a: np.ndarray, hermitian: bool, solve) -> np.ndarray:
    """solve, a stacked LAPACK call, applied block by block to each
    member of a (one matrix or a stack), by the member's own nonzero
    pattern; see the module docstring."""
    try:
        if max(a.shape[-2:]) <= DENSE_MAX_SIDE or a.size == 0:
            return solve(a)
        stack = a.reshape((-1,) + a.shape[-2:])
        masks = (stack != 0).reshape(len(stack), -1)
        if len(stack) == 1 or (masks == masks[0]).all():
            return _solve_split(a, masks[0].tobytes(), hermitian, solve)
        patterns, which = np.unique(masks.view(np.dtype((np.void, masks.shape[1])))[:, 0], return_inverse=True)
        out = np.empty((len(stack), min(a.shape[-2:])))
        for k, pattern in enumerate(patterns):
            members = which == k
            out[members] = _solve_split(stack[members], pattern.tobytes(), hermitian, solve)
        return out
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc


def _solve_split(a: np.ndarray, pattern: bytes, hermitian: bool, solve) -> np.ndarray:
    """solve over a, one matrix or a stack whose members all have the
    nonzero pattern given: one gather of every block's entries, each
    group of equal-shape blocks as one stacked call, a 1x1 block read
    off directly, and the values sorted as the dense call sorts them."""
    split = _split(a.shape[-2:], pattern, hermitian)
    if split is None:
        return solve(a)
    index, groups, zeros = split
    count = 1 if a.ndim == 2 else len(a)
    entries = a.reshape(count, -1)[:, index]
    parts = [np.zeros((count, zeros))] if zeros else []
    for where, (blocks, r, c) in groups:
        if r == c == 1:
            parts.append(entries[:, where].real if hermitian else np.abs(entries[:, where]))
        else:
            parts.append(solve(entries[:, where].reshape(count, blocks, r, c)).reshape(count, -1))
    values = np.concatenate(parts, axis=-1)
    values.sort(axis=-1)
    return (values if hermitian else values[:, ::-1]).reshape(a.shape[:-2] + values.shape[-1:])
