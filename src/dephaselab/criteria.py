"""Entanglement and distillability classifiers.

The verdict lattice is built from two witnesses and one certificate:

* partial-transpose spectrum: a negative eigenvalue (NPT) witnesses free,
  distillable entanglement on the families treated here;
* realignment trace norm: an excess above 1 witnesses entanglement even
  for some PPT states (bound entanglement);
* block decomposition certificate: a sound, incomplete separability proof
  by decomposing the state into PPT two-qubit blocks plus a diagonal
  remainder.

States that are PPT, below the realignment threshold and not certified
stay PptUndetermined; the classifiers never guess.

Leading-axis convention: each classifier takes one state or a stack
(N, n, n) and is written once, over the stack. For one state a witness
is a float and a record a single record; for a stack a witness is an
(N,) array and a record a tuple of N records, member k's result
bit-identical to classifying member k alone.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .linalg import (
    TOL, CheckedRecord, DomainError, check_hermitian, check_nonneg, eigvals_hermitian, eigvals_hermitized, hermitize,
    singular_values, trace,
)
from .qstate import DensityMatrix, Dims, partial_transpose, project_local, realign


class CoverageError(DomainError):
    """A coherence of the state lies in no certificate block, or in two."""


class NoBracketError(ValueError):
    """Scalar function has the same sign at both bracket ends."""


class Verdict(str, Enum):
    NPT_FREE_ENTANGLED = "NptFreeEntangled"
    PPT_BOUND_ENTANGLED = "PptBoundEntangled"
    PPT_UNDETERMINED = "PptUndetermined"
    SEPARABLE_CERTIFIED = "SeparableCertified"


class Classification(NamedTuple):
    """Verdict plus the witness values it was based on.

    certificate_passed is None when no certificate was evaluated (either
    no blocks were supplied or an earlier witness already decided).
    """

    verdict: Verdict
    min_pt_eigenvalue: float
    realignment_excess: float
    certificate_passed: Optional[bool]


class BlockSpec(CheckedRecord, NamedTuple("BlockSpec", [
    ("a_labels", tuple[int, int]),
    ("b_labels", tuple[int, int]),
    ("diag_weights", tuple[float, float, float, float]),
])):
    """One two-qubit block of a separability certificate.

    a_labels and b_labels pick two local basis labels per side; the block
    keeps the coherences among the four selected composite states at full
    magnitude and takes the fraction diag_weights[k] of the k-th selected
    diagonal entry, in flat_indices order: (a0, b0), (a0, b1), (a1, b0),
    (a1, b1). Fractions let several blocks share one diagonal entry while
    their sum stays a valid decomposition. The fields are stored as
    tuples of ints and floats, so a block is immutable and hashable.
    """

    __slots__ = ()

    def __new__(cls, a_labels: Sequence[int], b_labels: Sequence[int], diag_weights: Sequence[float]) -> BlockSpec:
        try:
            labels = [tuple(map(operator.index, pair)) for pair in (a_labels, b_labels)]
        except TypeError:
            raise ValueError(f"block labels must be integers, got {a_labels} and {b_labels}") from None
        for pair, side in zip(labels, "ab"):
            if len(pair) != 2 or pair[0] == pair[1] or min(pair) < 0:
                raise ValueError(f"{side}_labels must be two distinct nonnegative labels, got {pair}")
        diag_weights = tuple(map(float, diag_weights))
        if len(diag_weights) != 4 or not all(0 < w <= 1 for w in diag_weights):
            raise ValueError(f"diag_weights must be 4 weights in (0, 1], got {diag_weights}")
        return super().__new__(cls, *labels, diag_weights)

    def flat_indices(self, dims: Dims) -> list[int]:
        """Composite indices of the four selected basis states, in weight order."""
        if max(self.a_labels) >= dims.da or max(self.b_labels) >= dims.db:
            raise ValueError(f"labels {self.a_labels} x {self.b_labels} lie outside dims ({dims.da}, {dims.db})")
        return [dims.flat(a, b) for a in self.a_labels for b in self.b_labels]


class CertificateResult(NamedTuple):
    """Certificate outcome with the evidence that produced it.

    block_minima[b] is the (minimum eigenvalue, minimum PT eigenvalue)
    pair of the b-th block given, in the order given.
    """

    passed: bool
    block_minima: tuple[tuple[float, float], ...]
    residual_diagonal_min: float


def _per_member(values: np.ndarray) -> float | np.ndarray:
    """One state's 0-d result as a float; a stack's (N,) array as it is."""
    return float(values) if values.ndim == 0 else values


def min_pt_eigenvalue(state: DensityMatrix) -> float | np.ndarray:
    """Smallest eigenvalue of the side-B partial transpose."""
    return _per_member(eigvals_hermitian(partial_transpose(state))[..., 0])


def realignment_excess(state: DensityMatrix) -> float | np.ndarray:
    """Trace norm of the realigned matrix minus 1.

    Positive excess witnesses entanglement; separable states are always
    at or below zero.
    """
    return _per_member(singular_values(realign(state)).sum(axis=-1) - 1.0)


def qubit_block_witness(
    state: DensityMatrix, a_labels: Sequence[int], b_labels: Sequence[int]
) -> float | np.ndarray:
    """Minimum PT eigenvalue of a normalized local projection.

    The package's one witness of a projected block: a 2x2 corner or a
    3x2 doublet. With two labels on one side a negative value is
    conclusive on the projection (NPT there means distillable) and lifts
    to the parent: a local projection of a PPT state is PPT, so a
    negative witness certifies the parent state distillable (Horodecki,
    PRL 80, 5239).

    A state, or a stack member, whose block has trace below
    TOL.zero_trace gets a NaN witness, which fails every test against
    -TOL.verdict.
    """
    block = project_local(state, tuple(a_labels), tuple(b_labels))
    tr = trace(block.mat).real
    live = tr >= TOL.zero_trace
    with np.errstate(invalid="ignore"):  # a non-finite entry gives NaN, which the Hermiticity check rejects
        normalized = block.mat / np.where(live, tr, 1.0)[..., None, None]
    normalized.setflags(write=False)  # fresh, so DensityMatrix holds it without a copy
    return _per_member(np.where(live, min_pt_eigenvalue(DensityMatrix(normalized, block.dims)), np.nan))


def separability_certificate(
    state: DensityMatrix, blocks: Sequence[BlockSpec]
) -> CertificateResult | tuple[CertificateResult, ...]:
    """Try to certify separability by a block decomposition.

    Builds one padded matrix per block: coherences among its four
    composite states at full magnitude, diagonals scaled by the block's
    weights. Coverage is exact: each off-diagonal entry that is not
    exactly zero, NaN included, lies in exactly one block, so the
    residual (state minus all embedded blocks) is exactly diagonal. The
    certificate passes when every block is PSD and PPT as a 2x2-by-2x2
    state and the residual's diagonal is nonnegative. Each float minimum
    is tested against 0 with no negative slack, since a block with a
    negative eigenvalue is not separable. A block, or its partial
    transpose, with an exactly zero diagonal entry in a row that holds a
    nonzero entry fails whatever its float minima read: it is exactly
    not PSD, though its minimum can underflow to 0.0. Each passing block
    is then separable (PPT is sufficient at these dimensions) and the
    residual is a mixture of product basis states, so passing proves
    the state separable. Failing proves nothing.

    Raises CoverageError when a nonzero or non-finite off-diagonal entry
    of the state lies in no block or in more than one, or when the
    diagonal weights allocated to one entry exceed 1; for a stack, the
    error is the one the first failing member raises alone. Raises
    ValueError when a block's label lies outside the state's local
    dimensions.

    Returns one CertificateResult for one state, and a plain tuple of
    them for a stack; a CertificateResult is itself a tuple, so test
    isinstance(result, CertificateResult) to tell the two apart.
    """
    passed, minima, res_diag = _certify(state.stack, state.dims, blocks)
    # One transpose turns the (B, 2, N) minima into each member's B pairs.
    columns = passed.tolist(), minima.transpose(2, 0, 1).tolist(), res_diag.tolist()
    members = tuple(CertificateResult(ok, tuple(map(tuple, pairs)), d) for ok, pairs, d in zip(*columns))
    return members if state.mat.ndim == 3 else members[0]


def _certify(mats: np.ndarray, dims: Dims, blocks: Sequence[BlockSpec]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The certificate over an (N, n, n) stack.

    One index gathers the B blocks of every member into a (B * N, 4, 4)
    stack. Their Hermitian parts, then their partial transposes, form one
    (2 * B * N, 4, 4) stack for one eigensolve and one zero-pivot pass;
    a block's values are those of its own eigensolve. The PT half's
    Hermiticity check rejects a non-finite block.
    Coverage is exact, so only the residual's diagonal is built: the
    state's diagonal minus each block's weighted one, in block order.

    Returns (passed, minima, residual_diagonal_min) as arrays over the
    members; minima, of shape (B, 2, N), holds each block's minimum
    eigenvalue and minimum PT eigenvalue.
    """
    n, size = dims.n, len(mats)
    idx, weights, cover, diag_alloc = _layout(tuple(blocks), dims)
    count = len(idx)
    # Block major, so the Hermiticity check reports block 0's members first.
    padded = np.ascontiguousarray(mats[:, idx[:, :, None], idx[:, None, :]].swapaxes(0, 1))
    block_diag = padded.reshape(count, size, 16)[..., ::5]  # each block's diagonal, as a view
    block_diag *= weights[:, None, :]
    padded = padded.reshape(-1, 4, 4)
    pt = partial_transpose(DensityMatrix(padded, Dims(2, 2)))
    check_hermitian(pt)
    stack = np.concatenate((hermitize(padded), pt))
    minima = eigvals_hermitized(stack)[:, 0].reshape(2, count, size).swapaxes(0, 1)
    zero_pivot = _zero_pivot(stack).reshape(2 * count, size).any(axis=0)
    live = (mats != 0) & ~np.eye(n, dtype=bool)
    overallocated = (diag_alloc > 1 + TOL.allocation_slack).any()
    failing = np.flatnonzero((live & (cover != 1)).any(axis=(1, 2)) | overallocated)
    if failing.size:
        k = failing[0]
        ket = [f"|{a},{b}>" for a in range(dims.da) for b in range(dims.db)]  # by flat index
        for hit, where in ((live[k] & (cover == 0), "no block"), (live[k] & (cover > 1), "more than one block")):
            if hit.any():
                i, j = np.argwhere(hit)[0]
                raise CoverageError(f"coherence between {ket[i]} and {ket[j]} lies in {where}")
        i = int(np.argmax(diag_alloc))
        raise CoverageError(f"diagonal entry {ket[i]} allocated weight {diag_alloc[i]:.6f} > 1")
    allocated = np.zeros((size, n))
    for b in range(count):
        allocated[:, idx[b]] += block_diag[b].real
    res_diag = (mats.diagonal(axis1=-2, axis2=-1).real - allocated).min(axis=-1)
    passed = (minima >= 0.0).all(axis=(0, 1)) & ~zero_pivot & (res_diag >= 0.0)
    return passed, minima, res_diag


@functools.lru_cache(maxsize=16)
def _layout(blocks: tuple[BlockSpec, ...], dims: Dims) -> tuple[np.ndarray, ...]:
    """_certify's read-only block layout, built once per (blocks, dims):
    the (B, 4) flat indices and diagonal weights of the blocks, how many
    blocks hold each entry of the (n, n) state, and how much of each
    diagonal entry they take in all."""
    n, count = dims.n, len(blocks)
    idx = np.array([block.flat_indices(dims) for block in blocks], dtype=int).reshape(count, 4)
    weights = np.array([b.diag_weights for b in blocks]).reshape(count, 4)
    pairs = (idx[:, :, None] * n + idx[:, None, :])[:, ~np.eye(4, dtype=bool)]
    cover = np.bincount(pairs.ravel(), minlength=n * n).reshape(n, n)
    diag_alloc = np.bincount(idx.ravel(), weights.ravel(), minlength=n)
    for array in (idx, weights, cover, diag_alloc):
        array.setflags(write=False)
    return idx, weights, cover, diag_alloc


def _zero_pivot(mats: np.ndarray) -> np.ndarray:
    """Whether each Hermitian matrix of a stack has a zero diagonal entry
    in a row that holds a nonzero entry. Such a matrix is exactly not PSD,
    since the 2x2 principal minor [[0, x], [x*, d]] is -|x|^2 < 0, even
    where its float minimum eigenvalue underflows to 0.0."""
    return ((mats.diagonal(axis1=-2, axis2=-1) == 0) & (mats != 0).any(axis=-1)).any(axis=-1)


def classify(
    state: DensityMatrix, cert_blocks: Optional[Sequence[BlockSpec]] = None
) -> Classification | tuple[Classification, ...]:
    """Full verdict: NPT beats realignment beats certificate.

    NptFreeEntangled when the PT spectrum dips below -TOL.verdict;
    otherwise PptBoundEntangled when the realignment excess exceeds
    TOL.verdict; otherwise SeparableCertified if the supplied blocks
    certify, and PptUndetermined when they do not or none were given.
    The certificate runs only on the members the witnesses leave open.

    Returns one Classification for one state, and a plain tuple of them
    for a stack; a Classification is itself a tuple, so test
    isinstance(result, Classification) to tell the two apart.
    """
    pt_min = np.atleast_1d(min_pt_eigenvalue(state)).tolist()
    excess = np.atleast_1d(realignment_excess(state)).tolist()
    npt = [p < -TOL.verdict for p in pt_min]
    bound = [e > TOL.verdict for e in excess]
    passed = [None] * len(pt_min)
    if cert_blocks is not None:
        undecided = [k for k, (is_npt, is_bound) in enumerate(zip(npt, bound)) if not (is_npt or is_bound)]
        if undecided:
            for k, ok in zip(undecided, _certify(state.stack[undecided], state.dims, cert_blocks)[0].tolist()):
                passed[k] = ok
    members = tuple(
        Classification(
            Verdict.NPT_FREE_ENTANGLED if is_npt
            else Verdict.PPT_BOUND_ENTANGLED if is_bound
            else Verdict.SEPARABLE_CERTIFIED if ok
            else Verdict.PPT_UNDETERMINED,
            p, e, ok,
        )
        for p, e, is_npt, is_bound, ok in zip(pt_min, excess, npt, bound, passed)
    )
    return members if state.mat.ndim == 3 else members[0]


def find_sign_change(f: Callable[[float], float], t_lo: float, t_hi: float, tol: float = TOL.bisection) -> float:
    """Bisection root of a scalar function bracketed by [t_lo, t_hi].

    Requires finite ends with t_lo <= t_hi (ValueError otherwise) and a
    sign change across the bracket (NoBracketError otherwise); an
    endpoint evaluating to exactly zero is returned as the root. Stops
    once the bracket is tol wide, or once its midpoint rounds to an end
    (float spacing wider than tol, far from zero).

    Ends by construction: the midpoint t_lo/2 + t_hi/2 cannot overflow
    and lies in the bracket, so a pass that goes on moves an end strictly
    inward and halves the width, and the midpoint rounds to an end within
    about 2,100 passes (1,024 binades plus 1,074 subnormal steps). It is
    (t_lo + t_hi)/2 to the bit wherever halving an end is exact. A
    non-finite end is rejected: an infinite one would come back as the
    root, and with a NaN one no midpoint would ever equal an end. A
    reversed bracket is rejected too: its negative width would pass the
    first width test and return the midpoint as the root.
    """
    if not (math.isfinite(t_lo) and math.isfinite(t_hi) and t_lo <= t_hi):
        raise ValueError(f"bracket ends must be finite with t_lo <= t_hi, got [{t_lo}, {t_hi}]")
    f_lo = f(t_lo)
    f_hi = f(t_hi)
    if f_lo == 0.0:
        return t_lo
    if f_hi == 0.0:
        return t_hi
    if (f_lo > 0) == (f_hi > 0):
        raise NoBracketError(f"f({t_lo}) = {f_lo:.3e} and f({t_hi}) = {f_hi:.3e} share a sign")
    while True:
        mid = t_lo / 2 + t_hi / 2
        if t_hi - t_lo <= tol or mid in (t_lo, t_hi):
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_hi > 0):
            t_hi, f_hi = mid, f_mid
        else:
            t_lo = mid


def crossing_time(curve: Callable[[float], float], rate: float) -> float:
    """Root of curve on t >= 0 by doubling then bisection; inf past the horizon.

    Every curve here is a function of rate * t, so the search scales with
    1/rate: the horizon TOL.crossing_horizon grows by 1/min(rate, 1) up to
    the largest double, and the tolerance TOL.bisection shrinks by 1/max(rate, 1).
    The doubling probes the horizon itself last, so inf means no crossing
    up to the horizon, not up to the last power of two below it.
    The sign test treats values in [0, TOL.sign_floor] as not yet
    positive, so a curve that only decays to zero (never genuinely
    crossing) reports inf instead of chasing eigensolver noise. The
    bisection keeps raw signs, which bracket the doubling's crossing
    unless both ends are positive (one in (0, TOL.sign_floor]); then it
    bisects curve - TOL.sign_floor, whose sign is the doubling's test.
    A witness can sit in (0, TOL.sign_floor] a few bracket widths from a
    real root, so the raw zero is kept wherever it exists.
    Raises DomainError unless rate is finite and positive.
    """
    rate = check_nonneg("rate", rate, positive=True)
    cap = min(TOL.crossing_horizon / min(rate, 1.0), sys.float_info.max)
    start = curve(0.0)
    hi = 0.5
    while True:
        t = min(hi, cap)
        end = curve(t)
        if (end > TOL.sign_floor) != (start > TOL.sign_floor):
            floor = TOL.sign_floor if start > 0 and end > 0 else 0.0
            return find_sign_change(lambda x: curve(x) - floor, 0.0, t, tol=TOL.bisection / max(rate, 1.0))
        if t == cap:
            return math.inf
        hi *= 2


def transition_times(evolved: Callable[[float], DensityMatrix], rate: float) -> tuple[Optional[float], float]:
    """(PPT onset, realignment zero) of t -> evolved(t), each by crossing_time;
    the onset is None when evolved(0) is PPT (PT minimum >= -TOL.verdict)."""
    def pt_curve(t: float) -> float:
        return min_pt_eigenvalue(evolved(t))

    onset = None if pt_curve(0.0) >= -TOL.verdict else crossing_time(pt_curve, rate)
    return onset, crossing_time(lambda t: realignment_excess(evolved(t)), rate)
