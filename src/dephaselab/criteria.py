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
bit-identical to classifying member k alone, except that
qubit_block_witness gives NaN where the member alone raises.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .linalg import (
    TOL, CheckedRecord, DomainError, eigvals_hermitian, eigvals_hermitized, singular_values, sqrt_psd, trace,
)
from .qstate import BadShapeError, DensityMatrix, Dims, ZeroTraceError, partial_transpose, project_local, realign


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
    ("diag_weights", Mapping[int, float]),
])):
    """One two-qubit block of a separability certificate.

    a_labels and b_labels pick two local basis labels per side; the block
    keeps the coherences among the four selected composite states at full
    magnitude and takes the fraction diag_weights[flat_index] of each
    selected diagonal entry (default 1). Fractions let several blocks
    share one diagonal entry while their sum stays a valid decomposition.
    """

    __slots__ = ()

    def __new__(
        cls, a_labels: tuple[int, int], b_labels: tuple[int, int], diag_weights: Mapping[int, float]
    ) -> BlockSpec:
        for pair, side in ((a_labels, "a"), (b_labels, "b")):
            if len(pair) != 2 or pair[0] == pair[1] or any(x < 0 for x in pair):
                raise ValueError(f"{side}_labels must be two distinct nonnegative labels, got {pair}")
        for idx, w in diag_weights.items():
            if not 0 < w <= 1:
                raise ValueError(f"diagonal weight for index {idx} must be in (0, 1], got {w}")
        return super().__new__(cls, a_labels, b_labels, diag_weights)

    def flat_indices(self, dims: Dims) -> list[int]:
        """Composite indices of the four selected basis states."""
        return [dims.flat(a, b) for a in self.a_labels for b in self.b_labels]


class BlockDiagnostic(NamedTuple):
    """Per-block outcome of a certificate evaluation."""

    a_labels: tuple[int, int]
    b_labels: tuple[int, int]
    min_eigenvalue: float
    min_pt_eigenvalue: float

    @property
    def psd(self) -> bool:
        return self.min_eigenvalue >= TOL.psd_floor

    @property
    def ppt(self) -> bool:
        return self.min_pt_eigenvalue >= TOL.psd_floor


class CertificateResult(NamedTuple):
    """Certificate outcome with the evidence that produced it."""

    passed: bool
    blocks: tuple[BlockDiagnostic, ...]
    residual_diagonal_min: float
    residual_offdiagonal_max: float


def _per_member(values: np.ndarray) -> float | np.ndarray:
    """One state's 0-d result as a float; a stack's (N,) array as it is."""
    return float(values) if values.ndim == 0 else values


def min_pt_eigenvalue(state: DensityMatrix) -> float | np.ndarray:
    """Smallest eigenvalue of the side-B partial transpose."""
    return _per_member(eigvals_hermitian(partial_transpose(state, "B"))[..., 0])


def realignment_excess(state: DensityMatrix) -> float | np.ndarray:
    """Trace norm of the realigned matrix minus 1.

    Positive excess witnesses entanglement; separable states are always
    at or below zero.
    """
    return _per_member(singular_values(realign(state)).sum(axis=-1) - 1.0)


def qubit_block_witness(
    state: DensityMatrix, a_labels: Sequence[int], b_labels: Sequence[int], branch: float = 1.0
) -> float | np.ndarray:
    """Minimum PT eigenvalue of a normalized local projection.

    The package's one witness of a projected block: a 2x2 corner, a 3x2
    doublet, or a channel branch whose weight carries the factor branch.
    With two labels on one side a negative value is conclusive on the
    projection (NPT there means distillable) and lifts to the parent: a
    local projection of a PPT state is PPT, so a negative witness
    certifies the parent state distillable (Horodecki, PRL 80, 5239).

    The weight is branch * trace of the raw block. One state raises
    ZeroTraceError when it is below TOL.zero_trace; a stack member below
    it gets a NaN witness, which fails every test against -TOL.verdict.
    """
    block = project_local(state, tuple(a_labels), tuple(b_labels), renormalize=False)
    tr = trace(block.mat).real
    live = branch * tr >= TOL.zero_trace
    if block.mat.ndim == 2 and not live:
        raise ZeroTraceError(f"projected weight {branch * tr:.3e} below {TOL.zero_trace:.1e}")
    with np.errstate(invalid="ignore"):  # a non-finite entry gives NaN, which the Hermiticity check rejects
        normalized = block.mat / np.where(live, tr, 1.0)[..., None, None]
    witness = min_pt_eigenvalue(DensityMatrix(normalized, block.dims))
    return witness if block.mat.ndim == 2 else np.where(live, witness, np.nan)


def separability_certificate(
    state: DensityMatrix, blocks: Sequence[BlockSpec]
) -> CertificateResult | tuple[CertificateResult, ...]:
    """Try to certify separability by a block decomposition.

    Builds one padded matrix per block: coherences among its four
    composite states at full magnitude, diagonals scaled by the block's
    weights. The certificate passes when every block is PSD and PPT as a
    2x2-by-2x2 state and the residual (state minus all embedded blocks)
    is diagonal with nonnegative entries; each block is then separable
    (PPT is sufficient at these dimensions) and the residual is a mixture
    of product basis states, so passing proves the state separable.
    Failing proves nothing.

    Raises CoverageError when an off-diagonal entry of the state lies in
    no block or in more than one, or when the diagonal weights allocated
    to one entry exceed 1; for a stack, the error is the one the first
    failing member raises alone.

    Returns one CertificateResult for one state, and a plain tuple of
    them for a stack; a CertificateResult is itself a tuple, so test
    isinstance(result, CertificateResult) to tell the two apart.
    """
    passed, minima, res_diag, res_off = (x.tolist() for x in _certify(state.stack, state.dims, blocks))
    members = tuple(
        CertificateResult(
            passed[k],
            tuple(
                BlockDiagnostic(tuple(b.a_labels), tuple(b.b_labels), w_min[k], pt_min[k])
                for b, (w_min, pt_min) in zip(blocks, minima)
            ),
            res_diag[k],
            res_off[k],
        )
        for k in range(len(passed))
    )
    return members if state.mat.ndim == 3 else members[0]


def _certify(
    mats: np.ndarray, dims: Dims, blocks: Sequence[BlockSpec]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The certificate over an (N, n, n) stack.

    Returns (passed, minima, residual_diagonal_min, residual_offdiagonal_max)
    as arrays over the members; minima[b] holds block b's minimum
    eigenvalue and minimum PT eigenvalue, each of shape (N,).
    """
    n = dims.n
    cover = np.zeros((n, n), dtype=int)
    diag_alloc = np.zeros(n)
    embedded = np.zeros_like(mats)
    minima = []
    pairs = ~np.eye(4, dtype=bool)
    for block in blocks:
        idx = block.flat_indices(dims)
        rows, cols = np.ix_(idx, idx)
        weights = np.array([float(block.diag_weights.get(i, 1.0)) for i in idx])
        padded = mats[:, rows, cols]
        padded.reshape(len(mats), 16)[:, ::5] *= weights  # each block's diagonal, as a view
        diag_alloc[idx] += weights
        cover[rows, cols] += pairs
        embedded[:, rows, cols] += padded
        # The PT check rejects a non-finite block, so the Hermitian part,
        # Hermitian by construction, needs no check of its own.
        pt_min = min_pt_eigenvalue(DensityMatrix(padded, Dims(2, 2)))
        w_min = eigvals_hermitized((padded + padded.conj().swapaxes(-1, -2)) / 2)[:, 0]
        minima.append((w_min, pt_min))
    minima = np.reshape(minima, (len(blocks), 2, len(mats)))
    off = ~np.eye(n, dtype=bool)
    live = (np.abs(mats) > TOL.coherence_floor) & off
    overallocated = (diag_alloc > 1 + TOL.allocation_slack).any()
    failing = np.flatnonzero((live & (cover != 1)).any(axis=(1, 2)) | overallocated)
    if failing.size:
        k = failing[0]
        for hit, where in ((live[k] & (cover == 0), "no block"), (live[k] & (cover > 1), "more than one block")):
            if hit.any():
                i, j = np.argwhere(hit)[0]
                raise CoverageError(f"coherence at ({i}, {j}) lies in {where}")
        i = int(np.argmax(diag_alloc))
        raise CoverageError(f"diagonal entry {i} allocated weight {diag_alloc[i]:.6f} > 1")
    residual = mats - embedded
    res_off = np.abs(residual[:, off]).max(axis=-1)
    res_diag = residual.diagonal(axis1=-2, axis2=-1).real.min(axis=-1)
    passed = (
        (minima >= TOL.psd_floor).all(axis=(0, 1))
        & (res_off <= TOL.residual_offdiagonal)
        & (res_diag >= TOL.psd_floor)
    )
    return passed, minima, res_diag, res_off


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


def find_sign_change(f: Callable[[float], float], t_lo: float, t_hi: float, tol: float = TOL.bisection) -> float:
    """Bisection root of a scalar function bracketed by [t_lo, t_hi].

    Requires finite ends (ValueError otherwise) and a sign change across
    the bracket (NoBracketError otherwise); an endpoint evaluating to
    exactly zero is returned as the root. Stops once the bracket is tol
    wide, or once its midpoint rounds to an end (float spacing wider
    than tol, far from zero).

    Ends by construction: the midpoint t_lo/2 + t_hi/2 cannot overflow
    and lies in the bracket, so a pass that goes on moves an end strictly
    inward and halves the width, and the midpoint rounds to an end within
    about 2,100 passes (1,024 binades plus 1,074 subnormal steps). It is
    (t_lo + t_hi)/2 to the bit wherever halving an end is exact. A
    non-finite end is rejected: an infinite one would come back as the
    root, and with a NaN one no midpoint would ever equal an end.
    """
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
        raise ValueError(f"bracket ends must be finite, got [{t_lo}, {t_hi}]")
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
