"""Bipartite density matrices: validated construction, index reshuffles, JSON I/O.

The composite basis is row-major: the pair (a, b) of local labels maps to
flat index a * d_b + b, so a qutrit-qutrit matrix is ordered
|00>, |01>, |02>, |10>, ..., |22>. Every reshuffle here (partial
transpose, realignment, local projection) is a reindexing of the flat
matrix viewed as the four-index tensor rho[a, b, a', b'].

Leading-axis convention: a DensityMatrix may carry one matrix (n, n) or
a stack (N, n, n) of states on the same dims. check_state_matrix,
make_state, partial_transpose, realign and project_local map a stack
member by member onto the same leading axis, each member's result
bit-identical to that member's alone, and random_state draws a stack
when given a size. state_from_json, tensor and state_to_json handle
one state.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .linalg import TOL, NotHermitianError, NotPSDError, check_hermitian, eigvals_hermitized, hermitize, trace


class BadShapeError(ValueError):
    """Matrix shape does not match the declared local dimensions."""


class TraceNotOneError(ValueError):
    """Trace differs from 1 beyond tolerance."""


class ZeroTraceError(ValueError):
    """Projection left no weight to renormalize."""


class NonFiniteError(ValueError):
    """Matrix has a NaN or infinite entry."""


class Dims(NamedTuple("Dims", [("da", int), ("db", int)])):
    """Local dimensions (d_a, d_b) of a bipartite system."""

    __slots__ = ()

    def __new__(cls, da: int, db: int) -> Dims:
        if da < 2 or db < 2:
            raise ValueError(f"local dimensions must be >= 2, got ({da}, {db})")
        return super().__new__(cls, da, db)

    @property
    def n(self) -> int:
        return self.da * self.db

    def flat(self, a: int, b: int) -> int:
        """Flat composite index of the basis pair (a, b)."""
        return a * self.db + b


class DensityMatrix(NamedTuple("DensityMatrix", [("mat", np.ndarray), ("dims", Dims)])):
    """Carrier for a bipartite operator together with its local dimensions.

    Direct construction only checks shape. Matrices entering the program
    go through make_state instead; direct construction carries the outputs
    of maps that provably keep a state valid (dephasing masks, level
    permutations) and deliberately unnormalized intermediates, such as
    raw channel-branch terms. mat is (n, n) for one state or (N, n, n)
    for a stack of N.
    """

    __slots__ = ()

    def __new__(cls, mat, dims: Dims) -> DensityMatrix:
        m = np.array(mat, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2:] != (dims.n, dims.n):
            raise BadShapeError(f"matrix shape {m.shape} does not match dims ({dims.da}, {dims.db})")
        m.setflags(write=False)
        return super().__new__(cls, m, dims)

    @property
    def stack(self) -> np.ndarray:
        """mat as an (N, n, n) stack; one state is a stack of one."""
        return self.mat.reshape(-1, self.dims.n, self.dims.n)

    @property
    def tensor4(self) -> np.ndarray:
        """View as rho[a, b, a', b'] (behind the stack axis, if any)."""
        d = self.dims
        return self.mat.reshape(self.mat.shape[:-2] + (d.da, d.db, d.da, d.db))


_STATE_ERRORS = (NonFiniteError, NotHermitianError, TraceNotOneError, NotPSDError)


def check_state_matrix(m: np.ndarray) -> np.ndarray:
    """The package's one validity check for a square density matrix.

    Raises NonFiniteError, NotHermitianError, TraceNotOneError or
    NotPSDError; each invariant is checked independently in that order.
    Returns the hermitized matrix (linalg.hermitize). A stack (N, n, n)
    is checked as a whole, and every member must pass; the error raised
    is the one its first failing member raises alone.
    """
    if m.ndim == 3:
        try:
            return _check_members(m)
        except _STATE_ERRORS:
            for member in m:
                _check_members(member)
            raise
    return _check_members(m)


def _check_members(m: np.ndarray) -> np.ndarray:
    """check_state_matrix's checks over one matrix or a whole stack; for a
    stack, the first failing check reports its own first failing member."""
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix has NaN or infinite entries")
    check_hermitian(m)
    tr = trace(m)
    off = np.abs(tr - 1.0) > TOL.trace
    if off.any():
        k = np.flatnonzero(off)[0]
        raise TraceNotOneError(f"trace {complex(tr.flat[k]):.15g} differs from 1 beyond {TOL.trace:.1e}")
    hermitized = hermitize(m)
    w_min = eigvals_hermitized(hermitized)[..., 0]
    if w_min.min(initial=np.inf) < TOL.psd_floor:
        k = np.flatnonzero(w_min < TOL.psd_floor)[0]
        raise NotPSDError(f"minimum eigenvalue {w_min.flat[k]:.3e} below {TOL.psd_floor:.1e}")
    return hermitized


def make_state(dims: Dims, mat) -> DensityMatrix:
    """Validated constructor for a matrix, or a stack of them, entering the program.

    State files, user matrices, random_state and the family constructors
    come through here; maps that keep a state valid build DensityMatrix
    directly. Raises BadShapeError, then the check_state_matrix errors.
    """
    m = np.asarray(mat, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (dims.n, dims.n):
        raise BadShapeError(f"expected shape {(dims.n, dims.n)}, got {m.shape}")
    return DensityMatrix(check_state_matrix(m), dims)


def partial_transpose(state: DensityMatrix, side: str = "B") -> np.ndarray:
    """Transpose one subsystem's indices.

    Side "B": entry ((i,k),(j,l)) of the result equals rho((i,l),(j,k)).
    Side "A" is the analogous transpose on the first subsystem. The result
    is Hermitian with unit trace but in general not positive.
    """
    t = state.tensor4
    if side == "B":
        out = t.swapaxes(-3, -1)
    elif side == "A":
        out = t.swapaxes(-4, -2)
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return np.ascontiguousarray(out.reshape(state.mat.shape))


def realign(state: DensityMatrix) -> np.ndarray:
    """Realigned matrix of shape (d_a^2, d_b^2), behind the stack axis if any.

    Entry ((i,j),(k,l)) equals rho((i,k),(j,l)). A trace norm above 1
    witnesses entanglement; separable states never exceed 1.
    """
    d = state.dims
    return np.ascontiguousarray(
        state.tensor4.swapaxes(-3, -2).reshape(state.mat.shape[:-2] + (d.da * d.da, d.db * d.db))
    )


def project_local(
    state: DensityMatrix,
    keep_a: Sequence[int],
    keep_b: Sequence[int],
    renormalize: bool = True,
) -> DensityMatrix:
    """Restrict to the subspace spanned by the kept local basis labels.

    Returns a state on dimensions (len(keep_a), len(keep_b)) in the order
    the labels are given. With renormalize the block is scaled to unit
    trace (ZeroTraceError if its weight is below TOL.zero_trace; for a
    stack, the first such member's error); without it the raw compressed
    block is returned, weight included.
    """
    keep_a = list(keep_a)
    keep_b = list(keep_b)
    if not keep_a or not keep_b:
        raise ValueError("kept label sets must be nonempty")
    for label, dim, side in ((keep_a, state.dims.da, "A"), (keep_b, state.dims.db, "B")):
        if len(set(label)) != len(label) or any(x < 0 or x >= dim for x in label):
            raise ValueError(f"invalid labels {label} for side {side} of dimension {dim}")
    idx = np.array([state.dims.flat(a, b) for a in keep_a for b in keep_b])
    block = state.mat[..., idx[:, None], idx]
    if renormalize:
        weight = trace(block).real
        low = np.flatnonzero(weight < TOL.zero_trace)
        if low.size:
            raise ZeroTraceError(f"projected weight {weight.flat[low[0]]:.3e} below {TOL.zero_trace:.1e}")
        block /= weight[..., None, None]
    return DensityMatrix(block, Dims(len(keep_a), len(keep_b)))


def tensor(sigma_a, sigma_b) -> np.ndarray:
    """Kronecker product in the row-major composite convention."""
    return np.kron(np.asarray(sigma_a, dtype=complex), np.asarray(sigma_b, dtype=complex))


def random_state(rng: np.random.Generator, dims: Dims, size: Optional[int] = None) -> DensityMatrix:
    """Full-rank random state G G† / tr(G G†), G with i.i.d. standard
    complex normal entries. Deterministic given the generator state.

    With a size, a stack of that many states, drawn with the same
    generator calls in the same order: the stack equals size calls
    without one, bit for bit.
    """
    n = dims.n
    draws = rng.standard_normal(((2,) if size is None else (size, 2)) + (n, n))
    g = draws[..., 0, :, :] + 1j * draws[..., 1, :, :]
    m = g @ g.conj().swapaxes(-1, -2)
    m /= trace(m).real[..., None, None]
    return make_state(dims, m)


def state_to_json(state: DensityMatrix) -> str:
    """Serialize to the interchange schema.

    {"da": 3, "db": 3, "mat": [[re, im], ...]} with "mat" the row-major
    flattening of the matrix, one [real, imag] pair per entry.
    """
    pairs = [[float(z.real), float(z.imag)] for z in state.mat.ravel()]
    return json.dumps({"da": state.dims.da, "db": state.dims.db, "mat": pairs})


def state_from_json(text: str) -> DensityMatrix:
    """Parse the interchange schema and validate through make_state.

    Malformed documents raise ValueError (or json.JSONDecodeError, a
    subclass); physically invalid matrices raise the make_state errors.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or not {"da", "db", "mat"} <= set(doc):
        raise ValueError("state document must carry keys 'da', 'db', 'mat'")
    dims = Dims(int(doc["da"]), int(doc["db"]))
    pairs = doc["mat"]
    if not isinstance(pairs, list) or len(pairs) != dims.n ** 2:
        raise ValueError(f"'mat' must list {dims.n ** 2} [re, im] pairs")
    try:
        flat = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'mat' entries must be [re, im] pairs: {exc}") from exc
    return make_state(dims, flat.reshape(dims.n, dims.n))
