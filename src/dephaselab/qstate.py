"""Bipartite density matrices: validated construction, index reshuffles, JSON I/O.

The composite basis is row-major: the pair (a, b) of local labels maps to
flat index a * d_b + b, so a qutrit-qutrit matrix is ordered
|00>, |01>, |02>, |10>, ..., |22>. Every reshuffle here (partial
transpose, realignment, local projection) is a reindexing of the flat
matrix viewed as the four-index tensor rho[a, b, a', b'].
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import TOL, NotPSDError, check_hermitian, eigvals_hermitian


class BadShapeError(ValueError):
    """Matrix shape does not match the declared local dimensions."""


class TraceNotOneError(ValueError):
    """Trace differs from 1 beyond tolerance."""


class ZeroTraceError(ValueError):
    """Projection left no weight to renormalize."""


class NonFiniteError(ValueError):
    """Matrix has a NaN or infinite entry."""


@dataclass(frozen=True)
class Dims:
    """Local dimensions (d_a, d_b) of a bipartite system."""

    da: int
    db: int

    def __post_init__(self) -> None:
        if self.da < 2 or self.db < 2:
            raise ValueError(f"local dimensions must be >= 2, got ({self.da}, {self.db})")

    @property
    def n(self) -> int:
        return self.da * self.db

    def flat(self, a: int, b: int) -> int:
        """Flat composite index of the basis pair (a, b)."""
        return a * self.db + b


@dataclass(frozen=True)
class DensityMatrix:
    """Carrier for a bipartite operator together with its local dimensions.

    Direct construction only checks shape. Matrices entering the program
    go through make_state instead; direct construction carries the outputs
    of maps that provably keep a state valid (dephasing masks, level
    permutations) and deliberately unnormalized intermediates, such as
    raw channel-branch terms.
    """

    mat: np.ndarray
    dims: Dims

    def __post_init__(self) -> None:
        m = np.array(self.mat, dtype=complex)
        if m.shape != (self.dims.n, self.dims.n):
            raise BadShapeError(
                f"matrix shape {m.shape} does not match dims ({self.dims.da}, {self.dims.db})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def tensor4(self) -> np.ndarray:
        """View as rho[a, b, a', b']."""
        d = self.dims
        return self.mat.reshape(d.da, d.db, d.da, d.db)


def check_state_matrix(m: np.ndarray) -> np.ndarray:
    """The package's one validity check for a square density matrix.

    Raises NonFiniteError, NotHermitianError, TraceNotOneError or
    NotPSDError; each invariant is checked independently in that order.
    Returns the hermitized matrix (m + m†) / 2.
    """
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix has NaN or infinite entries")
    check_hermitian(m)
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TOL.trace:
        raise TraceNotOneError(f"trace {tr:.15g} differs from 1 beyond {TOL.trace:.1e}")
    hermitized = (m + m.conj().T) / 2
    w_min = float(eigvals_hermitian(hermitized)[0])
    if w_min < TOL.psd_floor:
        raise NotPSDError(f"minimum eigenvalue {w_min:.3e} below {TOL.psd_floor:.1e}")
    return hermitized


def make_state(dims: Dims, mat) -> DensityMatrix:
    """Validated constructor for a matrix entering the program.

    State files, user matrices, random_state and the family constructors
    come through here; maps that keep a state valid build DensityMatrix
    directly. Raises BadShapeError, then the check_state_matrix errors.
    """
    m = np.asarray(mat, dtype=complex)
    if m.shape != (dims.n, dims.n):
        raise BadShapeError(f"expected shape {(dims.n, dims.n)}, got {m.shape}")
    return DensityMatrix(check_state_matrix(m), dims)


def partial_transpose(state: DensityMatrix, side: str = "B") -> np.ndarray:
    """Transpose one subsystem's indices.

    Side "B": entry ((i,k),(j,l)) of the result equals rho((i,l),(j,k)).
    Side "A" is the analogous transpose on the first subsystem. The result
    is Hermitian with unit trace but in general not positive.
    """
    d = state.dims
    t = state.tensor4
    if side == "B":
        out = t.transpose(0, 3, 2, 1)
    elif side == "A":
        out = t.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return np.ascontiguousarray(out.reshape(d.n, d.n))


def realign(state: DensityMatrix) -> np.ndarray:
    """Realigned matrix of shape (d_a^2, d_b^2).

    Entry ((i,j),(k,l)) equals rho((i,k),(j,l)). A trace norm above 1
    witnesses entanglement; separable states never exceed 1.
    """
    d = state.dims
    return np.ascontiguousarray(
        state.tensor4.transpose(0, 2, 1, 3).reshape(d.da * d.da, d.db * d.db)
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
    trace (ZeroTraceError if its weight is below TOL.zero_trace);
    without it the raw compressed block is returned, weight included.
    """
    keep_a = list(keep_a)
    keep_b = list(keep_b)
    if not keep_a or not keep_b:
        raise ValueError("kept label sets must be nonempty")
    for label, dim, side in ((keep_a, state.dims.da, "A"), (keep_b, state.dims.db, "B")):
        if len(set(label)) != len(label) or any(x < 0 or x >= dim for x in label):
            raise ValueError(f"invalid labels {label} for side {side} of dimension {dim}")
    idx = [state.dims.flat(a, b) for a in keep_a for b in keep_b]
    block = state.mat[np.ix_(idx, idx)].copy()
    if renormalize:
        weight = float(np.trace(block).real)
        if weight < TOL.zero_trace:
            raise ZeroTraceError(f"projected weight {weight:.3e} below {TOL.zero_trace:.1e}")
        block /= weight
    return DensityMatrix(block, Dims(len(keep_a), len(keep_b)))


def tensor(sigma_a, sigma_b) -> np.ndarray:
    """Kronecker product in the row-major composite convention."""
    return np.kron(np.asarray(sigma_a, dtype=complex), np.asarray(sigma_b, dtype=complex))


def random_state(rng: np.random.Generator, dims: Dims) -> DensityMatrix:
    """Full-rank random state G G† / tr(G G†), G with i.i.d. standard
    complex normal entries. Deterministic given the generator state."""
    g = rng.standard_normal((dims.n, dims.n)) + 1j * rng.standard_normal((dims.n, dims.n))
    m = g @ g.conj().T
    return make_state(dims, m / np.trace(m).real)


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
