"""Bipartite density matrices: validated construction, index reshuffles, JSON I/O.

The composite basis is row-major: the pair (a, b) of local labels maps to
flat index a * d_b + b, so a qutrit-qutrit matrix is ordered
|00>, |01>, |02>, |10>, ..., |22>. Every reshuffle here (partial
transpose, realignment, local projection) is a reindexing of the flat
matrix viewed as the four-index tensor rho[a, b, a', b'].

A matrix is validated once, where it enters the program: make_state
checks it. A state the program derives is valid by construction and is
built as a DensityMatrix directly: random_state and the family states
as DensityMatrix(hermitize(m), dims), dephasing masks and level
permutations from a state that is already valid.

Leading-axis convention: a DensityMatrix may carry one matrix (n, n) or
a stack (N, n, n) of states on the same dims. partial_transpose (side
B), realign and project_local (the raw block, weight included) map a
stack member by member onto the same leading axis, each member's result
bit-identical to that member's alone; random_state draws a stack when
given a size; check_state_matrix, make_state, state_from_json, tensor
and state_to_json handle one state.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .linalg import TOL, CheckedRecord, DomainError, NotPSDError, check_hermitian, eigvals_hermitized, hermitize, trace


class BadShapeError(DomainError):
    """Matrix shape does not match the declared local dimensions."""


class TraceNotOneError(DomainError):
    """Trace differs from 1 beyond tolerance."""


class NonFiniteError(DomainError):
    """Matrix has a NaN or infinite entry."""


class Dims(CheckedRecord, NamedTuple("Dims", [("da", int), ("db", int)])):
    """Local dimensions (d_a, d_b) of a bipartite system: integers of at
    least 2, coerced with operator.index (ValueError otherwise)."""

    __slots__ = ()

    def __new__(cls, da: int, db: int) -> Dims:
        try:
            da, db = operator.index(da), operator.index(db)
        except TypeError:
            raise ValueError(f"local dimensions must be integers, got ({da!r}, {db!r})") from None
        if da < 2 or db < 2:
            raise ValueError(f"local dimensions must be >= 2, got ({da}, {db})")
        return super().__new__(cls, da, db)

    @property
    def n(self) -> int:
        return self.da * self.db

    def flat(self, a: int, b: int) -> int:
        """Flat composite index of the basis pair (a, b)."""
        return a * self.db + b


class DensityMatrix(CheckedRecord, NamedTuple("DensityMatrix", [("mat", np.ndarray), ("dims", Dims)])):
    """Carrier for a bipartite operator together with its local dimensions.

    Direct construction only checks shape. Matrices entering the program
    go through make_state instead; direct construction carries states
    that are valid by construction (random Gram matrices, the family
    states, dephasing masks, level permutations) and deliberately
    unnormalized intermediates, such as raw channel-branch terms. mat is
    (n, n) for one state or (N, n, n) for a stack of N.

    mat is read-only. A complex array that owns its data and is already
    read-only, such as hermitize's result, is held as it is: whoever
    made it gave up writing to it. Anything else (a writable array, a
    view, a read-only view of a writable base, a list) is copied first.
    """

    __slots__ = ()

    def __new__(cls, mat, dims: Dims) -> DensityMatrix:
        if isinstance(mat, np.ndarray) and mat.dtype == complex and mat.flags.owndata and not mat.flags.writeable:
            m = mat
        else:
            m = np.array(mat, dtype=complex)
            m.setflags(write=False)
        if m.ndim not in (2, 3) or m.shape[-2:] != (dims.n, dims.n):
            raise BadShapeError(f"matrix shape {m.shape} does not match dims ({dims.da}, {dims.db})")
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


def check_state_matrix(m: np.ndarray) -> np.ndarray:
    """The package's one validity check for a square density matrix (n, n).

    Raises NonFiniteError, NotHermitianError, TraceNotOneError or
    NotPSDError; each invariant is checked independently in that order.
    Returns the hermitized matrix (linalg.hermitize).
    """
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix has NaN or infinite entries")
    check_hermitian(m)
    tr = trace(m)
    if abs(tr - 1.0) > TOL.trace:
        raise TraceNotOneError(f"trace {complex(tr):.15g} differs from 1 beyond {TOL.trace:.1e}")
    hermitized = hermitize(m)
    w_min = eigvals_hermitized(hermitized)[0]
    if w_min < TOL.psd_floor:
        raise NotPSDError(f"minimum eigenvalue {w_min:.3e} below {TOL.psd_floor:.1e}")
    return hermitized


def make_state(dims: Dims, mat) -> DensityMatrix:
    """Validated constructor for one matrix entering the program.

    State files and user matrices come through here; states the program
    derives are valid by construction and build DensityMatrix directly.
    Raises BadShapeError (for a stack too), then the check_state_matrix
    errors.
    """
    m = np.asarray(mat, dtype=complex)
    if m.shape != (dims.n, dims.n):
        raise BadShapeError(f"expected shape {(dims.n, dims.n)}, got {m.shape}")
    return DensityMatrix(check_state_matrix(m), dims)


def partial_transpose(state: DensityMatrix) -> np.ndarray:
    """Transpose subsystem B's indices.

    Entry ((i,k),(j,l)) of the result equals rho((i,l),(j,k)). The result
    is Hermitian with unit trace but in general not positive. Side A's
    partial transpose is its full transpose, with the same spectrum.
    """
    return np.ascontiguousarray(state.tensor4.swapaxes(-3, -1).reshape(state.mat.shape))


def realign(state: DensityMatrix) -> np.ndarray:
    """Realigned matrix of shape (d_a^2, d_b^2), behind the stack axis if any.

    Entry ((i,j),(k,l)) equals rho((i,k),(j,l)). A trace norm above 1
    witnesses entanglement; separable states never exceed 1.
    """
    d = state.dims
    return np.ascontiguousarray(
        state.tensor4.swapaxes(-3, -2).reshape(state.mat.shape[:-2] + (d.da * d.da, d.db * d.db))
    )


def project_local(state: DensityMatrix, keep_a: Sequence[int], keep_b: Sequence[int]) -> DensityMatrix:
    """Restrict to the subspace spanned by the kept local basis labels.

    Returns the raw block, weight included, on dimensions
    (len(keep_a), len(keep_b)) in the order the labels are given.
    """
    keep_a = list(keep_a)
    keep_b = list(keep_b)
    if not keep_a or not keep_b:
        raise ValueError("kept label sets must be nonempty")
    for label, dim, side in ((keep_a, state.dims.da, "A"), (keep_b, state.dims.db, "B")):
        if len(set(label)) != len(label) or any(x < 0 or x >= dim for x in label):
            raise ValueError(f"invalid labels {label} for side {side} of dimension {dim}")
    idx = np.array([state.dims.flat(a, b) for a in keep_a for b in keep_b])
    n = state.dims.n
    block = np.take(state.mat.reshape(state.mat.shape[:-2] + (n * n,)), idx[:, None] * n + idx, axis=-1)
    block.setflags(write=False)  # fresh, so DensityMatrix holds it without a copy
    return DensityMatrix(block, Dims(len(keep_a), len(keep_b)))


def tensor(sigma_a, sigma_b) -> np.ndarray:
    """Kronecker product in the row-major composite convention."""
    return np.kron(np.asarray(sigma_a, dtype=complex), np.asarray(sigma_b, dtype=complex))


class NormalStream:
    """A seeded stream of standard normal draws: 53-bit uniforms in
    (0, 1] from the standard library's Mersenne Twister, turned into
    normals by the Box-Muller transform.

    The seed is a nonnegative integer: random.Random maps n and -n to the
    same stream, so a negative, bool or non-integer seed raises
    ValueError. The stream is consumed in pairs, each pair of uniforms
    giving two adjacent normals, so a draw takes an even count of values
    and draws concatenate: one (64, 2, 9, 9) draw equals 64 (2, 9, 9)
    draws, bit for bit.
    """

    def __init__(self, seed: int):
        import random

        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
        self._bits = random.Random(int(seed))

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        """An array of the given shape, i.i.d. standard normal, from one
        randbytes call. The transform runs in place in one float buffer:
        of each pair of uniforms (u, v), u becomes r cos(2 pi v) and v
        becomes r sin(2 pi v), r = sqrt(-2 ln u); a half-size cosine is
        the only other array."""
        count = math.prod(shape)
        if count % 2:
            raise ValueError(f"a draw takes an even count of values, got shape {shape}")
        x = (np.frombuffer(self._bits.randbytes(8 * count), dtype="<u8") >> 11).astype(float)
        x += 1.0
        x *= 2.0 ** -53  # uniforms in (0, 1], exact
        radius, angle = x.reshape(-1, 2).T
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle *= 2.0 * math.pi
        cos = np.cos(angle)
        np.sin(angle, out=angle)
        angle *= radius
        radius *= cos
        return x.reshape(shape)


def random_state(rng: NormalStream | np.random.Generator, dims: Dims, size: Optional[int] = None) -> DensityMatrix:
    """Full-rank random state G G† / tr(G G†), G with i.i.d. standard
    complex normal entries, drawn from any source with a
    standard_normal(shape) method (a NormalStream, or a numpy Generator).
    Deterministic given the source's state.

    A state by construction (G G† is positive semidefinite, hermitize
    makes it Hermitian, the division gives unit trace to rounding), so it
    is not validated. With a size, a stack of that many states in one
    draw; from a source whose draws concatenate (both of the above) the
    stack equals size calls without one, bit for bit.
    """
    n = dims.n
    draws = rng.standard_normal(((2,) if size is None else (size, 2)) + (n, n))
    g = np.empty(draws.shape[:-3] + (n, n), dtype=complex)
    g.real, g.imag = draws[..., 0, :, :], draws[..., 1, :, :]
    del draws  # each buffer is dropped once used: at most three stacks are alive at once
    m = g @ g.conj().swapaxes(-1, -2)
    del g
    m /= trace(m).real[..., None, None]
    return DensityMatrix(hermitize(m), dims)


def state_to_json(state: DensityMatrix) -> str:
    """Serialize to the interchange schema.

    {"da": 3, "db": 3, "mat": [[re, im], ...]} with "mat" the row-major
    flattening of the matrix, one [real, imag] pair per entry. Raises
    BadShapeError for a stack, as make_state does: a document holds one
    state.
    """
    import json

    if state.mat.ndim != 2:
        raise BadShapeError(f"expected shape {(state.dims.n, state.dims.n)}, got {state.mat.shape}")
    pairs = [[float(z.real), float(z.imag)] for z in state.mat.ravel()]
    return json.dumps({"da": state.dims.da, "db": state.dims.db, "mat": pairs})


def state_from_json(text: str) -> DensityMatrix:
    """Parse the interchange schema and validate through make_state.

    Malformed documents raise ValueError (or its subclass
    json.JSONDecodeError): among them dimensions other than JSON
    integers, entries other than JSON numbers, an integer too large for
    a double and arrays nested past the recursion limit. Physically
    invalid matrices raise the make_state errors.
    """
    import json

    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("arrays or objects nested too deeply") from None
    if not isinstance(doc, dict) or not {"da", "db", "mat"} <= set(doc):
        raise ValueError("state document must carry keys 'da', 'db', 'mat'")
    if any(type(doc[key]) is not int for key in ("da", "db")):  # a bool is an int, but not a dimension
        raise ValueError(f"'da' and 'db' must be JSON integers, got {json.dumps([doc['da'], doc['db']])}")
    dims = Dims(doc["da"], doc["db"])
    pairs = doc["mat"]
    if not isinstance(pairs, list) or len(pairs) != dims.n ** 2:
        raise ValueError(f"'mat' must list {dims.n ** 2} [re, im] pairs")
    try:
        if any(type(x) is bool for pair in pairs for x in pair):  # complex() reads true as 1
            raise TypeError("an entry is a JSON boolean")
        flat = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"'mat' entries must be [re, im] pairs: {exc}") from exc
    return make_state(dims, flat.reshape(dims.n, dims.n))
