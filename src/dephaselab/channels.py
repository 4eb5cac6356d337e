"""Local dephasing channels and their exact infinite-time limit.

Both noise models act entrywise through one primitive, sector_dephase:
a coherence picks up a side's retention factor when its two labels on
that side lie in different sectors. Ground/excited dephasing splits each
qutrit into {0} | {1, 2} with retention exp(-rate*t/2); general
dephasing makes every label its own sector with retention exp(-rate*t).
Both are completely positive, trace preserving, and form semigroups in
t; the infinite-time limit is the ground/excited split with retention 0.
Each mask is real, symmetric and positive semidefinite with unit
diagonal, so by the Schur product theorem a masked state keeps the
input's Hermiticity, trace and eigenvalue floor: sector_dephase returns
it without validating it again. No runtime path uses the Kraus
construction (KrausSet, local_pair, kraus_ground_excited,
apply_channel): it is the independent reference route the tests compare
the masks against.

Leading-axis convention: sector_dephase takes retentions that are
scalars or 1-D arrays of length N (and a state that is one matrix or a
stack of N); they broadcast, and a leading axis in any of them makes the
result a stack of N dephased states, each bit-identical to dephasing
that member alone. The named wrappers take one NoiseParams.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .linalg import TOL, hermitize
from .qstate import BadShapeError, DensityMatrix, Dims, make_state, tensor


GROUND_EXCITED = (0, 1, 1)


class IncompleteKrausError(ValueError):
    """Kraus family does not sum to the identity within tolerance."""


def ground_excited_retention(rate: float, t: float) -> float:
    """Coherence retention exp(-rate*t/2) of the ground/excited channel.

    Evaluated with math.exp, whose last bit differs from np.exp's on
    about 5% of arguments: every caller, vectorized or not, uses this.
    """
    return math.exp(-rate * t / 2)


class NoiseParams(NamedTuple("NoiseParams", [("gamma_rate_a", float), ("gamma_rate_b", float), ("t", float)])):
    """Dephasing rates (inverse time) for each side and an evolution time.

    gamma_a / gamma_b are the surviving coherence factors exp(-rate*t/2);
    omega_a / omega_b are the complementary branch amplitudes.
    """

    __slots__ = ()

    def __new__(cls, gamma_rate_a: float, gamma_rate_b: float, t: float) -> NoiseParams:
        for name, value in zip(cls._fields, (gamma_rate_a, gamma_rate_b, t)):
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        return super().__new__(cls, gamma_rate_a, gamma_rate_b, t)

    @property
    def gamma_a(self) -> float:
        return ground_excited_retention(self.gamma_rate_a, self.t)

    @property
    def gamma_b(self) -> float:
        return ground_excited_retention(self.gamma_rate_b, self.t)

    @property
    def omega_a(self) -> float:
        return math.sqrt(1.0 - self.gamma_a ** 2)

    @property
    def omega_b(self) -> float:
        return math.sqrt(1.0 - self.gamma_b ** 2)


class KrausSet(NamedTuple("KrausSet", [("ops", tuple), ("dims", Dims)])):
    """A trace-preserving Kraus family on a fixed bipartite dimension."""

    __slots__ = ()

    def __new__(cls, ops, dims: Dims) -> KrausSet:
        ops = tuple(np.asarray(k, dtype=complex) for k in ops)
        n = dims.n
        for k in ops:
            if k.shape != (n, n):
                raise BadShapeError(f"Kraus operator shape {k.shape}, expected {(n, n)}")
            k.setflags(write=False)
        total = sum(k.conj().T @ k for k in ops)
        if float(np.max(np.abs(total - np.eye(n)))) > TOL.kraus_completeness:
            raise IncompleteKrausError(
                f"sum of K†K deviates from the identity beyond {TOL.kraus_completeness:.0e}"
            )
        return super().__new__(cls, ops, dims)


def local_pair(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The two single-qutrit factors of the ground/excited dephasing.

    Given the coherence retention gamma = exp(-rate*t/2), returns
    (diag(1, gamma, gamma), diag(0, omega, omega)) with
    omega = sqrt(1 - gamma^2). The first keeps the ground level, the
    second is the branch in which it was erased.
    """
    omega = math.sqrt(1.0 - gamma ** 2)
    return np.diag([1.0, gamma, gamma]).astype(complex), np.diag([0.0, omega, omega]).astype(complex)


def kraus_ground_excited(p: NoiseParams) -> KrausSet:
    """Qutrit-qutrit ground/excited dephasing as four Kraus operators.

    The operators are the products (B-side factor) @ (A-side factor) of
    the local_pair factors on each side; all are real diagonal, so the
    two operator orderings and the two completeness conventions coincide.
    """
    ident = np.eye(3, dtype=complex)
    e_ops = [tensor(k, ident) for k in local_pair(p.gamma_a)]
    d_ops = [tensor(ident, k) for k in local_pair(p.gamma_b)]
    ops = tuple(d @ e for d in d_ops for e in e_ops)
    return KrausSet(ops, Dims(3, 3))


def apply_channel(state: DensityMatrix, ks: KrausSet) -> DensityMatrix:
    """Apply sum_mu K_mu rho K_mu† and revalidate the result."""
    if state.dims != ks.dims:
        raise BadShapeError(f"state dims {state.dims} do not match Kraus dims {ks.dims}")
    out = np.zeros_like(state.mat)
    for k in ks.ops:
        out = out + k @ state.mat @ k.conj().T
    return make_state(state.dims, out)


@functools.lru_cache(maxsize=32)
def _cross_sector(sectors_a: tuple, sectors_b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, n) patterns of the entries whose side-A, side-B labels change sector."""
    a = np.repeat(sectors_a, len(sectors_b))
    b = np.tile(sectors_b, len(sectors_a))
    cross = (a[:, None] != a, b[:, None] != b)
    for c in cross:
        c.setflags(write=False)
    return cross


def sector_dephase(state: DensityMatrix, sectors_a, sectors_b, keep_a, keep_b) -> DensityMatrix:
    """Damp every coherence between sectors.

    sectors_a / sectors_b label each local level with its sector. Entry
    ((i,k),(j,l)) is multiplied by keep_a if sectors_a[i] != sectors_a[j]
    and by keep_b if sectors_b[k] != sectors_b[l]. keep_a / keep_b are
    scalars or 1-D arrays of length N; with an array (or a stacked state)
    the result is the stack of N dephased states. Raises BadShapeError
    when a labelling does not have one entry per local level.
    """
    d = state.dims
    sectors_a, sectors_b = tuple(sectors_a), tuple(sectors_b)
    if (len(sectors_a), len(sectors_b)) != (d.da, d.db):
        raise BadShapeError(f"sector labellings {sectors_a}, {sectors_b} do not cover dims ({d.da}, {d.db})")
    cross_a, cross_b = _cross_sector(sectors_a, sectors_b)
    keep_a, keep_b = np.asarray(keep_a)[..., None, None], np.asarray(keep_b)[..., None, None]
    m = state.mat * (np.where(cross_a, keep_a, 1.0) * np.where(cross_b, keep_b, 1.0))
    # make_state's hermitization: it only settles the signs of zeros that
    # an underflowing retention leaves, so the result is a fixed point of
    # make_state.
    return DensityMatrix(hermitize(m), d)


def ground_excited(state: DensityMatrix, noise: NoiseParams) -> DensityMatrix:
    """Ground/excited dephasing of a qutrit-qutrit state to time noise.t.

    A coherence keeps gamma_a = exp(-rate_a*t/2) when its side-A labels
    straddle {0} | {1, 2}, and likewise gamma_b on side B.
    """
    return sector_dephase(state, GROUND_EXCITED, GROUND_EXCITED, noise.gamma_a, noise.gamma_b)


def general_dephase(state: DensityMatrix, p: NoiseParams) -> DensityMatrix:
    """Dephase between all local basis states on each side.

    Every coherence rho((i,k),(j,l)) is multiplied by
    exp(-rate_a*t*[i != j]) * exp(-rate_b*t*[k != l]); diagonal entries
    are untouched. Equivalent per subsystem to the mixture
    (1-p)*sigma + p*diag(sigma) with p = 1 - exp(-rate*t).
    """
    d = state.dims
    fa, fb = math.exp(-p.gamma_rate_a * p.t), math.exp(-p.gamma_rate_b * p.t)
    return sector_dephase(state, range(d.da), range(d.db), fa, fb)


def infinite_limit(state: DensityMatrix) -> DensityMatrix:
    """Exact fixed point the ground/excited channel reaches as t grows.

    Only entries whose labels sit in the same sector ({0} or {1, 2}) on
    both sides survive: the |00> population, the two single-side
    ground-times-doublet blocks, and the whole doublet-doublet corner:
    the ground/excited mask with retention 0, no large-t evolution.
    """
    return sector_dephase(state, GROUND_EXCITED, GROUND_EXCITED, 0.0, 0.0)
