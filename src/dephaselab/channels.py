"""Local dephasing channels and their exact infinite-time limit.

Both noise models act entrywise through one primitive, sector_dephase:
a coherence picks up a side's retention factor when its two labels on
that side lie in different sectors. Ground/excited dephasing splits each
qutrit into {0} | {1, 2} with retention exp(-rate*t/2); general
dephasing makes every label its own sector with retention exp(-rate*t).
Both are completely positive, trace preserving, and form semigroups in
t; the infinite-time limit is the ground/excited split with retention 0.
For retentions in [0, 1], which sector_dephase checks, each mask is
real, symmetric and positive semidefinite with unit diagonal, so by the
Schur product theorem a masked state keeps the input's Hermiticity,
trace and eigenvalue floor: sector_dephase returns it without
validating it again. No runtime path uses the Kraus
construction (local_pair, kraus_ground_excited, apply_channel): it is
the independent reference route the tests compare the masks against.

Leading-axis convention: sector_dephase takes retentions that are
scalars or 1-D arrays of length N (and a state that is one matrix or a
stack of N); they broadcast, and a leading axis in any of them makes the
result a stack of N dephased states, each bit-identical to dephasing
that member alone. evolve, the one way to evolve a state under either
model, takes its rates and times the same way.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .linalg import DomainError, check_nonneg, hermitize
from .qstate import BadShapeError, DensityMatrix, make_state, tensor


# A noise model: its sector labelling of one side's levels (None: every
# level its own sector, at any dimension) and the divisor of rate*t in
# the exponent of its retention.
GROUND_EXCITED = ((0, 1, 1), 2)
GENERAL = (None, 1)


def _checked(name: str, value):
    """A rate or a time as a float, or an array of them as a float array,
    refused by linalg.check_nonneg unless every entry is finite and
    nonnegative: an array by its minimum (NaN if it holds one) and maximum."""
    if isinstance(value, float):
        return check_nonneg(name, value)
    value = np.asarray(value)
    if value.ndim == 0:
        return check_nonneg(name, value)
    if value.size:
        check_nonneg(name, value.min())
        check_nonneg(name, value.max())
    return value.astype(float)


def evolve(state: DensityMatrix, model, rate_a, rate_b, t) -> DensityMatrix:
    """state under the local dephasing model (GROUND_EXCITED or GENERAL)
    at rates rate_a, rate_b (inverse time) to time t.

    A coherence keeps exp(-rate*t/2) per side whose two labels straddle
    the ground/excited split {0} | {1, 2}, or exp(-rate*t) per side whose
    labels differ under general dephasing. Each retention is math.exp on
    Python floats, one per member and side. The rates and t are scalars
    or (N,) arrays; they broadcast with a stacked state as
    sector_dephase's retentions do. Raises DomainError unless every rate
    and time is finite and nonnegative.
    """
    sectors, divisor = model
    rate_a, rate_b, t = (_checked(name, value) for name, value in (
        ("gamma_rate_a", rate_a), ("gamma_rate_b", rate_b), ("t", t)))
    if type(rate_a) is type(rate_b) is type(t) is float:
        keep_a, keep_b = math.exp(-rate_a * t / divisor), math.exp(-rate_b * t / divisor)
    else:
        rate_a, rate_b, t = np.broadcast_arrays(rate_a, rate_b, t)
        keep_a, keep_b = (
            np.array([math.exp(-r * s / divisor) for r, s in zip(rate.tolist(), t.tolist())])
            for rate in (rate_a, rate_b)
        )
    if sectors is None:
        sectors_a, sectors_b = range(state.dims.da), range(state.dims.db)
    else:
        sectors_a = sectors_b = sectors
    return sector_dephase(state, sectors_a, sectors_b, keep_a, keep_b)


def local_pair(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The two single-qutrit factors of the ground/excited dephasing.

    Given the coherence retention gamma = exp(-rate*t/2), returns
    (diag(1, gamma, gamma), diag(0, omega, omega)) with
    omega = sqrt(1 - gamma^2). The first keeps the ground level, the
    second is the branch in which it was erased.
    """
    omega = math.sqrt(1.0 - gamma ** 2)
    return np.diag([1.0, gamma, gamma]).astype(complex), np.diag([0.0, omega, omega]).astype(complex)


def kraus_ground_excited(gamma_a: float, gamma_b: float) -> tuple[np.ndarray, ...]:
    """Qutrit-qutrit ground/excited dephasing as four 9x9 Kraus operators.

    Given each side's coherence retention, the operators are the products
    (B-side factor) @ (A-side factor) of the local_pair factors on each
    side; all are real diagonal, so the two operator orderings and the
    two completeness conventions coincide.
    """
    ident = np.eye(3, dtype=complex)
    e_ops = [tensor(k, ident) for k in local_pair(gamma_a)]
    d_ops = [tensor(ident, k) for k in local_pair(gamma_b)]
    return tuple(d @ e for d in d_ops for e in e_ops)


def apply_channel(state: DensityMatrix, ops: Sequence[np.ndarray]) -> DensityMatrix:
    """Apply sum_mu K_mu rho K_mu† and revalidate the result.

    Raises BadShapeError when an operator's shape is not the state's.
    """
    n = state.dims.n
    out = np.zeros_like(state.mat)
    for k in ops:
        if np.shape(k) != (n, n):
            raise BadShapeError(f"Kraus operator shape {np.shape(k)}, expected {(n, n)}")
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
    when a labelling does not have one entry per local level, and
    DomainError when a retention is not a real number in [0, 1] (NaN and
    complex values included).
    """
    d = state.dims
    sectors_a, sectors_b = tuple(sectors_a), tuple(sectors_b)
    if (len(sectors_a), len(sectors_b)) != (d.da, d.db):
        raise BadShapeError(f"sector labellings {sectors_a}, {sectors_b} do not cover dims ({d.da}, {d.db})")
    cross_a, cross_b = _cross_sector(sectors_a, sectors_b)
    keep_a, keep_b = np.asarray(keep_a), np.asarray(keep_b)
    for name, keep in (("keep_a", keep_a), ("keep_b", keep_b)):
        # False for NaN, and for a complex entry that is not real, which
        # >= and <= alone would order by its real part.
        inside = (keep >= 0) & (keep <= 1) & np.isreal(keep)
        if not inside.all():
            raise DomainError(f"{name} must lie in [0, 1], got {keep[~inside][0]}")
    keep_a, keep_b = keep_a[..., None, None], keep_b[..., None, None]
    m = state.mat * (np.where(cross_a, keep_a, 1.0) * np.where(cross_b, keep_b, 1.0))
    # make_state's hermitization: it only settles the signs of zeros that
    # an underflowing retention leaves, so the result is a fixed point of
    # make_state.
    return DensityMatrix(hermitize(m), d)


def infinite_limit(state: DensityMatrix) -> DensityMatrix:
    """Exact fixed point the ground/excited channel reaches as t grows.

    Only entries whose labels sit in the same sector ({0} or {1, 2}) on
    both sides survive: the |00> population, the two single-side
    ground-times-doublet blocks, and the whole doublet-doublet corner:
    the ground/excited mask with retention 0, no large-t evolution.
    """
    return sector_dephase(state, GROUND_EXCITED[0], GROUND_EXCITED[0], 0.0, 0.0)
