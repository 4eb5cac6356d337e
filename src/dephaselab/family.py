"""A two-parameter qutrit-qutrit family and its closed-form noise behavior.

The family is a mixture of one entangled coherence triple with two
product-diagonal backgrounds weighted by a population parameter alpha in
(3, 5]. Under ground/excited dephasing its evolution, partial-transpose
spectrum, realignment excess and classification thresholds all have
closed forms, so the family doubles as an analytic oracle for the
numerical pipeline. A locally basis-swapped variant keeps one coherence
inside the never-damped excited doublet and therefore stays distillable
forever; probes on its ground-erased doublets certify that. Each probe
is criteria.qubit_block_witness on one local projection.

All closed forms here are verified against the numerical path by the
test suite; none are trusted on their own. They refuse an alpha outside
(3, 5], and a negative or non-finite rate or time by linalg.check_nonneg.

Leading-axis convention: the probes (one_sided_probe, two_sided_probe)
take one state or a stack (N, 9, 9) and return a float or an (N,) array
of witnesses, each member's bit-identical to probing that member alone,
and NaN where the projection carries no weight; mc_projection gives
None for an empty projection. The family constructors, mc_* and
limit_verdict handle one state. The constructors build it from checked
inputs (an alpha, a McSpec) valid by construction, without make_state.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .channels import GENERAL, GROUND_EXCITED, evolve, infinite_limit
from .criteria import BlockSpec, qubit_block_witness
from .linalg import TOL, CheckedRecord, DomainError, check_nonneg, hermitize, trace
from .qstate import DensityMatrix, Dims, check_state_matrix, project_local

QUTRIT_PAIR = Dims(3, 3)


class AlphaDomainError(DomainError):
    """Population parameter outside the family domain (3, 5]."""


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 3.0 < alpha <= 5.0:
        raise AlphaDomainError(f"alpha must lie in (3, 5], got {alpha}")
    return alpha


class McSpec(CheckedRecord, NamedTuple("McSpec", [("a", np.ndarray)])):
    """Coefficient matrix of a maximally correlated state sum a_ij |ii><jj|
    on a d x d pair, d = len(a).

    The matrix must be square, at least 2x2, and itself a valid density
    matrix (check_state_matrix); that makes the lifted state valid. It is
    stored as given.
    """

    __slots__ = ()

    def __new__(cls, a) -> McSpec:
        a = np.array(a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or len(a) < 2:
            raise ValueError(f"coefficient matrix must be square and at least 2x2, got shape {a.shape}")
        check_state_matrix(a)
        a.setflags(write=False)
        return super().__new__(cls, a)


class McReport(NamedTuple):
    """Checks on a maximally correlated state under general dephasing.

    still_mc: the evolved state keeps the |ii><jj| support pattern;
    mc_deviation is the largest entry found outside it. entangled follows
    the coefficient off-diagonals (nonzero iff entangled, and dephasing
    damps but never zeroes them). distillable reports the two-qubit
    witness on the labels of the largest off-diagonal coefficient,
    evaluated on the evolved state.
    """

    still_mc: bool
    mc_deviation: float
    entangled: bool
    distillable: bool
    witness_value: Optional[float]
    witness_labels: Optional[tuple[int, int]]


class LimitVerdict(str, Enum):
    SEPARABLE_LIMIT = "SeparableLimit"
    DISTILLABLE_LIMIT = "DistillableLimit"


def initial_state(alpha: float) -> DensityMatrix:
    """The family state: one coherence triple over two diagonal backgrounds.

    (2/21) projector onto |01>+|10>+|22>, plus alpha/21 on each of
    |00>, |12>, |21> and (5-alpha)/21 on each of |11>, |20>, |02>.
    NPT exactly for alpha > 4; PPT entangled on (3, 4]. Positive terms
    of total weight 1, so valid by construction.
    """
    alpha = _check_alpha(alpha)
    d = QUTRIT_PAIR
    m = np.zeros((9, 9), dtype=complex)
    psi = np.zeros(9)
    psi[[d.flat(0, 1), d.flat(1, 0), d.flat(2, 2)]] = 1.0
    m += (2.0 / 21.0) * np.outer(psi, psi)
    for a, b in ((0, 0), (1, 2), (2, 1)):
        m[d.flat(a, b), d.flat(a, b)] += alpha / 21.0
    for a, b in ((1, 1), (2, 0), (0, 2)):
        m[d.flat(a, b), d.flat(a, b)] += (5.0 - alpha) / 21.0
    return DensityMatrix(hermitize(m), d)


def swapped_state(alpha: float) -> DensityMatrix:
    """The family state after swapping B's levels 0 and 1.

    The local swap moves the coherence triple onto |00>+|11>+|22>, whose
    (|11>,|22>) component the ground/excited noise never damps; the state
    therefore stays distillable at every finite time. A level permutation
    of the validated initial_state, so it is valid by construction.
    """
    d = QUTRIT_PAIR
    idx = [d.flat(a, b) for a in range(3) for b in (1, 0, 2)]
    return DensityMatrix(initial_state(alpha).mat[np.ix_(idx, idx)], d)


def evolved_closed_form(alpha: float, rate_a: float, rate_b: float, t: float) -> DensityMatrix:
    """The family state at time t under ground/excited dephasing.

    The diagonal never moves; the three coherences pick up one retention
    factor gamma = exp(-rate*t/2) per side whose label pair touches the
    ground level: (|01>,|10>) keeps gamma_a * gamma_b, (|01>,|22>) keeps
    gamma_a, (|10>,|22>) keeps gamma_b: the ground/excited mask on
    initial_state.
    """
    return evolve(initial_state(alpha), GROUND_EXCITED, rate_a, rate_b, t)


def pt_branch_eigenvalue(alpha: float, rate_sum: float, t: float) -> float:
    """Smallest eigenvalue of one 2x2 partial-transpose branch.

    Each surviving coherence of the evolved family pairs, after partial
    transposition, against two background populations; the branch damped
    at total rate rate_sum contributes the eigenvalue
    (5 - sqrt(s)) / 42 = 2*(alpha*(5 - alpha) - 4*x) / (21*(5 + sqrt(s))),
    s = (2*alpha - 5)^2 + 16*x, x = exp(-rate_sum*t); the second form,
    evaluated here, keeps its sign and relative accuracy near zero.
    The three branches use rate_a + rate_b, rate_a and rate_b. Negative
    exactly while exp(-rate_sum*t) > alpha*(5 - alpha)/4.
    """
    alpha = _check_alpha(alpha)
    x = math.exp(-check_nonneg("rate_sum", rate_sum) * check_nonneg("t", t))
    return 2.0 * (alpha * (5.0 - alpha) - 4.0 * x) / (21.0 * (5.0 + math.sqrt((2.0 * alpha - 5.0) ** 2 + 16.0 * x)))


def ppt_onset_time(alpha: float, gamma_rate: float) -> Optional[float]:
    """Time at which the evolved family turns PPT (distillability loss).

    ln(4 / (alpha * (5 - alpha))) / gamma_rate for alpha in (4, 5);
    infinite at alpha = 5 (the slowest branch never turns). None for
    alpha <= 4, where the state is PPT from the start and no onset
    exists, as criteria.transition_times reports it.
    """
    alpha = _check_alpha(alpha)
    gamma_rate = check_nonneg("gamma_rate", gamma_rate, positive=True)
    if alpha <= 4.0:
        return None
    if alpha == 5.0:
        return math.inf
    return math.log(4.0 / (alpha * (5.0 - alpha))) / gamma_rate


def realignment_closed_form(alpha: float, gamma_rate: float, t: float) -> float:
    """Realignment excess of the evolved family at symmetric rates.

    (2/21) * (2*exp(-g*t) + 4*exp(-g*t/2) - 7 + sqrt(3*alpha^2 - 15*alpha + 19)),
    with g = gamma_rate. The t-independent part is the excess of the
    background mixture; the two damped terms carry the coherences.
    """
    alpha = _check_alpha(alpha)
    g, t = check_nonneg("gamma_rate", gamma_rate), check_nonneg("t", t)
    background = math.sqrt(3.0 * alpha ** 2 - 15.0 * alpha + 19.0) - 7.0
    return (2.0 / 21.0) * (2.0 * math.exp(-g * t) + 4.0 * math.exp(-g * t / 2.0) + background)


def fidelity_initial(gamma_rate: float, t: float) -> float:
    """Uhlmann-Bures fidelity of the family state and its ground/excited
    evolution at symmetric rate g = gamma_rate.

    [(15 + 2*sqrt(3 + 2*(x + 2*sqrt(x)))) / 21]^2 with x = exp(-g*t),
    independent of alpha; at rates (a, b), x + 2*sqrt(x) becomes
    ga*gb + ga + gb with the single-side retentions.
    """
    x = math.exp(-check_nonneg("gamma_rate", gamma_rate) * check_nonneg("t", t))
    return ((15.0 + 2.0 * math.sqrt(3.0 + 2.0 * (x + 2.0 * math.sqrt(x)))) / 21.0) ** 2


def fidelity_swapped(gamma_rate: float, t: float) -> float:
    """Uhlmann-Bures fidelity of the swapped family and its evolution.

    [(15 + 2*sqrt(5 + 4*x)) / 21]^2 with x = exp(-g*t), independent of
    alpha; at rates (a, b), x is ga*gb. Never below fidelity_initial:
    the gap reduces to (1 - ga)(1 - gb) >= 0.
    """
    x = math.exp(-check_nonneg("gamma_rate", gamma_rate) * check_nonneg("t", t))
    return ((15.0 + 2.0 * math.sqrt(5.0 + 4.0 * x)) / 21.0) ** 2


def one_sided_probe(state: DensityMatrix, side: str) -> float | np.ndarray:
    """Distillability probe from one side's ground-erased doublet.

    Restricts the state to the chosen side's doublet {1, 2}: a 3x2 (side
    "B") or 2x3 (side "A") support, where NPT is conclusive, so a
    negative witness certifies the state distillable. Probe an evolved
    state (channels.evolve) to certify it at that time; the erased-ground
    channel branch is this restriction up to a positive scalar. NaN when
    the doublet is empty. Takes one state or a stack.
    """
    if state.dims != QUTRIT_PAIR:
        raise ValueError(f"probe is defined on dims (3, 3), got {state.dims}")
    if side == "B":
        keep_a, keep_b = (0, 1, 2), (1, 2)
    elif side == "A":
        keep_a, keep_b = (1, 2), (0, 1, 2)
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return qubit_block_witness(state, keep_a, keep_b)


def two_sided_probe(state: DensityMatrix) -> float | np.ndarray:
    """Distillability probe from the doublet-doublet corner.

    The {1,2}x{1,2} block is exactly the both-grounds-erased channel
    branch up to a positive scalar, and the ground/excited noise never
    touches it: its verdict is time independent. A negative witness
    certifies the state distillable at every finite time (it never loses
    distillability under this noise). NaN when the corner is empty.
    Takes one state or a stack.
    """
    if state.dims != QUTRIT_PAIR:
        raise ValueError(f"probe is defined on dims (3, 3), got {state.dims}")
    return qubit_block_witness(state, (1, 2), (1, 2))


def _mc_support(d: int) -> tuple[np.ndarray, np.ndarray]:
    """np.ix_ index of the |ii><jj| positions of a d x d pair."""
    idx = [Dims(d, d).flat(i, i) for i in range(d)]
    return np.ix_(idx, idx)


def _mc_deviation(mat: np.ndarray, d: int) -> float:
    """Largest |entry| of a d x d pair's matrix off the |ii><jj| positions."""
    off = np.array(mat)
    off[_mc_support(d)] = 0.0
    return float(np.max(np.abs(off)))


def mc_state(spec: McSpec) -> DensityMatrix:
    """Lift a coefficient matrix to the maximally correlated state, which
    is valid by construction when the McSpec is."""
    d = Dims(len(spec.a), len(spec.a))
    m = np.zeros((d.n, d.n), dtype=complex)
    m[_mc_support(d.da)] = spec.a
    return DensityMatrix(hermitize(m), d)


def mc_report(spec: McSpec, rate_a: float, rate_b: float, t: float) -> McReport:
    """Evolve a maximally correlated state and check the claims about it.

    Under general dephasing the |ii><jj| support pattern is preserved
    exactly (off-diagonal coefficients damp by exp(-(rate_a+rate_b)*t),
    never to zero at finite t), the state is entangled iff some
    off-diagonal coefficient is nonzero, and any nonzero a_ij makes the
    {i,j}x{i,j} two-qubit witness negative, certifying distillability.
    """
    rho = mc_state(spec)
    evolved = evolve(rho, GENERAL, rate_a, rate_b, t)
    deviation = _mc_deviation(evolved.mat, len(spec.a))
    off = np.abs(spec.a - np.diag(np.diag(spec.a)))
    entangled = bool(np.max(off) > TOL.coherence_floor)
    if not entangled:
        return McReport(deviation <= TOL.mc_pattern, deviation, False, False, None, None)
    i, j = np.unravel_index(int(np.argmax(off)), off.shape)
    labels = (int(min(i, j)), int(max(i, j)))
    witness = qubit_block_witness(evolved, labels, labels)
    return McReport(
        deviation <= TOL.mc_pattern,
        deviation,
        True,
        witness < -TOL.verdict,
        witness,
        labels,
    )


def mc_projection(
    state: DensityMatrix, a_labels: tuple[int, int], b_labels: tuple[int, int]
) -> Optional[McSpec]:
    """Read off a maximally correlated state from a two-qubit projection.

    Projects onto the labels (|i><i| + |j><j|) x (|m><m| + |n><n|) and
    divides by the block's weight. Returns the 2x2 coefficient matrix
    when the projection has support exactly on the maximally correlated
    positions (both cross populations and all other coherences up to
    TOL.mc_pattern) with a nonzero off-diagonal; such a finding certifies
    the parent state distillable at every finite time under general
    dephasing. Returns None otherwise: for an empty projection, and for
    states whose projection merely contains a coherence among extra
    populations, where that certificate would be unsound.
    """
    block = project_local(state, tuple(a_labels), tuple(b_labels)).mat
    weight = trace(block).real
    if weight < TOL.zero_trace:
        return None
    sub = block / weight
    if _mc_deviation(sub, 2) > TOL.mc_pattern:
        return None
    a = sub[_mc_support(2)]
    if abs(a[0, 1]) <= TOL.mc_pattern:
        return None
    return McSpec(a / trace(a).real)


def limit_verdict(state: DensityMatrix) -> LimitVerdict:
    """Classify the infinite-time limit: separable or still distillable.

    The limit is block diagonal across the ground/excited sectors; every
    term except the doublet-doublet corner is manifestly separable, and
    the corner lives on a 2x2 support where PPT decides separability
    outright. A PPT-entangled limit is impossible, so the verdict is
    always one of the two; an empty corner's NaN witness reads separable.
    """
    witness = two_sided_probe(infinite_limit(state))
    return LimitVerdict.DISTILLABLE_LIMIT if witness < -TOL.verdict else LimitVerdict.SEPARABLE_LIMIT


def certificate_blocks() -> tuple[BlockSpec, BlockSpec, BlockSpec]:
    """The three-block separability certificate tuned to this family.

    Each evolved coherence gets one two-qubit block; the three diagonal
    entries shared by two blocks (|01>, |10>, |22>) are split half and
    half, every other diagonal entry goes wholly to its block, and the
    residual is exactly zero. With these weights the certificate first
    passes at t = max(2*ln2, ppt_onset_time) / gamma_rate.
    """
    return (
        BlockSpec((0, 1), (0, 1), (1.0, 0.5, 0.5, 1.0)),
        BlockSpec((0, 2), (1, 2), (0.5, 1.0, 1.0, 0.5)),
        BlockSpec((1, 2), (0, 2), (0.5, 1.0, 1.0, 0.5)),
    )


def certificate_onset_time(alpha: float, gamma_rate: float) -> float:
    """First time the three-block certificate passes, in closed form.

    max(2*ln2 / gamma_rate, ppt_onset_time), None read as 0: the doublet
    blocks become PSD once the single-side retention drops to 1/2, and
    become PPT at the family's PPT onset. Infinite at alpha = 5. This is
    a property of the equal-split weights above, verified against a
    direct scan by the test suite, not an independent fact.
    """
    onset = ppt_onset_time(alpha, gamma_rate)
    return max(2.0 * math.log(2.0) / float(gamma_rate), onset or 0.0)
