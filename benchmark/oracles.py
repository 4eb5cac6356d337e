"""Independent oracles that the benchmark checks program output against.

The family's closed forms are written out again here instead of being
imported from dephaselab, and every other expectation comes from a few
lines of plain numpy: a state is evolved by multiplying it entrywise
with the sector mask of the ground/excited channel, then partially
transposed or realigned by a reshape and handed to eigvalsh or svd.
A change to the library therefore cannot also change what its output
is checked against.

Basis convention (as in the program): the pair (a, b) of local labels
is the flat index 3 * a + b.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

# Decision threshold of the PT and realignment witnesses, as documented
# by the program (TOL.verdict).
VERDICT_TOL = 1e-10

# A grid point or classify call whose time lies within this share of a
# phase threshold is not verdict-checked: its witness sits inside the
# tolerance band where either verdict is legitimate.
THRESHOLD_MARGIN = 1e-6

NPT = "NptFreeEntangled"
BOUND = "PptBoundEntangled"
UNDETERMINED = "PptUndetermined"
CERTIFIED = "SeparableCertified"

_GROUND_SECTOR = (0, 1, 1)  # sector of each local label: {0} versus {1, 2}


def _flat(a: int, b: int) -> int:
    return 3 * a + b


# --- closed forms of the family at symmetric rate gamma -------------------

def ppt_onset_time(alpha: float, gamma: float) -> Optional[float]:
    """ln(4 / (alpha (5 - alpha))) / gamma; None for alpha <= 4, inf at 5."""
    if alpha <= 4.0:
        return None
    if alpha == 5.0:
        return math.inf
    return math.log(4.0 / (alpha * (5.0 - alpha))) / gamma


def realignment_closed_form(alpha: float, gamma: float, t: float) -> float:
    """(2/21)(2 e^{-gt} + 4 e^{-gt/2} - 7 + sqrt(3 alpha^2 - 15 alpha + 19))."""
    background = math.sqrt(3.0 * alpha ** 2 - 15.0 * alpha + 19.0) - 7.0
    return (2.0 / 21.0) * (2.0 * math.exp(-gamma * t) + 4.0 * math.exp(-gamma * t / 2.0) + background)


def realignment_zero(alpha: float, gamma: float) -> float:
    """Root of the closed form: 2x^2 + 4x + b - 7 = 0 with x = e^{-gt/2}.

    The excess is positive at t = 0 for every alpha in (3, 5] and tends
    to b - 7 < 0, so exactly one root exists.
    """
    b = math.sqrt(3.0 * alpha ** 2 - 15.0 * alpha + 19.0)
    x = -1.0 + math.sqrt(1.0 + (7.0 - b) / 2.0)
    return -2.0 * math.log(x) / gamma


def certificate_onset_time(alpha: float, gamma: float) -> float:
    """max(2 ln 2, ln(4 / (alpha (5 - alpha)))) / gamma; inf at alpha = 5."""
    if alpha == 5.0:
        return math.inf
    return max(2.0 * math.log(2.0), math.log(4.0 / (alpha * (5.0 - alpha)))) / gamma


def thresholds(alpha: float, gamma: float) -> dict:
    """The report `thresholds` should print, in closed form."""
    onset = ppt_onset_time(alpha, gamma)
    return {
        "alpha": alpha,
        "gamma": gamma,
        "t_d_analytic": onset,
        "t_d_numeric": onset,
        "realignment_zero": realignment_zero(alpha, gamma),
        "certificate_onset": certificate_onset_time(alpha, gamma),
    }


def family_verdict(alpha: float, gamma: float, t: float, certificate: bool) -> Optional[str]:
    """Verdict of the evolved family, or None within the margin of a threshold.

    NPT before the PPT onset, bound entangled until the realignment zero,
    certified from the certificate onset on (when the certificate is
    evaluated), undetermined in between.
    """
    onset = ppt_onset_time(alpha, gamma)
    zero = realignment_zero(alpha, gamma)
    cert = certificate_onset_time(alpha, gamma)
    for edge in (onset, zero, cert):
        if edge is not None and math.isfinite(edge):
            if abs(t - edge) <= THRESHOLD_MARGIN * max(1.0, edge):
                return None
    if onset is not None and t < onset:
        return NPT
    if t < zero:
        return BOUND
    if certificate and t >= cert:
        return CERTIFIED
    return UNDETERMINED


# --- plain-numpy states and witnesses ------------------------------------

def family_state(alpha: float) -> np.ndarray:
    """(2/21)|01+10+22><.| + alpha/21 on 00, 12, 21 + (5-alpha)/21 on 11, 20, 02."""
    m = np.zeros((9, 9), dtype=complex)
    idx = [_flat(0, 1), _flat(1, 0), _flat(2, 2)]
    m[np.ix_(idx, idx)] = 2.0 / 21.0
    for a, b in ((0, 0), (1, 2), (2, 1)):
        m[_flat(a, b), _flat(a, b)] += alpha / 21.0
    for a, b in ((1, 1), (2, 0), (0, 2)):
        m[_flat(a, b), _flat(a, b)] += (5.0 - alpha) / 21.0
    return m


def swapped_state(alpha: float) -> np.ndarray:
    """(2/7) max. entangled + alpha/21 on (a, a+1) + (5-alpha)/21 on (a, a-1)."""
    phi = np.zeros(9)
    phi[[_flat(0, 0), _flat(1, 1), _flat(2, 2)]] = 1.0 / math.sqrt(3.0)
    m = (2.0 / 7.0) * np.outer(phi, phi).astype(complex)
    for a in range(3):
        m[_flat(a, (a + 1) % 3), _flat(a, (a + 1) % 3)] += alpha / 21.0
        m[_flat(a, (a - 1) % 3), _flat(a, (a - 1) % 3)] += (5.0 - alpha) / 21.0
    return m


def sector_mask(rate: float, t: float) -> np.ndarray:
    """3x3 factor: 1 inside a sector, exp(-rate t / 2) across sectors."""
    keep = math.exp(-rate * t / 2.0)
    return np.array(
        [[1.0 if _GROUND_SECTOR[x] == _GROUND_SECTOR[y] else keep for y in range(3)] for x in range(3)]
    )


def evolve(mat: np.ndarray, rate_a: float, rate_b: float, t: float) -> np.ndarray:
    """Ground/excited dephasing as the entrywise product with F_A (x) F_B."""
    return mat * np.kron(sector_mask(rate_a, t), sector_mask(rate_b, t))


def min_pt_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of the side-B partial transpose."""
    pt = mat.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
    return float(np.linalg.eigvalsh(pt)[0])


def realignment_excess(mat: np.ndarray) -> float:
    """Trace norm of the realigned matrix minus 1."""
    r = mat.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)
    return float(np.sum(np.linalg.svd(r, compute_uv=False))) - 1.0


def witness_verdict(pt_min: float, excess: float) -> Optional[str]:
    """Verdict without a certificate, or None within 1e-9 of a threshold."""
    if abs(pt_min + VERDICT_TOL) <= 1e-9 or abs(excess - VERDICT_TOL) <= 1e-9:
        return None
    if pt_min < -VERDICT_TOL:
        return NPT
    return BOUND if excess > VERDICT_TOL else UNDETERMINED


def random_full_rank_state(rng: np.random.Generator) -> np.ndarray:
    """G G† / tr with complex Gaussian G, made exactly Hermitian."""
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def non_psd_state(rng: np.random.Generator) -> np.ndarray:
    """Hermitian, unit trace, smallest eigenvalue -0.05: not a state."""
    q, _ = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    w = np.concatenate([[-0.05], rng.uniform(0.05, 1.0, 8)])
    w[1:] *= 1.05 / w[1:].sum()
    m = (q * w) @ q.conj().T
    return (m + m.conj().T) / 2
