"""The family's partial-transpose spectrum, derived symbolically.

The evolved family is built from its definition with sympy symbols for
alpha and the two retentions gamma_a, gamma_b. Its partial transpose's
characteristic polynomial then factors exactly, and the shipped closed
forms pt_branch_eigenvalue and ppt_onset_time are checked against the
sympy roots evaluated at 50 digits.
"""

import math

import numpy as np
import pytest
import sympy as sp

from dephaselab.channels import NoiseParams
from dephaselab.family import QUTRIT_PAIR, evolved_closed_form, ppt_onset_time, pt_branch_eigenvalue

ALPHA, GA, GB, LAM = sp.symbols("alpha gamma_a gamma_b lambda", positive=True)
RATE, T = sp.symbols("rate t", positive=True)
DIGITS = 50


def symbolic_evolved_family() -> sp.Matrix:
    """The family state under ground/excited dephasing, from its definition.

    (2/21) |psi><psi| with psi = |01> + |10> + |22>, plus alpha/21 on
    |00>, |12>, |21> and (5 - alpha)/21 on |11>, |20>, |02>. A coherence
    keeps gamma_a when its side-A labels straddle {0} | {1, 2}, and
    gamma_b likewise on side B.
    """
    d = QUTRIT_PAIR
    m = sp.zeros(9, 9)
    psi = [d.flat(0, 1), d.flat(1, 0), d.flat(2, 2)]
    for i in psi:
        for j in psi:
            m[i, j] += sp.Rational(2, 21)
    for a, b in ((0, 0), (1, 2), (2, 1)):
        m[d.flat(a, b), d.flat(a, b)] += ALPHA / 21
    for a, b in ((1, 1), (2, 0), (0, 2)):
        m[d.flat(a, b), d.flat(a, b)] += (5 - ALPHA) / 21
    for a, b, a2, b2 in np.ndindex(3, 3, 3, 3):
        factor = (GA if (a == 0) != (a2 == 0) else 1) * (GB if (b == 0) != (b2 == 0) else 1)
        m[d.flat(a, b), d.flat(a2, b2)] *= factor
    return m


def symbolic_partial_transpose(m: sp.Matrix) -> sp.Matrix:
    """Side-B partial transpose: entry ((i,k),(j,l)) is m((i,l),(j,k))."""
    d = QUTRIT_PAIR
    return sp.Matrix(9, 9, lambda r, c: m[d.flat(r // 3, c % 3), d.flat(c // 3, r % 3)])


def branch_quadratic(r):
    """The PT branch whose coherence keeps the retention r."""
    return 441 * LAM ** 2 - 105 * LAM - (ALPHA ** 2 - 5 * ALPHA + 4 * r ** 2)


@pytest.fixture(scope="module")
def evolved():
    return symbolic_evolved_family()


def test_symbolic_state_is_the_shipped_evolution(evolved):
    alpha, rate_a, rate_b, t = 4.3, 0.6, 1.3, 0.9
    noise = NoiseParams(rate_a, rate_b, t)
    numeric = np.array(evolved.subs({ALPHA: alpha, GA: noise.gamma_a, GB: noise.gamma_b}).evalf(), dtype=complex)
    assert np.max(np.abs(numeric - evolved_closed_form(alpha, noise).mat)) < 1e-15


def test_pt_characteristic_polynomial_factors(evolved):
    charpoly = symbolic_partial_transpose(evolved).charpoly(LAM).as_expr(LAM)
    expected = (21 * LAM - 2) ** 3 * sp.Mul(*(branch_quadratic(r) for r in (GA, GB, GA * GB)))
    # charpoly is monic; the product leads with 21^3 * 441^3 = 21^9.
    assert sp.expand(21 ** 9 * charpoly - expected) == 0


@pytest.mark.parametrize("alpha", [3.2, 4.0, 4.3, 4.7, 4.999, 5.0])
def test_branch_eigenvalue_matches_the_smaller_root(alpha):
    roots = sp.solve(branch_quadratic(sp.exp(-RATE * T / 2)), LAM)
    low = min(roots, key=lambda root: root.subs({ALPHA: 4, RATE: 1, T: 1}))
    for rate_sum in (0.3, 1.0, 2.6):
        for t in (0.0, 0.1, 0.7, 2.0, 9.0, 30.0):
            exact = low.subs({ALPHA: sp.Rational(alpha), RATE: sp.Rational(rate_sum), T: sp.Rational(t)})
            want = float(sp.N(exact, DIGITS))
            got = pt_branch_eigenvalue(alpha, rate_sum, t)
            assert math.isclose(got, want, rel_tol=1e-13, abs_tol=0.0), (alpha, rate_sum, t)


@pytest.mark.parametrize("alpha", [4.05, 4.3, 4.7, 4.95])
def test_ppt_onset_is_the_zero_of_the_slowest_branch(alpha):
    # A single-side branch keeps r = exp(-rate*t/2); its smaller root
    # crosses zero where the quadratic's constant term vanishes.
    (onset,) = sp.solve(branch_quadratic(sp.exp(-RATE * T / 2)).subs(LAM, 0), T)
    for rate in (0.2, 1.0, 3.5):
        want = float(sp.N(onset.subs({ALPHA: sp.Rational(alpha), RATE: sp.Rational(rate)}), DIGITS))
        assert math.isclose(ppt_onset_time(alpha, rate), want, rel_tol=1e-13, abs_tol=0.0), (alpha, rate)
