"""The family's closed forms against its definition, at 50 digits.

The evolved family is built from its definition with sympy symbols for
alpha and the two retentions gamma_a, gamma_b. Its partial transpose's
characteristic polynomial then factors exactly, and the shipped closed
forms pt_branch_eigenvalue and ppt_onset_time are checked against the
sympy roots evaluated at 50 digits; realignment_closed_form against
the exact trace norm of the realigned family. certificate_onset_time
is checked against the certificate's blocks at 50 digits in mpmath.
"""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from conftest import family_by_definition, family_by_mpmath, retention
from dephaselab.family import (
    QUTRIT_PAIR,
    certificate_blocks,
    certificate_onset_time,
    evolved_closed_form,
    ppt_onset_time,
    pt_branch_eigenvalue,
    realignment_closed_form,
)

ALPHA, GA, GB, LAM = sp.symbols("alpha gamma_a gamma_b lambda", positive=True)
RATE, T = sp.symbols("rate t", positive=True)
DIGITS = 50


def symbolic_partial_transpose(m: sp.Matrix) -> sp.Matrix:
    """Side-B partial transpose: entry ((i,k),(j,l)) is m((i,l),(j,k))."""
    d = QUTRIT_PAIR
    return sp.Matrix(9, 9, lambda r, c: m[d.flat(r // 3, c % 3), d.flat(c // 3, r % 3)])


def symbolic_realign(m: sp.Matrix) -> sp.Matrix:
    """Realignment: entry ((a,a'),(b,b')) is m((a,b),(a',b'))."""
    d = QUTRIT_PAIR
    return sp.Matrix(9, 9, lambda r, c: m[d.flat(r // 3, c // 3), d.flat(r % 3, c % 3)])


def certificate_margin_by_mpmath(alpha: float, s) -> mpmath.mpf:
    """Smallest eigenvalue over the three-block certificate's blocks and
    their side-B partial transposes, for the family at the retention
    exp(-s/2) on both sides, at mpmath's working precision.

    A block keeps the coherences among its four composite states and
    takes diag_weights[k] of the k-th diagonal entry; as a 2x2-by-2x2
    state its partial transpose swaps the B labels of each entry.
    """
    m = family_by_mpmath(alpha, False, 1, 1, s)
    d = QUTRIT_PAIR
    values = []
    for block in certificate_blocks():
        idx = [d.flat(a, b) for a in block.a_labels for b in block.b_labels]
        b4 = mpmath.matrix(4, 4)
        for i in range(4):
            for j in range(4):
                b4[i, j] = m[idx[i], idx[j]] * (block.diag_weights[i] if i == j else 1)
        pt = mpmath.matrix(4, 4)
        for i in range(4):
            for j in range(4):
                pt[i, j] = b4[2 * (i // 2) + j % 2, 2 * (j // 2) + i % 2]
        values += [min(mpmath.eigsy(b4, eigvals_only=True)), min(mpmath.eigsy(pt, eigvals_only=True))]
    return min(values)


def branch_quadratic(r):
    """The PT branch whose coherence keeps the retention r."""
    return 441 * LAM ** 2 - 105 * LAM - (ALPHA ** 2 - 5 * ALPHA + 4 * r ** 2)


@pytest.fixture(scope="module")
def evolved():
    """The evolved family with exact entries in alpha and the retentions."""
    return family_by_definition(ALPHA, GA, GB, sp.zeros, sp.Integer(1))


def test_symbolic_state_is_the_shipped_evolution(evolved):
    alpha, rate_a, rate_b, t = 4.3, 0.6, 1.3, 0.9
    retentions = {GA: retention(rate_a, t), GB: retention(rate_b, t)}
    numeric = np.array(evolved.subs({ALPHA: alpha, **retentions}).evalf(), dtype=complex)
    assert np.max(np.abs(numeric - evolved_closed_form(alpha, rate_a, rate_b, t).mat)) < 1e-15


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


def test_realignment_closed_form_is_the_realigned_trace_norm(evolved):
    # sympy route: at equal retentions r, R^T R of the realigned family has
    # four distinct eigenvalues in alpha and r, so sympy gives the trace
    # norm (the sum of their square roots) exactly, in well under a second.
    realigned = symbolic_realign(evolved.subs(GB, GA))
    norm = sum(count * sp.sqrt(value) for value, count in (realigned.T * realigned).eigenvals().items())
    for alpha in (3.2, 4.0, 4.5, 4.999, 5.0):
        for rate in (0.3, 1.0, 2.6):
            for t in (0.0, 0.1, 0.7, 2.0, 9.0, 30.0):
                retention = sp.exp(-sp.Rational(rate) * sp.Rational(t) / 2)
                want = float(sp.N(norm.subs({ALPHA: sp.Rational(alpha), GA: retention}) - 1, DIGITS))
                got = realignment_closed_form(alpha, rate, t)
                # The excess crosses zero on this grid, so the tolerance has an absolute floor.
                assert math.isclose(got, want, rel_tol=1e-13, abs_tol=1e-15), (alpha, rate, t)


@pytest.mark.parametrize("alpha", [3.2, 4.5, 4.9, 4.99])
def test_certificate_onset_is_the_first_time_every_block_is_ppt(alpha):
    # mpmath route: the onset is the first zero of a minimum over six 4x4
    # spectra, which sympy would need a case analysis to pick out. The
    # margin depends on rate * t alone: scan it in steps of 1/4 from 0 to
    # its first nonnegative value, then refine that step's root.
    with mpmath.workdps(DIGITS):
        step = mpmath.mpf(1) / 4
        k = 0
        while certificate_margin_by_mpmath(alpha, k * step) < 0:
            k += 1
        assert k > 0
        onset = mpmath.findroot(
            lambda s: certificate_margin_by_mpmath(alpha, s), ((k - 1) * step, k * step), solver="anderson"
        )
        nudge = onset * mpmath.mpf(10) ** -20
        before, after = (certificate_margin_by_mpmath(alpha, onset + sign * nudge) for sign in (-1, 1))
        assert before < 0 <= after
        for rate in (0.3, 1.0, 2.6):
            want = float(onset / rate)
            assert math.isclose(certificate_onset_time(alpha, rate), want, rel_tol=1e-13, abs_tol=0.0), (alpha, rate)
