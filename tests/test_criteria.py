"""Contract tests for the entanglement criteria and the certificate."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import QUTRIT_PAIR, bures_by_eigh, random_separable_mixture
from dephaselab.channels import NoiseParams
from dephaselab.criteria import (
    BlockSpec,
    CoverageError,
    NoBracketError,
    Verdict,
    bures_fidelity,
    classify,
    find_sign_change,
    min_pt_eigenvalue,
    qubit_block_witness,
    realignment_excess,
    separability_certificate,
)
from dephaselab.family import (
    certificate_blocks,
    evolved_closed_form,
    initial_state,
    swapped_state,
)
from dephaselab.linalg import TOL, NotHermitianError
from dephaselab.qstate import BadShapeError, DensityMatrix, Dims, make_state, random_state


def family_at(t: float, alpha: float = 4.5, rate: float = 1.0):
    return evolved_closed_form(alpha, NoiseParams(rate, rate, t))


class TestWitnesses:
    def test_min_pt_on_maximally_entangled(self):
        phi = np.zeros(9)
        phi[[0, 4, 8]] = 1.0 / math.sqrt(3.0)
        state = make_state(QUTRIT_PAIR, np.outer(phi, phi))
        assert abs(min_pt_eigenvalue(state) + 1.0 / 3.0) < 1e-12

    def test_min_pt_on_family_start(self):
        assert abs(min_pt_eigenvalue(initial_state(4.5)) - (-0.015639386892675723)) < 1e-12

    def test_realignment_excess_on_family_start(self):
        assert abs(realignment_excess(initial_state(4.5)) - 5.0 / 21.0) < 1e-12

    def test_realignment_excess_on_maximally_entangled(self):
        phi = np.zeros(9)
        phi[[0, 4, 8]] = 1.0 / math.sqrt(3.0)
        state = make_state(QUTRIT_PAIR, np.outer(phi, phi))
        assert abs(realignment_excess(state) - 2.0) < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_realignment_sound_on_separable_mixtures(self, seed):
        rng = np.random.default_rng(seed)
        state = random_separable_mixture(rng, QUTRIT_PAIR, components=int(rng.integers(1, 6)))
        assert realignment_excess(state) <= 1e-10

    def test_qubit_block_witness_matches_sign_expectations(self):
        assert qubit_block_witness(swapped_state(4.5), (1, 2), (1, 2)) < -1e-3
        assert qubit_block_witness(initial_state(4.5), (1, 2), (1, 2)) > 1e-3

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coherence_is_not_hermitian(self, value):
        # eigvalsh reads one triangle, so an unchecked NaN there would give
        # a finite witness.
        mat = np.array(initial_state(4.5).mat)
        mat[1, 3] = value
        state = DensityMatrix(mat, QUTRIT_PAIR)
        for witness in (
            min_pt_eigenvalue,
            lambda s: qubit_block_witness(s, (0, 1), (0, 1)),
            lambda s: separability_certificate(s, certificate_blocks()),
        ):
            with pytest.raises(NotHermitianError):
                witness(state)


class TestBlockSpec:
    def test_flat_indices(self):
        block = BlockSpec((0, 2), (1, 2), {})
        assert block.flat_indices(QUTRIT_PAIR) == [1, 2, 7, 8]

    def test_rejects_degenerate_labels(self):
        with pytest.raises(ValueError, match=re.escape("a_labels must be two distinct nonnegative labels, got (1, 1)")):
            BlockSpec((1, 1), (0, 1), {})
        with pytest.raises(ValueError, match=re.escape("b_labels must be two distinct nonnegative labels, got (-1, 1)")):
            BlockSpec((0, 1), (-1, 1), {})

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match=re.escape("diagonal weight for index 0 must be in (0, 1], got 0.0")):
            BlockSpec((0, 1), (0, 1), {0: 0.0})
        with pytest.raises(ValueError, match=re.escape("got 1.5")):
            BlockSpec((0, 1), (0, 1), {0: 1.5})


class TestSeparabilityCertificate:
    def test_passes_after_onset(self):
        result = separability_certificate(family_at(2.0), certificate_blocks())
        assert result.passed
        assert result.residual_offdiagonal_max <= 1e-12
        assert result.residual_diagonal_min >= -1e-15
        assert len(result.blocks) == 3

    def test_boundary_straddles_closed_form_onset(self):
        assert not separability_certificate(family_at(1.38), certificate_blocks()).passed
        assert separability_certificate(family_at(1.3865), certificate_blocks()).passed

    def test_failing_block_is_reported(self):
        result = separability_certificate(family_at(0.3), certificate_blocks())
        assert not result.passed
        assert any(not (b.psd and b.ppt) for b in result.blocks)

    def test_diagonal_state_passes(self, rng):
        diag = make_state(QUTRIT_PAIR, np.diag(rng.dirichlet(np.ones(9))))
        assert separability_certificate(diag, certificate_blocks()).passed

    def test_uncovered_coherence_raises(self):
        with pytest.raises(CoverageError):
            separability_certificate(family_at(1.0), certificate_blocks()[:2])

    def test_double_cover_raises(self):
        blocks = certificate_blocks()
        with pytest.raises(CoverageError):
            separability_certificate(family_at(1.0), (blocks[0], blocks[0], blocks[1], blocks[2]))

    def test_diagonal_overallocation_raises(self, rng):
        diag = make_state(QUTRIT_PAIR, np.diag(rng.dirichlet(np.ones(9))))
        greedy = (
            BlockSpec((0, 1), (0, 1), {1: 1.0}),
            BlockSpec((0, 2), (1, 2), {1: 1.0}),
        )
        with pytest.raises(CoverageError):
            separability_certificate(diag, greedy)


class TestClassify:
    def test_phase_ladder(self):
        blocks = certificate_blocks()
        expected = [
            (0.3, Verdict.NPT_FREE_ENTANGLED),
            (0.7, Verdict.PPT_BOUND_ENTANGLED),
            (1.1, Verdict.PPT_UNDETERMINED),
            (2.0, Verdict.SEPARABLE_CERTIFIED),
        ]
        for t, verdict in expected:
            assert classify(family_at(t), blocks).verdict == verdict

    def test_certificate_flag_reporting(self):
        early = classify(family_at(0.3), certificate_blocks())
        assert early.certificate_passed is None
        undetermined = classify(family_at(1.1), certificate_blocks())
        assert undetermined.certificate_passed is False
        without_blocks = classify(family_at(2.0))
        assert without_blocks.verdict == Verdict.PPT_UNDETERMINED
        assert without_blocks.certificate_passed is None

    def test_separable_verdicts_are_ppt(self):
        blocks = certificate_blocks()
        for t in np.linspace(0.0, 3.0, 31):
            result = classify(family_at(float(t)), blocks)
            if result.verdict == Verdict.SEPARABLE_CERTIFIED:
                assert result.min_pt_eigenvalue >= -1e-10

    def test_ppt_is_never_lost_again(self):
        turned = False
        for t in np.linspace(0.0, 4.0, 81):
            npt = min_pt_eigenvalue(family_at(float(t))) < -1e-10
            if turned:
                assert not npt
            turned = turned or not npt


class TestBuresFidelity:
    def test_coincident_states(self, rng):
        state = random_state(rng, QUTRIT_PAIR)
        assert abs(bures_fidelity(state, state) - 1.0) < 1e-12

    def test_distinct_states_below_one(self, rng):
        a = random_state(rng, QUTRIT_PAIR)
        b = random_state(rng, QUTRIT_PAIR)
        assert bures_fidelity(a, b) < 1.0 - 1e-6

    def test_symmetric(self, rng):
        for _ in range(5):
            a = random_state(rng, QUTRIT_PAIR)
            b = random_state(rng, QUTRIT_PAIR)
            assert abs(bures_fidelity(a, b) - bures_fidelity(b, a)) < 1e-12

    def test_range(self, rng):
        for _ in range(10):
            f = bures_fidelity(random_state(rng, QUTRIT_PAIR), random_state(rng, QUTRIT_PAIR))
            assert 0.0 <= f <= 1.0

    def test_classical_case_is_bhattacharyya(self, rng):
        p = rng.dirichlet(np.ones(9))
        q = rng.dirichlet(np.ones(9))
        rho = make_state(QUTRIT_PAIR, np.diag(p))
        sigma = make_state(QUTRIT_PAIR, np.diag(q))
        expected = float(np.sum(np.sqrt(p * q)) ** 2)
        assert abs(bures_fidelity(rho, sigma) - expected) < 1e-12

    def test_pure_states_give_squared_overlap(self, rng):
        g = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        h = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        g /= np.linalg.norm(g)
        h /= np.linalg.norm(h)
        rho = make_state(QUTRIT_PAIR, np.outer(g, g.conj()))
        sigma = make_state(QUTRIT_PAIR, np.outer(h, h.conj()))
        assert abs(bures_fidelity(rho, sigma) - abs(np.vdot(g, h)) ** 2) < 1e-8

    def test_agrees_with_textbook_route(self, rng):
        pairs = [
            (random_state(rng, QUTRIT_PAIR), random_state(rng, QUTRIT_PAIR)),
            (initial_state(4.5), family_at(1.0)),
            (swapped_state(4.5), swapped_state(4.1)),
        ]
        for a, b in pairs:
            assert abs(bures_fidelity(a, b) - bures_by_eigh(a, b)) < 1e-8

    def test_dims_mismatch_raises(self, rng):
        with pytest.raises(BadShapeError):
            bures_fidelity(random_state(rng, QUTRIT_PAIR), random_state(rng, Dims(2, 3)))


class TestFindSignChange:
    def test_cosine_root(self):
        root = find_sign_change(math.cos, 0.0, 2.0)
        assert abs(root - math.pi / 2) < 1e-9

    def test_exact_zero_endpoint_returned(self):
        assert find_sign_change(lambda t: t - 1.0, 1.0, 3.0) == 1.0
        assert find_sign_change(lambda t: t - 3.0, 1.0, 3.0) == 3.0

    def test_no_bracket_raises(self):
        with pytest.raises(NoBracketError):
            find_sign_change(lambda t: t + 1.0, 0.0, 2.0)

    def test_root_where_float_spacing_exceeds_tol(self):
        # Floats near 1e10 are 2e-6 apart, so no bracket there narrows to
        # 1e-9: the search ends when the midpoint rounds to an end. The step
        # is never exactly zero, so no midpoint ends the search early.
        root = 1e10 + 1.0 / 3.0
        found = find_sign_change(lambda t: 1.0 if t > root else -1.0, 0.0, 2e10, tol=1e-9)
        assert abs(found - root) <= 2e-6

    @pytest.mark.parametrize(
        "t_lo, t_hi, root, tol",
        [
            (0.0, 1e308, 1e-320, 0.0),  # down through every binade and the subnormals
            (0.0, 2.0 ** 1022, 0.999 * 2.0 ** 1022, TOL.bisection),
            (0.0, sys.float_info.max, 0.75 * sys.float_info.max, TOL.bisection),  # t_lo + t_hi overflows
            (-sys.float_info.max, sys.float_info.max, -0.5 * sys.float_info.max, 0.0),  # so does t_hi - t_lo
        ],
        ids=["subnormal-root", "root-near-2**1022", "sum-overflows", "width-overflows"],
    )
    def test_extreme_finite_brackets_end(self, t_lo, t_hi, root, tol):
        calls = []

        def step(t):
            calls.append(t)
            return 1.0 if t > root else -1.0

        found = find_sign_change(step, t_lo, t_hi, tol=tol)
        assert t_lo <= found <= t_hi
        assert abs(found - root) <= math.ulp(root)
        assert len(calls) <= 2 + 2100

    def test_nan_inside_the_bracket_still_ends(self):
        found = find_sign_change(lambda t: -1.0 if t == 0.0 else 1.0 if t == 2.0 else math.nan, 0.0, 2.0)
        assert 0.0 <= found <= 2.0

    @pytest.mark.parametrize(
        "t_lo, t_hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)],
        ids=["inf-hi", "inf-lo", "nan-lo", "nan-hi"],
    )
    def test_non_finite_end_raises(self, t_lo, t_hi):
        with pytest.raises(ValueError, match="finite"):
            find_sign_change(lambda t: t - 0.5, t_lo, t_hi)
