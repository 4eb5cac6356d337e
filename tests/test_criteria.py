"""Contract tests for the entanglement criteria and the certificate."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import QUTRIT_PAIR, bures_by_eigh, bures_fidelity, random_separable_mixture
from dephaselab.channels import GROUND_EXCITED, evolve, infinite_limit
from dephaselab.criteria import (
    BlockSpec,
    CoverageError,
    NoBracketError,
    Verdict,
    classify,
    crossing_time,
    find_sign_change,
    min_pt_eigenvalue,
    qubit_block_witness,
    realignment_excess,
    realignment_excess_bound,
    separability_certificate,
)
from dephaselab.family import (
    certificate_blocks,
    evolved_closed_form,
    initial_state,
    swapped_state,
)
from dephaselab.linalg import TOL, DomainError, NotHermitianError, eigvals_hermitian, hermitize
from dephaselab.qstate import BadShapeError, DensityMatrix, Dims, make_state, random_state, realign


def family_at(t: float, alpha: float = 4.5, rate: float = 1.0):
    return evolved_closed_form(alpha, rate, rate, t)


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


def pure(*flat_indices: int) -> DensityMatrix:
    """The equal superposition of the given composite basis states."""
    psi = np.zeros(9)
    psi[list(flat_indices)] = 1.0 / math.sqrt(len(flat_indices))
    return make_state(QUTRIT_PAIR, np.outer(psi, psi))


class TestRealignmentBound:
    """realignment_excess_bound never reads below realignment_excess, so a
    bound at or below 0 may skip the SVD."""

    @staticmethod
    def assert_bounds(state: DensityMatrix) -> None:
        bound, excess = realignment_excess_bound(state), realignment_excess(state)
        assert np.all(bound >= excess)
        rows = np.linalg.norm(realign(state), axis=-1).sum(axis=-1) - 1.0
        assert np.max(np.abs(bound - rows)) <= 1e-15

    @pytest.mark.parametrize("alpha", [3.5, 4.5, 5.0])
    @pytest.mark.parametrize("start", [initial_state, swapped_state])
    def test_family_limits_and_evolved_states(self, start, alpha):
        state = start(alpha)
        self.assert_bounds(infinite_limit(state))
        self.assert_bounds(evolve(state, GROUND_EXCITED, 1.0, 1.0, np.linspace(0.0, 5.0, 21)))

    def test_random_states_and_their_limits(self, rng):
        states = random_state(rng, QUTRIT_PAIR, 200)
        self.assert_bounds(states)
        self.assert_bounds(infinite_limit(states))

    def test_product_state_bound_equals_its_zero_excess(self):
        state = pure(0)
        assert realignment_excess_bound(state) == realignment_excess(state) == 0.0

    def test_doublet_bell_state_is_its_own_limit_and_passes_the_screen(self):
        # (|11> + |22>)/sqrt(2): realigned, four singular values of 1/2,
        # four rows of norm 1/2.
        state = pure(4, 8)
        assert np.array_equal(infinite_limit(state).mat, state.mat)
        self.assert_bounds(state)
        assert abs(realignment_excess(state) - 1.0) < 1e-12
        assert realignment_excess_bound(state) > 0.0


class TestBlockSpec:
    def test_flat_indices(self):
        block = BlockSpec((0, 2), (1, 2), (1.0, 1.0, 1.0, 1.0))
        assert block.flat_indices(QUTRIT_PAIR) == [1, 2, 7, 8]

    def test_rejects_degenerate_labels(self):
        with pytest.raises(ValueError, match=re.escape("a_labels must be two distinct nonnegative labels, got (1, 1)")):
            BlockSpec((1, 1), (0, 1), (1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match=re.escape("b_labels must be two distinct nonnegative labels, got (-1, 1)")):
            BlockSpec((0, 1), (-1, 1), (1.0, 1.0, 1.0, 1.0))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match=re.escape("must be 4 weights in (0, 1], got (0.0, 1.0, 1.0, 1.0)")):
            BlockSpec((0, 1), (0, 1), (0.0, 1.0, 1.0, 1.0))
        for weights in ((1.0, 1.0, 1.0, 1.5), (1.0,) * 3, (1.0,) * 5):
            with pytest.raises(ValueError, match=re.escape(f"got {weights}")):
                BlockSpec((0, 1), (0, 1), weights)

    def test_is_hashable(self):
        blocks = certificate_blocks()
        assert len({*blocks, *certificate_blocks()}) == 3
        assert hash(blocks[0]) == hash(BlockSpec((0, 1), (0, 1), (1.0, 0.5, 0.5, 1.0)))

    def test_holds_copies_of_its_arguments(self):
        a_labels, b_labels, weights = [0, 1], np.array([0, 1]), [1.0, 0.5, 0.5, 1.0]
        block = BlockSpec(a_labels, b_labels, weights)
        before = separability_certificate(family_at(2.0), (block, *certificate_blocks()[1:]))
        a_labels[0], b_labels[0], weights[0] = 2, 2, 0.0
        assert block == certificate_blocks()[0] and all(type(field) is tuple for field in block)
        assert [type(x) for field in block for x in field] == [int] * 4 + [float] * 4
        assert separability_certificate(family_at(2.0), (block, *certificate_blocks()[1:])) == before


class TestSeparabilityCertificate:
    def test_passes_after_onset(self):
        result = separability_certificate(family_at(2.0), certificate_blocks())
        assert result.passed
        assert result.residual_diagonal_min >= -1e-15
        assert len(result.block_minima) == 3

    def test_block_minima_follow_the_order_of_the_blocks(self):
        state, blocks = family_at(0.3), certificate_blocks()
        forward = separability_certificate(state, blocks).block_minima
        backward = separability_certificate(state, blocks[::-1]).block_minima
        assert [type(x) for pair in forward for x in pair] == [float] * 6
        assert np.array(backward).tobytes() == np.array(forward[::-1]).tobytes()
        # Each pair against its own block, built entry by entry.
        for block, pair in zip(blocks, forward):
            idx = block.flat_indices(QUTRIT_PAIR)
            m = state.mat[np.ix_(idx, idx)].copy()
            m[np.diag_indices(4)] *= block.diag_weights
            pt = m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
            assert np.allclose(pair, [np.linalg.eigvalsh(m)[0], np.linalg.eigvalsh(pt)[0]], rtol=0, atol=1e-12)

    def test_each_pair_is_the_block_minimum_then_the_pt_minimum(self):
        # Bit for bit against each weighted block alone, one state at a
        # time and as one stack; a pair in the other order fails.
        blocks = certificate_blocks()
        states = [family_at(t, alpha) for alpha in (3.5, 4.1, 4.5) for t in (0.3, 1.0, 2.0)]
        expected = []
        for state in states:
            pairs = []
            for block in blocks:
                idx = block.flat_indices(QUTRIT_PAIR)
                m = state.mat[np.ix_(idx, idx)].copy()
                m[np.diag_indices(4)] *= block.diag_weights
                pairs.append((eigvals_hermitian(hermitize(m))[0], min_pt_eigenvalue(DensityMatrix(m, Dims(2, 2)))))
            expected.append(np.array(pairs))
        stacked = separability_certificate(DensityMatrix(np.stack([s.mat for s in states]), QUTRIT_PAIR), blocks)
        for state, want, member in zip(states, expected, stacked):
            alone = separability_certificate(state, blocks).block_minima
            assert np.array(alone).tobytes() == np.array(member.block_minima).tobytes() == want.tobytes()
        assert np.allclose(expected[7][1], (-0.010146, 0.007661), rtol=0, atol=5e-7)  # alpha = 4.5, t = 1, block 2

    def test_boundary_straddles_closed_form_onset(self):
        assert not separability_certificate(family_at(1.38), certificate_blocks()).passed
        assert separability_certificate(family_at(1.3865), certificate_blocks()).passed

    def test_failing_block_is_reported(self):
        result = separability_certificate(family_at(0.3), certificate_blocks())
        assert not result.passed
        assert any(min(pair) < 0.0 for pair in result.block_minima)

    @pytest.mark.parametrize("alpha, t", [(4.9, 2.09964423), (4.5, 1.386294359)])
    def test_negative_block_minimum_fails(self, alpha, t):
        # Just before an onset a block minimum is negative by less than
        # 1e-10: a PT minimum (-8.9e-11) at alpha = 4.9, where the state is
        # NPT, and a doublet block's eigenvalue (-5.0e-11) 2.1e-9 before
        # 2 ln 2 at alpha = 4.5. A block with a negative eigenvalue is not
        # separable.
        result = separability_certificate(family_at(t, alpha), certificate_blocks())
        assert not result.passed
        failing = [min(pair) for pair in result.block_minima if min(pair) < 0.0]
        assert failing and all(-1e-10 < margin < 0 for margin in failing)
        assert classify(family_at(t, alpha), certificate_blocks()).verdict == Verdict.PPT_UNDETERMINED

    def test_underflowed_minima_do_not_pass(self):
        # At alpha = 5 the PTs of blocks 2 and 3 hold [[0, c], [c, 5/21]]
        # with c = (2/21) exp(-t/2), exactly NPT at every t; at t = 745
        # c is 1.6e-163 and every float minimum reads 0.0.
        result = separability_certificate(family_at(745.0, 5.0), certificate_blocks())
        assert not result.passed
        assert result.block_minima == ((0.0, 0.0),) * 3
        assert classify(family_at(745.0, 5.0), certificate_blocks()).verdict == Verdict.PPT_UNDETERMINED

    def test_diagonal_state_passes(self, rng):
        diag = make_state(QUTRIT_PAIR, np.diag(rng.dirichlet(np.ones(9))))
        assert separability_certificate(diag, certificate_blocks()).passed

    def test_no_blocks_certify_only_diagonal_states(self, rng):
        diag = make_state(QUTRIT_PAIR, np.diag(rng.dirichlet(np.ones(9))))
        result = separability_certificate(diag, ())
        assert result.passed and result.block_minima == ()
        with pytest.raises(CoverageError, match=re.escape("coherence between |0,1> and |1,0> lies in no block")):
            separability_certificate(family_at(1.0), ())

    def test_uncovered_coherence_raises(self):
        with pytest.raises(CoverageError, match=re.escape("coherence between |1,0> and |2,2> lies in no block")):
            separability_certificate(family_at(1.0), certificate_blocks()[:2])

    @pytest.mark.parametrize("value", [1e-15, math.nan], ids=["tiny", "nan"])
    def test_any_coherence_outside_the_blocks_raises(self, value):
        # |0,2> and |1,1> share no block; coverage counts every entry that
        # is not exactly zero, so neither a tiny nor a NaN coherence is
        # passed over.
        m = family_at(2.0).mat.copy()
        m[2, 4] = m[4, 2] = value
        with pytest.raises(CoverageError, match=re.escape("coherence between |0,2> and |1,1> lies in no block")):
            separability_certificate(DensityMatrix(m, QUTRIT_PAIR), certificate_blocks())

    def test_residual_is_the_diagonal_minus_the_blocks_in_block_order(self, rng):
        def by_hand(state, blocks):
            diag = np.diag(state.mat).real
            allocated = [0.0] * len(diag)
            for block in blocks:
                for k, w in zip(block.flat_indices(QUTRIT_PAIR), block.diag_weights):
                    allocated[k] += w * diag[k]
            return min(d - a for d, a in zip(diag, allocated))

        def reweighted():
            # Shared entries (|01>, |10>, |22>) split u : 1 - u between their two blocks.
            u = rng.uniform(0.05, 0.95, size=3)
            w = rng.uniform(0.05, 1.0, size=6)
            return (
                BlockSpec((0, 1), (0, 1), (w[0], u[0], u[1], w[1])),
                BlockSpec((0, 2), (1, 2), (1 - u[0], w[2], w[3], u[2])),
                BlockSpec((1, 2), (0, 2), (1 - u[1], w[4], w[5], 1 - u[2])),
            )

        for alpha in np.linspace(3.01, 5.0, 5):
            for t in np.linspace(0.0, 8.0, 9):
                state = family_at(t, alpha)
                for blocks in (certificate_blocks(), reweighted()):
                    got = separability_certificate(state, blocks).residual_diagonal_min
                    assert got.hex() == by_hand(state, blocks).hex()

    def test_double_cover_raises(self):
        blocks = certificate_blocks()
        with pytest.raises(CoverageError, match=re.escape("between |0,1> and |1,0> lies in more than one block")):
            separability_certificate(family_at(1.0), (blocks[0], blocks[0], blocks[1], blocks[2]))

    def test_diagonal_overallocation_raises(self, rng):
        diag = make_state(QUTRIT_PAIR, np.diag(rng.dirichlet(np.ones(9))))
        greedy = (
            BlockSpec((0, 1), (0, 1), (1.0, 1.0, 1.0, 1.0)),
            BlockSpec((0, 2), (1, 2), (1.0, 1.0, 1.0, 1.0)),
        )
        with pytest.raises(CoverageError, match=re.escape("diagonal entry |0,1> allocated weight 2.000000 > 1")):
            separability_certificate(diag, greedy)

    def test_label_outside_dims_raises(self):
        # (|02> + |10>)/sqrt2 is NPT, but in a qutrit pair the label pair
        # (0, 3) would alias |10>, and the block would certify it.
        psi = np.zeros(9)
        psi[[2, 3]] = 1.0 / math.sqrt(2.0)
        state = make_state(QUTRIT_PAIR, np.outer(psi, psi))
        assert abs(min_pt_eigenvalue(state) + 0.5) < 1e-12
        block = BlockSpec((0, 1), (2, 3), (1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match=re.escape("labels (0, 1) x (2, 3) lie outside dims (3, 3)")):
            separability_certificate(state, [block])

    def test_non_integer_label_raises(self):
        # (|01> + |10>)/sqrt2 is NPT; a label 0.5 would truncate to indices
        # that span no product subspace, and the block would certify it.
        psi = np.zeros(9)
        psi[[1, 3]] = 1.0 / math.sqrt(2.0)
        assert abs(min_pt_eigenvalue(make_state(QUTRIT_PAIR, np.outer(psi, psi))) + 0.5) < 1e-12
        with pytest.raises(ValueError, match=re.escape("block labels must be integers, got (0.5, 1) and (0, 1)")):
            BlockSpec((0.5, 1), (0, 1), (1.0, 1.0, 1.0, 1.0))


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
        "t_lo, t_hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan), (1.0, 0.0)],
        ids=["inf-hi", "inf-lo", "nan-lo", "nan-hi", "reversed"],
    )
    def test_non_finite_end_raises(self, t_lo, t_hi):
        # A reversed bracket's negative width would pass the width test and end the search at once.
        with pytest.raises(ValueError, match="finite"):
            find_sign_change(lambda t: t - 0.5, t_lo, t_hi)


class TestCrossingTime:
    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_rates_that_are_not_finite_and_positive(self, rate):
        calls = []
        with pytest.raises(DomainError, match="rate must be finite and positive"):
            crossing_time(lambda t: calls.append(t) or 1.0 - t, rate)
        assert calls == []

    def test_start_within_the_sign_floor_is_bracketed(self):
        # 1e-13 counts as not yet positive, as in the doubling, so the
        # curve crosses at once; 5e-13 - t never rises above the floor.
        assert 0.0 < crossing_time(lambda t: 1e-13 + t, 1.0) <= TOL.bisection
        assert crossing_time(lambda t: 5e-13 - t, 1.0) == math.inf

    def test_decay_onto_a_plateau_within_the_sign_floor_is_bracketed(self):
        # The raw signs never change; the floor crossing is 1e-13 + exp(-t) = TOL.sign_floor.
        found = crossing_time(lambda t: 1e-13 + math.exp(-t), 1.0)
        assert abs(found + math.log(TOL.sign_floor - 1e-13)) <= TOL.bisection
