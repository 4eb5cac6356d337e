"""Contract tests for the analytic family: closed forms, probes, verdicts."""

import math
import re

import mpmath
import numpy as np
import pytest

from conftest import (
    QUTRIT_PAIR, bures_fidelity, evolved_family_by_entries, family_fidelity_by_mpmath, retention,
    swapped_family_by_mixture,
)
from dephaselab.channels import GROUND_EXCITED, apply_channel, evolve, kraus_ground_excited
from dephaselab.criteria import (
    find_sign_change,
    min_pt_eigenvalue,
    qubit_block_witness,
    realignment_excess,
    separability_certificate,
    transition_times,
)
from dephaselab.family import (
    AlphaDomainError,
    LimitVerdict,
    McSpec,
    certificate_blocks,
    certificate_onset_time,
    evolved_closed_form,
    fidelity_initial,
    fidelity_swapped,
    initial_state,
    limit_verdict,
    mc_projection,
    mc_report,
    mc_state,
    one_sided_probe,
    pt_branch_eigenvalue,
    ppt_onset_time,
    realignment_closed_form,
    swapped_state,
    two_sided_probe,
)
from dephaselab.linalg import TOL, DomainError, NotPSDError, eigvals_hermitian
from dephaselab.qstate import Dims, TraceNotOneError, make_state, partial_transpose


def display_branch_eigenvalue(alpha: float, lam: float, t: float) -> float:
    """The branch eigenvalue in its unreduced display form (overflow-prone)."""
    e = math.exp(lam * t)
    inner = 11025.0 * e * e + 1764.0 * e * (4.0 - 5.0 * alpha * e + alpha * alpha * e)
    return (math.exp(-lam * t) / 882.0) * (105.0 * e - math.sqrt(inner))


class TestConstruction:
    def test_initial_state_entries(self):
        alpha = 4.5
        state = initial_state(alpha)
        d = QUTRIT_PAIR
        diag = np.array([alpha, 2, 5 - alpha, 2, 5 - alpha, alpha, 5 - alpha, alpha, 2]) / 21.0
        assert np.max(np.abs(np.diag(state.mat).real - diag)) < 1e-15
        triple = (d.flat(0, 1), d.flat(1, 0), d.flat(2, 2))
        expected = np.zeros((9, 9), dtype=complex)
        np.fill_diagonal(expected, diag)
        for i in triple:
            for j in triple:
                if i != j:
                    expected[i, j] = 2.0 / 21.0
        assert np.max(np.abs(state.mat - expected)) < 1e-15

    def test_swap_paths_agree(self):
        for alpha in (4.1, 4.5, 4.9, 5.0):
            a = swapped_state(alpha)
            b = swapped_family_by_mixture(alpha)
            assert np.max(np.abs(a.mat - b.mat)) < 1e-15
            assert make_state(a.dims, a.mat).mat.tobytes() == a.mat.tobytes()
            start = initial_state(alpha)
            assert make_state(start.dims, start.mat).mat.tobytes() == start.mat.tobytes()

    def test_swapped_state_moves_coherence_triple(self):
        state = swapped_state(4.5)
        d = QUTRIT_PAIR
        for i, j in ((d.flat(0, 0), d.flat(1, 1)), (d.flat(1, 1), d.flat(2, 2))):
            assert abs(state.mat[i, j] - 2.0 / 21.0) < 1e-15
        assert abs(state.mat[d.flat(0, 1), d.flat(1, 0)]) < 1e-15

    def test_alpha_domain(self):
        for alpha in (3.0, 5.0001, -1.0, math.nan):
            with pytest.raises(AlphaDomainError):
                initial_state(alpha)
        initial_state(3.0001)
        initial_state(5.0)
        with pytest.raises(AlphaDomainError):
            evolved_closed_form(2.0, 1.0, 1.0, 1.0)

    def test_ppt_split_at_alpha_four(self):
        assert min_pt_eigenvalue(initial_state(4.05)) < -1e-6
        assert min_pt_eigenvalue(initial_state(3.95)) > -1e-12
        assert realignment_excess(initial_state(3.95)) > 1e-3


class TestEvolvedClosedForm:
    def test_matches_kraus_path(self):
        for alpha in (4.1, 4.9):
            for ga, gb in ((1.0, 1.0), (0.6, 1.3)):
                for t in (0.0, 0.5, 2.0):
                    closed = evolved_closed_form(alpha, ga, gb, t)
                    ops = kraus_ground_excited(retention(ga, t), retention(gb, t))
                    kraus = apply_channel(initial_state(alpha), ops)
                    assert np.max(np.abs(closed.mat - kraus.mat)) < 1e-12

    def test_bit_identical_to_entry_oracle(self):
        for alpha in (4.1, 4.5, 4.9):
            for ga, gb in ((0.4, 0.4), (1.0, 1.0), (0.6, 1.3), (1.3, 0.6)):
                for t in (0.0, 0.25, 0.575, 1.0, 2.0, 3.0, 10.0):
                    closed = evolved_closed_form(alpha, ga, gb, t)
                    assert np.array_equal(closed.mat, evolved_family_by_entries(alpha, ga, gb, t).mat)

    def test_coherence_retention_factors(self):
        state = evolved_closed_form(4.5, 0.8, 1.4, 1.3)
        gamma_a, gamma_b = retention(0.8, 1.3), retention(1.4, 1.3)
        d = QUTRIT_PAIR
        c = 2.0 / 21.0
        assert abs(state.mat[d.flat(0, 1), d.flat(1, 0)] - c * gamma_a * gamma_b) < 1e-15
        assert abs(state.mat[d.flat(0, 1), d.flat(2, 2)] - c * gamma_a) < 1e-15
        assert abs(state.mat[d.flat(1, 0), d.flat(2, 2)] - c * gamma_b) < 1e-15

    def test_diagonal_is_static(self):
        before = initial_state(4.2)
        after = evolved_closed_form(4.2, 1.0, 1.0, 3.0)
        assert np.max(np.abs(np.diag(after.mat) - np.diag(before.mat))) < 1e-15


class TestPtSpectrum:
    def test_branch_value_matches_display_form(self):
        for alpha in (4.1, 4.5, 4.9):
            for lam in (0.4, 1.0, 1.9):
                for t in (0.0, 0.7, 2.5):
                    stable = pt_branch_eigenvalue(alpha, lam, t)
                    display = display_branch_eigenvalue(alpha, lam, t)
                    assert abs(stable - display) < 1e-14

    def test_display_form_overflow_domain_is_fine_here(self):
        assert math.isfinite(pt_branch_eigenvalue(4.5, 1.0, 1e6))

    def test_equal_rate_minimum_is_single_rate_branch(self):
        evolved = evolved_closed_form(4.5, 1.0, 1.0, 1.0)
        assert abs(min_pt_eigenvalue(evolved) - pt_branch_eigenvalue(4.5, 1.0, 1.0)) < 1e-12
        assert abs(pt_branch_eigenvalue(4.5, 1.0, 1.0) - 0.007660592149545224) < 1e-12

    def test_branch_membership_unequal_rates(self):
        ga, gb, t = 0.6, 1.3, 0.9
        evolved = evolved_closed_form(4.5, ga, gb, t)
        spectrum = eigvals_hermitian(partial_transpose(evolved))
        for lam in (ga, gb, ga + gb):
            target = pt_branch_eigenvalue(4.5, lam, t)
            assert float(np.min(np.abs(spectrum - target))) < 1e-10

    def test_negative_exactly_while_branch_retention_is_high(self):
        alpha = 4.5
        boundary = math.log(4.0 / (alpha * (5.0 - alpha)))
        assert pt_branch_eigenvalue(alpha, 1.0, boundary - 1e-6) < 0
        assert pt_branch_eigenvalue(alpha, 1.0, boundary + 1e-6) > 0


class TestThresholds:
    def test_ppt_onset_values(self):
        assert abs(ppt_onset_time(4.5, 1.0) - 0.5753641449035618) < 1e-12
        assert abs(ppt_onset_time(4.9, 1.0) - 2.099644248997359) < 1e-12
        assert ppt_onset_time(5.0, 1.0) == math.inf
        assert abs(ppt_onset_time(4.5, 2.0) - 0.5753641449035618 / 2.0) < 1e-12

    def test_onset_splits_npt_from_ppt(self):
        onset = ppt_onset_time(4.5, 1.0)
        before = evolved_closed_form(4.5, 1.0, 1.0, onset - 1e-4)
        after = evolved_closed_form(4.5, 1.0, 1.0, onset + 1e-4)
        assert min_pt_eigenvalue(before) < -1e-10
        assert min_pt_eigenvalue(after) > -1e-12

    def test_already_ppt_rejected(self):
        # PPT at t = 0 has no onset: None, as thresholds' null and transition_times say.
        for alpha in (3.5, 4.0):
            for rate in (0.3, 1.0, 7.0):
                assert ppt_onset_time(alpha, rate) is None

    @pytest.mark.parametrize("alpha, rate_a, rate_b", [(4.5, 1.0, 0.3), (4.5, 0.3, 1.0), (4.1, 2.0, 0.5)])
    def test_asymmetric_onset_follows_the_slower_side(self, alpha, rate_a, rate_b):
        # The PT branches decay at rates a + b, a and b; the one at
        # min(a, b) turns last, so the onset is ppt_onset_time's form at
        # that rate, found to the search's own tolerance.
        rate = min(rate_a, rate_b)
        base = initial_state(alpha)
        onset, _ = transition_times(lambda t: evolve(base, GROUND_EXCITED, rate_a, rate_b, t), rate)
        assert abs(onset - math.log(4.0 / (alpha * (5.0 - alpha))) / rate) <= TOL.bisection / max(rate, 1.0)

    @pytest.mark.parametrize("rate_a, rate_b", [(1.0, 0.0), (0.0, 1.0)])
    def test_noise_on_one_side_never_turns_ppt(self, rate_a, rate_b):
        # The branch of the noiseless side never decays: the family stays
        # NPT, hence distillable, while its realignment witness still dies.
        base = initial_state(4.5)
        onset, realignment_zero = transition_times(lambda t: evolve(base, GROUND_EXCITED, rate_a, rate_b, t), 1.0)
        assert onset == math.inf
        assert abs(realignment_zero - 1.96) < 5e-3

    def test_bisection_consistency_across_rates(self):
        for alpha, rate in ((4.3, 1.0), (4.7, 0.5), (4.5, 1.7)):
            def pt_curve(t: float) -> float:
                return min_pt_eigenvalue(
                    evolved_closed_form(alpha, rate, rate, t)
                )
            root = find_sign_change(pt_curve, 0.0, 6.0, tol=1e-9)
            assert abs(root - ppt_onset_time(alpha, rate)) < 1e-6

    def test_realignment_closed_form_matches_numeric(self):
        for alpha in (4.1, 4.5, 4.9):
            for t in (0.0, 0.4, 0.8361513912283498, 1.5):
                closed = realignment_closed_form(alpha, 1.0, t)
                numeric = realignment_excess(
                    evolved_closed_form(alpha, 1.0, 1.0, t)
                )
                assert abs(closed - numeric) < 1e-10

    def test_realignment_zero_of_closed_form(self):
        root = 2.0 * math.log((4.0 + math.sqrt(44.0)) / 7.0)
        assert abs(realignment_closed_form(4.5, 1.0, root)) < 1e-15
        assert abs(root - 0.8361513912283498) < 1e-15


class TestClosedFormDomain:
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("form, good", [
        (fidelity_initial, (1.0, 1.0)),
        (fidelity_swapped, (1.0, 1.0)),
        (realignment_closed_form, (4.5, 1.0, 1.0)),
        (pt_branch_eigenvalue, (4.5, 1.0, 1.0)),
    ], ids=lambda x: getattr(x, "__name__", ""))
    def test_every_argument_outside_its_domain_is_refused(self, form, good, bad):
        # linalg.check_nonneg, evolve's rule for a rate and a time; alpha keeps its own.
        for k in range(len(good)):
            with pytest.raises(DomainError, match="must"):
                form(*good[:k], bad, *good[k + 1:])
        # Rate 0 and t = 0 stay valid.
        assert math.isfinite(form(*good[:-2], 0.0, 0.0))


class TestCertificateOnset:
    def test_closed_form_values(self):
        assert abs(certificate_onset_time(4.5, 1.0) - 2.0 * math.log(2.0)) < 1e-15
        assert abs(certificate_onset_time(4.9, 1.0) - ppt_onset_time(4.9, 1.0)) < 1e-15
        assert certificate_onset_time(5.0, 1.0) == math.inf

    def test_built_on_the_ppt_onset(self):
        # x -> x / gamma is monotone under rounding, so dividing the larger
        # log is bit for bit the larger of the two divided logs.
        for alpha in (3.001, 3.5, 4.0, 4.001, 4.1, 4.5, 4.9, 4.999, 5.0):
            for gamma in (1e-9, 0.3, 1.0, 7.5, 1e9):
                onset = certificate_onset_time(alpha, gamma)
                assert onset == max(2.0 * math.log(2.0) / gamma, ppt_onset_time(alpha, gamma) or 0.0)
                if alpha < 5.0:
                    log_onset = math.log(4.0 / (alpha * (5.0 - alpha)))
                    assert onset == max(2.0 * math.log(2.0), log_onset) / gamma, (alpha, gamma)

    def test_scan_matches_closed_form(self):
        blocks = certificate_blocks()
        for alpha in (4.2, 4.5, 4.8):
            def margin(t: float) -> float:
                result = separability_certificate(
                    evolved_closed_form(alpha, 1.0, 1.0, t), blocks
                )
                return min(map(min, result.block_minima))
            onset = find_sign_change(margin, 0.05, 5.0, tol=1e-9)
            assert abs(onset - certificate_onset_time(alpha, 1.0)) < 1e-6

    def test_blocks_cover_all_nine_diagonals_once(self):
        alloc = {}
        for block in certificate_blocks():
            for idx, w in zip(block.flat_indices(QUTRIT_PAIR), block.diag_weights):
                alloc[idx] = alloc.get(idx, 0.0) + w
        assert set(alloc) == set(range(9))
        assert all(abs(total - 1.0) < 1e-15 for total in alloc.values())


class TestFidelityCurves:
    def test_start_at_one(self):
        assert fidelity_initial(1.0, 0.0) == 1.0
        assert fidelity_swapped(1.0, 0.0) == 1.0

    def test_known_values(self):
        assert abs(fidelity_initial(1.0, 1.0) - 0.9038239244786144) < 1e-12
        assert abs(fidelity_swapped(1.0, 1.0) - 0.9150139205415989) < 1e-12

    def test_monotone_decay_and_dominance(self):
        ts = np.linspace(0.0, 6.0, 61)
        f_rho = [fidelity_initial(1.0, float(t)) for t in ts]
        f_prime = [fidelity_swapped(1.0, float(t)) for t in ts]
        assert all(a >= b - 1e-15 for a, b in zip(f_rho, f_rho[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(f_prime, f_prime[1:]))
        assert all(p >= r for r, p in zip(f_rho, f_prime))

    def test_large_time_limits(self):
        lim_rho = ((15.0 + math.sqrt(12.0)) / 21.0) ** 2
        lim_prime = ((15.0 + 2.0 * math.sqrt(5.0)) / 21.0) ** 2
        assert abs(fidelity_initial(1.0, 200.0) - lim_rho) < 1e-14
        assert abs(fidelity_swapped(1.0, 200.0) - lim_prime) < 1e-14

    def test_pinned_values_and_curves_match_a_50_digit_uhlmann_fidelity(self):
        # The values pinned above against the fidelity of the family states
        # themselves, evolved to t = 1 and to the limit; two ulps at 0.9.
        # bures_fidelity meets the curves only with sqrt_psd's eigenvalue
        # floor: without it the rank-7 states put it 3e-9 off.
        for alpha in (4.1, 4.5):
            for swapped, at_one, limit in (
                (False, 0.9038239244786144, ((15.0 + math.sqrt(12.0)) / 21.0) ** 2),
                (True, 0.9150139205415989, ((15.0 + 2.0 * math.sqrt(5.0)) / 21.0) ** 2),
            ):
                assert abs(family_fidelity_by_mpmath(alpha, swapped, 1.0, 1.0, 1.0) - at_one) < 2.3e-16
                assert abs(family_fidelity_by_mpmath(alpha, swapped, 1.0, 1.0, mpmath.inf) - limit) < 2.3e-16
        for t in (0.3, 2.0, 5.0):
            for swapped, state, curve in (
                (False, initial_state(4.9), fidelity_initial),
                (True, swapped_state(4.9), fidelity_swapped),
            ):
                assert abs(family_fidelity_by_mpmath(4.9, swapped, 0.5, 0.5, t) - curve(0.5, t)) < 4.5e-16
                evolved = evolve(state, GROUND_EXCITED, 0.5, 0.5, t)
                assert abs(bures_fidelity(state, evolved) - curve(0.5, t)) < 2e-15


class TestProbes:
    def test_one_sided_frozen_values(self):
        witness = one_sided_probe(evolve(swapped_state(4.5), GROUND_EXCITED, 1.0, 1.0, 1.0), "B")
        assert witness < -TOL.verdict
        assert abs(witness - (-0.023459080339013578)) < 1e-12
        witness = one_sided_probe(evolve(initial_state(4.5), GROUND_EXCITED, 1.0, 1.0, 0.3), "B")
        assert witness < -TOL.verdict
        assert abs(witness - (-0.009914386446286241)) < 1e-12
        witness = one_sided_probe(evolve(initial_state(4.5), GROUND_EXCITED, 1.0, 1.0, 1.0), "B")
        assert not witness < -TOL.verdict
        assert abs(witness - 0.01149088822431783) < 1e-12

    def test_one_sided_flag_tracks_ppt_onset(self):
        onset = ppt_onset_time(4.5, 1.0)
        for t in (0.1, 0.3, 0.5):
            assert t < onset
            assert one_sided_probe(evolve(initial_state(4.5), GROUND_EXCITED, 1.0, 1.0, t), "B") < -TOL.verdict
        for t in (0.65, 1.0, 2.0):
            assert t > onset
            assert not one_sided_probe(evolve(initial_state(4.5), GROUND_EXCITED, 1.0, 1.0, t), "B") < -TOL.verdict

    def test_one_sided_swapped_both_sides_all_times(self):
        for side in ("A", "B"):
            for t in (0.2, 1.0, 5.0):
                assert one_sided_probe(evolve(swapped_state(4.5), GROUND_EXCITED, 1.0, 1.0, t), side) < -TOL.verdict

    def test_one_sided_weight_and_support(self):
        # Side B's probe is the 3x2 block (0,1,2)x(1,2) of the state it is given.
        evolved = evolve(initial_state(4.5), GROUND_EXCITED, 1.0, 1.0, 1.0)
        assert one_sided_probe(evolved, "B") == qubit_block_witness(evolved, (0, 1, 2), (1, 2))
        assert one_sided_probe(evolved, "A") == qubit_block_witness(evolved, (1, 2), (0, 1, 2))

    def test_one_sided_certifies_the_npt_family_at_time_zero(self):
        # The doublet holds the family's NPT branch and 2/3 of its trace, so
        # the witness is 3/2 of the branch eigenvalue at t = 0.
        for alpha, certified in ((4.1, True), (4.5, True), (4.9, True), (3.5, False)):
            state = initial_state(alpha)
            witness = one_sided_probe(state, "B")
            assert witness == qubit_block_witness(state, (0, 1, 2), (1, 2))
            assert (witness < -TOL.verdict) == certified
            assert abs(witness - 1.5 * pt_branch_eigenvalue(alpha, 1.0, 0.0)) < 1e-15

    def test_one_sided_rejects_bad_side(self):
        with pytest.raises(ValueError):
            one_sided_probe(initial_state(4.5), "C")

    def test_one_sided_rejects_other_dims(self):
        pair = make_state(Dims(3, 2), np.eye(6) / 6)
        with pytest.raises(ValueError, match=re.escape("probe is defined on dims (3, 3)")):
            one_sided_probe(pair, "B")

    def test_two_sided_exact_witnesses(self):
        witness = two_sided_probe(swapped_state(4.5))
        assert witness < -TOL.verdict
        assert abs(witness - (5.0 - 4.0 * math.sqrt(2.0)) / 18.0) < 1e-12
        witness = two_sided_probe(initial_state(4.5))
        assert not witness < -TOL.verdict
        assert abs(witness - 1.0 / 23.0) < 1e-12

    def test_two_sided_is_time_independent(self):
        for t in (0.0, 0.7, 3.0):
            evolved = evolve(swapped_state(4.5), GROUND_EXCITED, 1.0, 1.0, t)
            assert abs(two_sided_probe(evolved) - (5.0 - 4.0 * math.sqrt(2.0)) / 18.0) < 1e-12


class TestMaximallyCorrelated:
    def test_mc_state_support(self):
        spec = McSpec(np.full((3, 3), 1.0 / 3.0))
        state = mc_state(spec)
        d = state.dims
        for i in range(3):
            for j in range(3):
                assert abs(state.mat[d.flat(i, i), d.flat(j, j)] - 1.0 / 3.0) < 1e-15
        assert abs(np.sum(np.abs(state.mat)) - 3.0) < 1e-12
        assert make_state(d, state.mat).mat.tobytes() == state.mat.tobytes()

    def test_spec_validation(self):
        for shape in ((1, 1), (2, 3)):
            with pytest.raises(ValueError, match=re.escape(f"must be square and at least 2x2, got shape {shape}")):
                McSpec(np.full(shape, 1.0 / shape[1]))
        assert mc_state(McSpec(np.eye(3) / 3)).dims == Dims(3, 3)
        with pytest.raises(TraceNotOneError):
            McSpec(np.eye(2))
        with pytest.raises(NotPSDError):
            McSpec(np.array([[1.5, 0.9], [0.9, -0.5]]))

    @pytest.mark.parametrize("d", [3, 4])
    def test_uniform_spec_report(self, d):
        spec = McSpec(np.full((d, d), 1.0 / d))
        report = mc_report(spec, 1.0, 1.0, 0.7)
        assert report.still_mc
        assert report.mc_deviation <= 1e-12
        assert report.entangled
        assert report.distillable
        assert report.witness_value < -1e-4
        assert report.witness_labels == (0, 1)

    @pytest.mark.parametrize("d", [3, 4])
    def test_diagonal_spec_report(self, d):
        weights = np.arange(1.0, d + 1.0)
        spec = McSpec(np.diag(weights / weights.sum()))
        report = mc_report(spec, 1.0, 1.0, 0.7)
        assert report.still_mc
        assert not report.entangled
        assert not report.distillable
        assert report.witness_value is None and report.witness_labels is None

    def test_single_small_coherence_still_detected(self):
        a = np.diag([0.5, 0.3, 0.2]).astype(complex)
        a[0, 1] = a[1, 0] = 1e-3
        report = mc_report(McSpec(a), 1.0, 1.0, 0.5)
        assert report.entangled
        assert report.distillable
        assert report.witness_labels == (0, 1)

    def test_projection_reads_uniform_block(self):
        plus = mc_state(McSpec(np.full((3, 3), 1.0 / 3.0)))
        spec = mc_projection(plus, (0, 1), (0, 1))
        assert spec is not None
        # The normalized block is exactly 0.5 in every entry, bit for bit.
        assert spec.a.tobytes() == np.full((2, 2), 0.5, dtype=complex).tobytes()

    def test_projection_strictness_declines_family_corners(self):
        assert mc_projection(initial_state(4.5), (1, 2), (1, 2)) is None
        assert mc_projection(swapped_state(4.5), (1, 2), (1, 2)) is None

    def test_projection_requires_offdiagonal(self):
        diag = mc_state(McSpec(np.diag([0.2, 0.3, 0.5])))
        assert mc_projection(diag, (0, 1), (0, 1)) is None

    def test_projection_empty_block_is_none(self):
        m = np.zeros((9, 9), dtype=complex)
        m[0, 0] = 1.0
        assert mc_projection(make_state(QUTRIT_PAIR, m), (1, 2), (1, 2)) is None


class TestLimitVerdict:
    def test_family_verdicts(self):
        assert limit_verdict(initial_state(4.5)) == LimitVerdict.SEPARABLE_LIMIT
        assert limit_verdict(swapped_state(4.5)) == LimitVerdict.DISTILLABLE_LIMIT

    def test_verdicts_across_alpha(self):
        # the swapped family's surviving doublet coherence goes NPT only
        # past alpha = 4, where the corner PT eigenvalue (5 - sqrt((2a-5)^2
        # + 16))/2 turns negative
        for alpha in (3.5, 4.0, 4.9, 5.0):
            assert limit_verdict(initial_state(alpha)) == LimitVerdict.SEPARABLE_LIMIT
        for alpha in (3.5, 4.0):
            assert limit_verdict(swapped_state(alpha)) == LimitVerdict.SEPARABLE_LIMIT
        for alpha in (4.1, 4.9, 5.0):
            assert limit_verdict(swapped_state(alpha)) == LimitVerdict.DISTILLABLE_LIMIT

    def test_ground_only_state_is_separable_limit(self):
        m = np.zeros((9, 9), dtype=complex)
        m[0, 0] = 1.0
        assert limit_verdict(make_state(QUTRIT_PAIR, m)) == LimitVerdict.SEPARABLE_LIMIT
