"""Contract tests for the analytic family: closed forms, probes, verdicts."""

import math
import re

import numpy as np
import pytest

from conftest import QUTRIT_PAIR, evolved_family_by_entries, swapped_family_by_mixture
from dephaselab.channels import NoiseParams, apply_channel, ground_excited, kraus_ground_excited
from dephaselab.criteria import (
    find_sign_change,
    min_pt_eigenvalue,
    qubit_block_witness,
    realignment_excess,
    separability_certificate,
)
from dephaselab.family import (
    AlphaDomainError,
    AlreadyPptError,
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
from dephaselab.linalg import TOL, NotPSDError, eigvals_hermitian
from dephaselab.qstate import TraceNotOneError, ZeroTraceError, make_state, partial_transpose


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
            evolved_closed_form(2.0, NoiseParams(1.0, 1.0, 1.0))

    def test_ppt_split_at_alpha_four(self):
        assert min_pt_eigenvalue(initial_state(4.05)) < -1e-6
        assert min_pt_eigenvalue(initial_state(3.95)) > -1e-12
        assert realignment_excess(initial_state(3.95)) > 1e-3


class TestEvolvedClosedForm:
    def test_matches_kraus_path(self):
        for alpha in (4.1, 4.9):
            for ga, gb in ((1.0, 1.0), (0.6, 1.3)):
                for t in (0.0, 0.5, 2.0):
                    noise = NoiseParams(ga, gb, t)
                    closed = evolved_closed_form(alpha, noise)
                    kraus = apply_channel(initial_state(alpha), kraus_ground_excited(noise))
                    assert np.max(np.abs(closed.mat - kraus.mat)) < 1e-12

    def test_bit_identical_to_entry_oracle(self):
        for alpha in (4.1, 4.5, 4.9):
            for ga, gb in ((0.4, 0.4), (1.0, 1.0), (0.6, 1.3), (1.3, 0.6)):
                for t in (0.0, 0.25, 0.575, 1.0, 2.0, 3.0, 10.0):
                    noise = NoiseParams(ga, gb, t)
                    closed = evolved_closed_form(alpha, noise)
                    assert np.array_equal(closed.mat, evolved_family_by_entries(alpha, noise).mat)

    def test_coherence_retention_factors(self):
        noise = NoiseParams(0.8, 1.4, 1.3)
        state = evolved_closed_form(4.5, noise)
        d = QUTRIT_PAIR
        c = 2.0 / 21.0
        assert abs(state.mat[d.flat(0, 1), d.flat(1, 0)] - c * noise.gamma_a * noise.gamma_b) < 1e-15
        assert abs(state.mat[d.flat(0, 1), d.flat(2, 2)] - c * noise.gamma_a) < 1e-15
        assert abs(state.mat[d.flat(1, 0), d.flat(2, 2)] - c * noise.gamma_b) < 1e-15

    def test_diagonal_is_static(self):
        before = initial_state(4.2)
        after = evolved_closed_form(4.2, NoiseParams(1.0, 1.0, 3.0))
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
        noise = NoiseParams(1.0, 1.0, 1.0)
        evolved = evolved_closed_form(4.5, noise)
        assert abs(min_pt_eigenvalue(evolved) - pt_branch_eigenvalue(4.5, 1.0, 1.0)) < 1e-12
        assert abs(pt_branch_eigenvalue(4.5, 1.0, 1.0) - 0.007660592149545224) < 1e-12

    def test_branch_membership_unequal_rates(self):
        ga, gb, t = 0.6, 1.3, 0.9
        evolved = evolved_closed_form(4.5, NoiseParams(ga, gb, t))
        spectrum = eigvals_hermitian(partial_transpose(evolved, "B"))
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
        before = evolved_closed_form(4.5, NoiseParams(1.0, 1.0, onset - 1e-4))
        after = evolved_closed_form(4.5, NoiseParams(1.0, 1.0, onset + 1e-4))
        assert min_pt_eigenvalue(before) < -1e-10
        assert min_pt_eigenvalue(after) > -1e-12

    def test_already_ppt_rejected(self):
        for alpha in (3.5, 4.0):
            with pytest.raises(AlreadyPptError):
                ppt_onset_time(alpha, 1.0)

    def test_bisection_consistency_across_rates(self):
        for alpha, rate in ((4.3, 1.0), (4.7, 0.5), (4.5, 1.7)):
            def pt_curve(t: float) -> float:
                return min_pt_eigenvalue(
                    evolved_closed_form(alpha, NoiseParams(rate, rate, t))
                )
            root = find_sign_change(pt_curve, 0.0, 6.0, tol=1e-9)
            assert abs(root - ppt_onset_time(alpha, rate)) < 1e-6

    def test_realignment_closed_form_matches_numeric(self):
        for alpha in (4.1, 4.5, 4.9):
            for t in (0.0, 0.4, 0.8361513912283498, 1.5):
                closed = realignment_closed_form(alpha, 1.0, t)
                numeric = realignment_excess(
                    evolved_closed_form(alpha, NoiseParams(1.0, 1.0, t))
                )
                assert abs(closed - numeric) < 1e-10

    def test_realignment_zero_of_closed_form(self):
        root = 2.0 * math.log((4.0 + math.sqrt(44.0)) / 7.0)
        assert abs(realignment_closed_form(4.5, 1.0, root)) < 1e-15
        assert abs(root - 0.8361513912283498) < 1e-15


class TestCertificateOnset:
    def test_closed_form_values(self):
        assert abs(certificate_onset_time(4.5, 1.0) - 2.0 * math.log(2.0)) < 1e-15
        assert abs(certificate_onset_time(4.9, 1.0) - ppt_onset_time(4.9, 1.0)) < 1e-15
        assert certificate_onset_time(5.0, 1.0) == math.inf

    def test_scan_matches_closed_form(self):
        blocks = certificate_blocks()
        for alpha in (4.2, 4.5, 4.8):
            def margin(t: float) -> float:
                result = separability_certificate(
                    evolved_closed_form(alpha, NoiseParams(1.0, 1.0, t)), blocks
                )
                return min(min(b.min_eigenvalue, b.min_pt_eigenvalue) for b in result.blocks)
            onset = find_sign_change(margin, 0.05, 5.0, tol=1e-9)
            assert abs(onset - certificate_onset_time(alpha, 1.0)) < 1e-6

    def test_blocks_cover_all_nine_diagonals_once(self):
        alloc = {}
        for block in certificate_blocks():
            for idx, w in block.diag_weights.items():
                alloc[idx] = alloc.get(idx, 0.0) + w
        assert set(alloc) == set(range(9))
        assert all(abs(total - 1.0) < 1e-15 for total in alloc.values())


class TestFidelityCurves:
    def test_start_at_one(self):
        assert fidelity_initial(1.0, 0.0) == 1.0
        assert fidelity_swapped(1.0, 0.0) == 1.0

    def test_known_values(self):
        assert abs(fidelity_initial(1.0, 1.0) - 0.9046160261878066) < 1e-12
        assert abs(fidelity_swapped(1.0, 1.0) - 0.9218949543425569) < 1e-12

    def test_monotone_decay_and_dominance(self):
        ts = np.linspace(0.0, 6.0, 61)
        f_rho = [fidelity_initial(1.0, float(t)) for t in ts]
        f_prime = [fidelity_swapped(1.0, float(t)) for t in ts]
        assert all(a >= b - 1e-15 for a, b in zip(f_rho, f_rho[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(f_prime, f_prime[1:]))
        assert all(p >= r for r, p in zip(f_rho, f_prime))

    def test_large_time_limits(self):
        lim_rho = ((15.0 + math.sqrt(12.0)) / 21.0) ** 2
        lim_prime = ((15.0 + math.sqrt(24.0)) / 21.0) ** 2
        assert abs(fidelity_initial(1.0, 200.0) - lim_rho) < 1e-14
        assert abs(fidelity_swapped(1.0, 200.0) - lim_prime) < 1e-14


class TestProbes:
    def test_one_sided_frozen_values(self):
        witness = one_sided_probe(swapped_state(4.5), "B", NoiseParams(1.0, 1.0, 1.0))
        assert witness < -TOL.verdict
        assert abs(witness - (-0.023459080339013578)) < 1e-12
        witness = one_sided_probe(initial_state(4.5), "B", NoiseParams(1.0, 1.0, 0.3))
        assert witness < -TOL.verdict
        assert abs(witness - (-0.009914386446286241)) < 1e-12
        witness = one_sided_probe(initial_state(4.5), "B", NoiseParams(1.0, 1.0, 1.0))
        assert not witness < -TOL.verdict
        assert abs(witness - 0.01149088822431783) < 1e-12

    def test_one_sided_flag_tracks_ppt_onset(self):
        onset = ppt_onset_time(4.5, 1.0)
        for t in (0.1, 0.3, 0.5):
            assert t < onset
            assert one_sided_probe(initial_state(4.5), "B", NoiseParams(1.0, 1.0, t)) < -TOL.verdict
        for t in (0.65, 1.0, 2.0):
            assert t > onset
            assert not one_sided_probe(initial_state(4.5), "B", NoiseParams(1.0, 1.0, t)) < -TOL.verdict

    def test_one_sided_swapped_both_sides_all_times(self):
        for side in ("A", "B"):
            for t in (0.2, 1.0, 5.0):
                assert one_sided_probe(swapped_state(4.5), side, NoiseParams(1.0, 1.0, t)) < -TOL.verdict

    def test_one_sided_weight_and_support(self):
        # Side B's branch is the 3x2 block (0,1,2)x(1,2) of the evolved state, weighted by omega_b^2.
        noise = NoiseParams(1.0, 1.0, 1.0)
        evolved = ground_excited(initial_state(4.5), noise)
        witness = qubit_block_witness(evolved, (0, 1, 2), (1, 2))
        assert one_sided_probe(initial_state(4.5), "B", noise) == witness
        # The block's trace is 2/3 at every t, so the branch weight omega_b^2 * 2/3
        # crosses TOL.zero_trace at t of about 1.5e-12.
        early, late = NoiseParams(1.0, 1.0, 0.5e-12), NoiseParams(1.0, 1.0, 3e-12)
        assert early.omega_b ** 2 * (2.0 / 3.0) < TOL.zero_trace < late.omega_b ** 2 * (2.0 / 3.0)
        with pytest.raises(ZeroTraceError):
            one_sided_probe(initial_state(4.5), "B", early)
        assert math.isfinite(one_sided_probe(initial_state(4.5), "B", late))

    def test_one_sided_needs_time(self):
        with pytest.raises(ZeroTraceError):
            one_sided_probe(initial_state(4.5), "B", NoiseParams(1.0, 1.0, 0.0))

    def test_one_sided_rejects_bad_side(self):
        with pytest.raises(ValueError):
            one_sided_probe(initial_state(4.5), "C", NoiseParams(1.0, 1.0, 1.0))

    def test_two_sided_exact_witnesses(self):
        witness = two_sided_probe(swapped_state(4.5))
        assert witness < -TOL.verdict
        assert abs(witness - (5.0 - 4.0 * math.sqrt(2.0)) / 18.0) < 1e-12
        witness = two_sided_probe(initial_state(4.5))
        assert not witness < -TOL.verdict
        assert abs(witness - 1.0 / 23.0) < 1e-12

    def test_two_sided_is_time_independent(self):
        for t in (0.0, 0.7, 3.0):
            evolved = ground_excited(swapped_state(4.5), NoiseParams(1.0, 1.0, t))
            assert abs(two_sided_probe(evolved) - (5.0 - 4.0 * math.sqrt(2.0)) / 18.0) < 1e-12


class TestMaximallyCorrelated:
    def test_mc_state_support(self):
        spec = McSpec(3, np.full((3, 3), 1.0 / 3.0))
        state = mc_state(spec)
        d = state.dims
        for i in range(3):
            for j in range(3):
                assert abs(state.mat[d.flat(i, i), d.flat(j, j)] - 1.0 / 3.0) < 1e-15
        assert abs(np.sum(np.abs(state.mat)) - 3.0) < 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError, match=re.escape("local dimension must be >= 2, got 1")):
            McSpec(1, np.array([[1.0]]))
        with pytest.raises(ValueError, match=re.escape("coefficient matrix shape (3, 3), expected (2, 2)")):
            McSpec(2, np.eye(3) / 3)
        with pytest.raises(TraceNotOneError):
            McSpec(2, np.eye(2))
        with pytest.raises(NotPSDError):
            McSpec(2, np.array([[1.5, 0.9], [0.9, -0.5]]))

    @pytest.mark.parametrize("d", [3, 4])
    def test_uniform_spec_report(self, d):
        spec = McSpec(d, np.full((d, d), 1.0 / d))
        report = mc_report(spec, NoiseParams(1.0, 1.0, 0.7))
        assert report.still_mc
        assert report.mc_deviation <= 1e-12
        assert report.entangled
        assert report.distillable
        assert report.witness_value < -1e-4
        assert report.witness_labels == (0, 1)

    @pytest.mark.parametrize("d", [3, 4])
    def test_diagonal_spec_report(self, d):
        weights = np.arange(1.0, d + 1.0)
        spec = McSpec(d, np.diag(weights / weights.sum()))
        report = mc_report(spec, NoiseParams(1.0, 1.0, 0.7))
        assert report.still_mc
        assert not report.entangled
        assert not report.distillable
        assert report.witness_value is None and report.witness_labels is None

    def test_single_small_coherence_still_detected(self):
        a = np.diag([0.5, 0.3, 0.2]).astype(complex)
        a[0, 1] = a[1, 0] = 1e-3
        report = mc_report(McSpec(3, a), NoiseParams(1.0, 1.0, 0.5))
        assert report.entangled
        assert report.distillable
        assert report.witness_labels == (0, 1)

    def test_projection_reads_uniform_block(self):
        plus = mc_state(McSpec(3, np.full((3, 3), 1.0 / 3.0)))
        spec = mc_projection(plus, (0, 1), (0, 1))
        assert spec is not None
        assert np.max(np.abs(spec.a - np.full((2, 2), 0.5))) < 1e-12

    def test_projection_strictness_declines_family_corners(self):
        assert mc_projection(initial_state(4.5), (1, 2), (1, 2)) is None
        assert mc_projection(swapped_state(4.5), (1, 2), (1, 2)) is None

    def test_projection_requires_offdiagonal(self):
        diag = mc_state(McSpec(3, np.diag([0.2, 0.3, 0.5])))
        assert mc_projection(diag, (0, 1), (0, 1)) is None

    def test_projection_empty_block_raises(self):
        m = np.zeros((9, 9), dtype=complex)
        m[0, 0] = 1.0
        state = make_state(QUTRIT_PAIR, m)
        with pytest.raises(ZeroTraceError):
            mc_projection(state, (1, 2), (1, 2))


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
