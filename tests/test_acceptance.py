"""Acceptance gate: one test per shipped claim, one pass/fail line each.

Every test gathers all violated clauses before failing, so a red entry
lists exactly which sub-claims broke and by how much. Run with -s to see
the [Cnn] PASS/FAIL lines alongside the pytest verdicts.
"""

import math

import numpy as np

from conftest import GOLDEN_DIR, QUTRIT_PAIR, bures_fidelity, random_separable_mixture, retention, run_cli
from dephaselab.channels import (
    GENERAL,
    GROUND_EXCITED,
    apply_channel,
    evolve,
    infinite_limit,
    kraus_ground_excited,
)
from dephaselab.criteria import (
    Verdict,
    classify,
    find_sign_change,
    min_pt_eigenvalue,
    qubit_block_witness,
    realignment_excess,
    separability_certificate,
)
from dephaselab.family import (
    LimitVerdict,
    McSpec,
    certificate_blocks,
    certificate_onset_time,
    evolved_closed_form,
    fidelity_initial,
    fidelity_swapped,
    initial_state,
    limit_verdict,
    mc_report,
    mc_state,
    ppt_onset_time,
    pt_branch_eigenvalue,
    swapped_state,
    two_sided_probe,
)
from dephaselab.linalg import eigvals_hermitian
from dephaselab.qstate import partial_transpose, random_state


def _gate(label: str, failures: list) -> None:
    if failures:
        print(f"[{label}] FAIL ({len(failures)} clause(s))")
        detail = "\n".join(f"  - {f}" for f in failures)
        raise AssertionError(f"{label} failed:\n{detail}")
    print(f"[{label}] PASS")


def _family(alpha: float, gamma: float, t: float):
    return evolved_closed_form(alpha, gamma, gamma, t)


def test_c01_distillability_onset():
    failures = []
    root = find_sign_change(lambda t: min_pt_eigenvalue(_family(4.5, 1.0, t)), 0.1, 2.0)
    closed = math.log(4.0 / (4.5 * 0.5))
    if abs(root - 0.575364) > 1e-6:
        failures.append(f"bisection onset {root!r} is not 0.575364 within 1e-6")
    if abs(root - closed) > 1e-6:
        failures.append(f"bisection onset {root!r} disagrees with ln(4/(alpha(5-alpha))) = {closed!r}")
    if round(root, 2) != 0.58:
        failures.append(f"onset {root!r} does not round to 0.58")
    _gate("C01", failures)


def test_c02_bound_window():
    failures = []

    def excess(t: float) -> float:
        return realignment_excess(_family(4.5, 1.0, t))

    for t in np.linspace(0.5754, 0.8362, 101)[1:-1]:
        if excess(float(t)) <= 1e-10:
            failures.append(f"realignment excess not positive at t={t}")
            break
    root = find_sign_change(excess, 0.7, 1.2)
    analytic_zero = 2.0 * math.log((4.0 + math.sqrt(44.0)) / 7.0)
    if abs(root - analytic_zero) > 1e-6:
        failures.append(
            f"excess zero {root!r} disagrees with analytic root 2*ln((4+sqrt(44))/7) = {analytic_zero!r}"
        )
    verdict = classify(_family(4.5, 1.0, 0.7)).verdict
    if verdict is not Verdict.PPT_BOUND_ENTANGLED:
        failures.append(f"t=0.7 classifies as {verdict.value}, not PptBoundEntangled")
    _gate("C02", failures)


def test_c03_certificate_onset():
    failures = []
    blocks = certificate_blocks()
    onset = certificate_onset_time(4.5, 1.0)
    if abs(onset - 1.386294) > 1e-6:
        failures.append(f"onset {onset!r} is not 1.386294 within 1e-6")
    if abs(onset - 2.0 * math.log(2.0)) > 1e-9:
        failures.append(f"onset {onset!r} is not 2*ln(2)")
    if separability_certificate(_family(4.5, 1.0, onset - 1e-4), blocks).passed:
        failures.append("certificate already passes just below the onset")
    if not separability_certificate(_family(4.5, 1.0, onset + 1e-4), blocks).passed:
        failures.append("certificate still fails just above the onset")

    onset_late = certificate_onset_time(4.9, 1.0)
    t_d_late = ppt_onset_time(4.9, 1.0)
    if abs(onset_late - 2.099644) > 1e-6:
        failures.append(f"alpha=4.9 onset {onset_late!r} is not 2.099644 within 1e-6")
    if onset_late < t_d_late - 1e-12:
        failures.append("certificate onset precedes the PPT time at alpha=4.9")
    for t in (0.5, 1.0, 1.5, 2.0, t_d_late - 1e-3):
        if separability_certificate(_family(4.9, 1.0, t), blocks).passed:
            failures.append(f"alpha=4.9 certificate passes at t={t} while still NPT")
    _gate("C03", failures)


def test_c04_closed_form_matches_kraus():
    failures = []
    worst = 0.0
    for alpha in (4.1, 4.5, 4.9):
        start = initial_state(alpha)
        for gamma in (0.4, 0.7, 1.0):
            for t in np.arange(0.0, 3.0 + 1e-9, 0.25):
                keep = retention(gamma, t)
                via_kraus = apply_channel(start, kraus_ground_excited(keep, keep))
                closed = evolved_closed_form(alpha, gamma, gamma, float(t))
                worst = max(worst, float(np.max(np.abs(closed.mat - via_kraus.mat))))
    if worst > 1e-12:
        failures.append(f"worst closed-form vs Kraus deviation {worst!r} exceeds 1e-12")
    _gate("C04", failures)


def test_c05_branch_eigenvalues_in_pt_spectrum():
    failures = []
    for rate_a, rate_b in ((1.0, 1.0), (0.4, 0.7), (0.6, 1.3)):
        for t in (0.5, 1.0, 2.0):
            state = evolved_closed_form(4.5, rate_a, rate_b, t)
            spectrum = eigvals_hermitian(partial_transpose(state))
            for rate_sum in (rate_a, rate_b, rate_a + rate_b):
                predicted = pt_branch_eigenvalue(4.5, rate_sum, t)
                gap = float(np.min(np.abs(spectrum - predicted)))
                if gap > 1e-10:
                    failures.append(
                        f"branch eigenvalue for rate sum {rate_sum} at t={t}, rates "
                        f"({rate_a},{rate_b}) misses the PT spectrum by {gap!r}"
                    )
    _gate("C05", failures)


def test_c06_fidelity_reproduction():
    failures = []
    rho0 = initial_state(4.5)
    prime0 = swapped_state(4.5)
    worst_rho = (0.0, 0.0)
    worst_prime = (0.0, 0.0)
    dominance_broken = None
    for t in np.arange(0.1, 5.0 + 1e-9, 0.1):
        keep = retention(1.0, t)
        f_rho = bures_fidelity(rho0, evolved_closed_form(4.5, 1.0, 1.0, float(t)))
        f_prime = bures_fidelity(prime0, apply_channel(prime0, kraus_ground_excited(keep, keep)))
        gap_rho = abs(f_rho - fidelity_initial(1.0, float(t)))
        gap_prime = abs(f_prime - fidelity_swapped(1.0, float(t)))
        if gap_rho > worst_rho[0]:
            worst_rho = (gap_rho, float(t))
        if gap_prime > worst_prime[0]:
            worst_prime = (gap_prime, float(t))
        if f_prime < f_rho - 1e-12 and dominance_broken is None:
            dominance_broken = float(t)
    if worst_rho[0] > 1e-9:
        failures.append(
            f"unswapped Bures curve misses its closed form by {worst_rho[0]:.3e} "
            f"at t={worst_rho[1]:.1f} (tolerance 1e-9)"
        )
    if worst_prime[0] > 1e-9:
        failures.append(
            f"swapped Bures curve misses its closed form by {worst_prime[0]:.3e} "
            f"at t={worst_prime[1]:.1f} (tolerance 1e-9)"
        )
    if dominance_broken is not None:
        failures.append(f"swapped fidelity drops below unswapped at t={dominance_broken}")

    late = retention(1.0, 10.0)
    f_rho_late = bures_fidelity(rho0, evolved_closed_form(4.5, 1.0, 1.0, 10.0))
    f_prime_late = bures_fidelity(prime0, apply_channel(prime0, kraus_ground_excited(late, late)))
    if abs(f_rho_late - 0.773068) > 1e-3:
        failures.append(
            f"unswapped fidelity at t=10 is {f_rho_late!r}, off the expected "
            f"limit 0.773068 by {abs(f_rho_late - 0.773068):.4e} (tolerance 1e-3)"
        )
    if abs(f_prime_late - 0.897889) > 1e-3:
        failures.append(
            f"swapped fidelity at t=10 is {f_prime_late!r}, off the expected "
            f"limit 0.897889 by {abs(f_prime_late - 0.897889):.4e} (tolerance 1e-3)"
        )
    _gate("C06", failures)


def test_c07_probe_detectors():
    failures = []
    prime0 = swapped_state(4.5)
    for t in np.arange(0.0, 10.0 + 1e-9, 0.1):
        state = evolve(prime0, GROUND_EXCITED, 1.0, 1.0, float(t))
        witness = qubit_block_witness(state, (1, 2), (1, 2))
        if witness >= -1e-10:
            failures.append(f"swapped-family doublet witness lost at t={t}: {witness!r}")
            break
    if not two_sided_probe(prime0) < -1e-10:
        failures.append("two-sided probe fails to certify the swapped state at t=0")
    if two_sided_probe(initial_state(4.5)) < -1e-10:
        failures.append("two-sided probe wrongly flags the unswapped state at t=0")
    _gate("C07", failures)


def test_c08_semigroup_composition():
    failures = []
    rng = np.random.default_rng(8)
    start = initial_state(4.5)
    rate_a, rate_b = 0.7, 1.3
    for _ in range(50):
        t1, t2 = rng.uniform(0.0, 2.5, size=2)
        two_step = evolve(evolve(start, GROUND_EXCITED, rate_a, rate_b, t1), GROUND_EXCITED, rate_a, rate_b, t2)
        one_step = evolve(start, GROUND_EXCITED, rate_a, rate_b, t1 + t2)
        dev = float(np.max(np.abs(two_step.mat - one_step.mat)))
        if dev > 1e-10:
            failures.append(f"ground/excited semigroup broken at (t1,t2)=({t1},{t2}): {dev!r}")

        two_step = evolve(evolve(start, GENERAL, rate_a, rate_b, t1), GENERAL, rate_a, rate_b, t2)
        one_step = evolve(start, GENERAL, rate_a, rate_b, t1 + t2)
        dev = float(np.max(np.abs(two_step.mat - one_step.mat)))
        if dev > 1e-10:
            failures.append(f"general dephasing semigroup broken at (t1,t2)=({t1},{t2}): {dev!r}")
    _gate("C08", failures)


def test_c09_limits_never_bound_entangled():
    failures = []
    rng = np.random.default_rng(909)
    for k in range(200):
        lim = infinite_limit(random_state(rng, QUTRIT_PAIR))
        if min_pt_eigenvalue(lim) >= -1e-10 and realignment_excess(lim) > 1e-10:
            failures.append(f"random limit state #{k} is PPT yet realignment-witnessed")
    if limit_verdict(initial_state(4.5)) is not LimitVerdict.SEPARABLE_LIMIT:
        failures.append("unswapped family limit not reported separable")
    if limit_verdict(swapped_state(4.5)) is not LimitVerdict.DISTILLABLE_LIMIT:
        failures.append("swapped family limit not reported distillable")
    _gate("C09", failures)


def test_c10_property_suites():
    failures = []
    rng = np.random.default_rng(1010)

    for k in range(100):
        excess = realignment_excess(random_separable_mixture(rng, QUTRIT_PAIR))
        if excess > 1e-10:
            failures.append(f"separable mixture #{k} has realignment excess {excess!r}")

    for k in range(100):
        state = random_state(rng, QUTRIT_PAIR)
        out = evolve(state, GROUND_EXCITED, *rng.uniform(0.1, 2.0, size=2), rng.uniform(0.0, 3.0))
        if abs(np.trace(out.mat) - 1.0) > 1e-10:
            failures.append(f"channel broke trace on random state #{k}")
        if np.max(np.abs(out.mat - out.mat.conj().T)) > 1e-10:
            failures.append(f"channel broke hermiticity on random state #{k}")
        if float(np.min(eigvals_hermitian(out.mat))) < -1e-10:
            failures.append(f"channel broke positivity on random state #{k}")

    for d in (3, 4):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        coeff = g @ g.conj().T
        coeff /= np.trace(coeff).real
        report = mc_report(McSpec(coeff), 0.8, 1.1, 0.9)
        if not report.still_mc or report.mc_deviation > 1e-12:
            failures.append(f"dephasing broke the maximally correlated pattern at d={d}")
        if not report.entangled:
            failures.append(f"coherent maximally correlated state at d={d} not flagged entangled")
        diag = McSpec(np.diag(rng.dirichlet(np.ones(d))))
        diag_report = mc_report(diag, 0.8, 1.1, 0.9)
        if not diag_report.still_mc or diag_report.entangled:
            failures.append(f"diagonal maximally correlated state at d={d} misreported")

    args = ("sweep", "--quantity", "verdict", "--t-range", "0", "2", "41")
    if run_cli(*args).stdout != run_cli(*args).stdout:
        failures.append("verdict sweep reruns are not byte-identical")
    golden = {
        ("4.5", "1"): "thresholds_alpha45_gamma1.json",
        ("5", "0.7"): "thresholds_alpha5_gamma07.json",
    }
    for (alpha, gamma), name in golden.items():
        got = run_cli("thresholds", "--alpha", alpha, "--gamma", gamma).stdout
        if got != (GOLDEN_DIR / name).read_bytes():
            failures.append(f"threshold report for alpha={alpha}, gamma={gamma} drifted from golden file")
    _gate("C10", failures)
