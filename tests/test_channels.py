"""Contract tests for the dephasing channels and their fixed point."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import QUTRIT_PAIR, hermitize_by_passes
from dephaselab.channels import (
    IncompleteKrausError,
    KrausSet,
    NoiseParams,
    apply_channel,
    general_dephase,
    ground_excited,
    infinite_limit,
    kraus_ground_excited,
    local_pair,
    sector_dephase,
)
from dephaselab.linalg import eigvals_hermitian
from dephaselab.qstate import BadShapeError, Dims, make_state, random_state


def ground_excited_damping(gamma_a: float, gamma_b: float) -> np.ndarray:
    """Independent oracle: entrywise retention factors of the channel.

    A coherence picks up one gamma per side whose two labels straddle the
    ground/doublet split; same-sector label pairs survive untouched.
    """
    sector = [0, 1, 1]
    d = QUTRIT_PAIR
    f = np.ones((9, 9))
    for a in range(3):
        for b in range(3):
            for a2 in range(3):
                for b2 in range(3):
                    v = 1.0
                    if sector[a] != sector[a2]:
                        v *= gamma_a
                    if sector[b] != sector[b2]:
                        v *= gamma_b
                    f[d.flat(a, b), d.flat(a2, b2)] = v
    return f


def all_pairs_damping(state_dims: Dims, p: NoiseParams) -> np.ndarray:
    """Independent oracle for general_dephase: exp(-rate*t) per differing side."""
    fa, fb = math.exp(-p.gamma_rate_a * p.t), math.exp(-p.gamma_rate_b * p.t)
    d = state_dims
    f = np.ones((d.n, d.n))
    for a in range(d.da):
        for b in range(d.db):
            for a2 in range(d.da):
                for b2 in range(d.db):
                    v = (fa if a != a2 else 1.0) * (fb if b != b2 else 1.0)
                    f[d.flat(a, b), d.flat(a2, b2)] = v
    return f


class TestNoiseParams:
    def test_retention_factors(self):
        p = NoiseParams(0.8, 1.4, 2.0)
        assert abs(p.gamma_a - math.exp(-0.8)) < 1e-15
        assert abs(p.gamma_b - math.exp(-1.4)) < 1e-15
        assert abs(p.gamma_a**2 + p.omega_a**2 - 1.0) < 1e-15
        assert abs(p.gamma_b**2 + p.omega_b**2 - 1.0) < 1e-15

    def test_time_zero_is_noiseless(self):
        p = NoiseParams(1.0, 1.0, 0.0)
        assert p.gamma_a == 1.0 and p.omega_a == 0.0

    def test_rejects_bad_values(self):
        for args, message in (
            ((-1.0, 1.0, 1.0), "gamma_rate_a must be finite and nonnegative, got -1.0"),
            ((1.0, math.nan, 1.0), "gamma_rate_b must be finite and nonnegative, got nan"),
            ((1.0, 1.0, -0.1), "t must be finite and nonnegative, got -0.1"),
            ((math.inf, 1.0, 1.0), "gamma_rate_a must be finite and nonnegative, got inf"),
            ((1.0, -1.0, math.inf), "gamma_rate_b must be finite and nonnegative, got -1.0"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                NoiseParams(*args)


class TestLocalPair:
    def test_factors(self):
        keep, erase = local_pair(0.5)
        omega = math.sqrt(0.75)
        assert np.allclose(keep, np.diag([1.0, 0.5, 0.5]))
        assert np.allclose(erase, np.diag([0.0, omega, omega]))
        assert np.max(np.abs(keep @ keep + erase @ erase - np.eye(3))) < 1e-15


class TestKrausSet:
    def test_ground_excited_family(self):
        ks = kraus_ground_excited(NoiseParams(1.0, 0.7, 0.9))
        assert len(ks.ops) == 4
        for k in ks.ops:
            assert np.max(np.abs(k - np.diag(np.diag(k)))) == 0.0
            assert np.max(np.abs(k.imag)) == 0.0

    def test_both_completeness_conventions_coincide(self):
        ks = kraus_ground_excited(NoiseParams(0.6, 1.3, 1.1))
        left = sum(k.conj().T @ k for k in ks.ops)
        right = sum(k @ k.conj().T for k in ks.ops)
        assert np.max(np.abs(left - np.eye(9))) < 1e-12
        assert np.max(np.abs(right - np.eye(9))) < 1e-12

    def test_rejects_incomplete_family(self):
        with pytest.raises(IncompleteKrausError, match="deviates from the identity beyond 1e-12"):
            KrausSet((np.eye(9) * 0.5,), QUTRIT_PAIR)

    def test_rejects_wrong_shape(self):
        with pytest.raises(BadShapeError, match=re.escape("Kraus operator shape (4, 4), expected (9, 9)")):
            KrausSet((np.eye(4),), QUTRIT_PAIR)


class TestApplyChannel:
    def test_matches_damping_oracle(self, rng):
        p = NoiseParams(0.8, 1.3, 0.6)
        ks = kraus_ground_excited(p)
        for _ in range(10):
            state = random_state(rng, QUTRIT_PAIR)
            expected = state.mat * ground_excited_damping(p.gamma_a, p.gamma_b)
            for out in (apply_channel(state, ks), ground_excited(state, p)):
                assert np.max(np.abs(out.mat - expected)) < 1e-14

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        t=st.floats(0.0, 5.0) | st.floats(1000.0, 4000.0),
    )
    @example(seed=1, t=2109.0)
    def test_preserves_state_invariants(self, seed, t):
        # Past rate*t of about 1490 the ground/excited retention underflows
        # to 0.0; just below that it is subnormal (2.7e-321 on side B at the
        # pinned example, where one hermitization leaves a stray -0.0).
        state = random_state(np.random.default_rng(seed), QUTRIT_PAIR)
        noise = NoiseParams(1.0, 0.7, t)
        for out in (ground_excited(state, noise), general_dephase(state, noise), infinite_limit(state)):
            assert abs(np.trace(out.mat) - 1.0) < 1e-10
            assert np.max(np.abs(out.mat - out.mat.conj().T)) < 1e-10
            assert float(eigvals_hermitian(out.mat)[0]) > -1e-10
            assert make_state(out.dims, out.mat).mat.tobytes() == out.mat.tobytes()

    @pytest.mark.parametrize("real", [False, True])
    def test_keeps_the_bytes_of_two_complex_hermitizations(self, rng, real):
        # make_state hermitized with one complex pass of (m + m†) / 2 and
        # sector_dephase with two; the fixed-point routine keeps those
        # bytes, including the -0.0 imaginary parts an underflowing
        # retention leaves (evolve --t 2000 prints them).
        g = rng.standard_normal((40, 9, 9)) + 1j * (0.0 if real else rng.standard_normal((40, 9, 9)))
        raw = g @ g.conj().swapaxes(-1, -2)
        raw /= np.trace(raw, axis1=-2, axis2=-1).real[:, None, None]
        states = make_state(QUTRIT_PAIR, raw)
        assert states.mat.tobytes() == hermitize_by_passes(raw).tobytes()
        keeps = [1.0, 0.7, 1e-300, 1e-310, 2.7e-321, 5e-324, 0.0]
        negative_zeros = 0
        for keep_a in keeps:
            for keep_b in keeps:
                out = sector_dephase(states, (0, 1, 1), (0, 1, 1), keep_a, keep_b)
                masked = states.mat * ground_excited_damping(keep_a, keep_b)
                assert out.mat.tobytes() == hermitize_by_passes(masked, 2).tobytes()
                negative_zeros += np.count_nonzero(np.signbit(out.mat.imag) & (out.mat.imag == 0))
        assert real or negative_zeros > 0

    def test_maximally_mixed_is_fixed(self):
        mixed = make_state(QUTRIT_PAIR, np.eye(9) / 9)
        out = ground_excited(mixed, NoiseParams(1.0, 1.0, 2.0))
        assert np.max(np.abs(out.mat - mixed.mat)) < 1e-15

    def test_diagonal_states_are_fixed(self, rng):
        diag = make_state(QUTRIT_PAIR, np.diag(rng.dirichlet(np.ones(9))))
        out = ground_excited(diag, NoiseParams(0.4, 2.0, 1.5))
        assert np.max(np.abs(out.mat - diag.mat)) < 1e-15

    def test_dims_mismatch_raises(self, rng):
        state = random_state(rng, Dims(2, 3))
        with pytest.raises(BadShapeError):
            apply_channel(state, kraus_ground_excited(NoiseParams(1.0, 1.0, 1.0)))

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        t1=st.floats(0.0, 5.0),
        t2=st.floats(0.0, 5.0),
    )
    def test_semigroup_composition(self, seed, t1, t2):
        state = random_state(np.random.default_rng(seed), QUTRIT_PAIR)
        step = ground_excited(
            ground_excited(state, NoiseParams(1.0, 0.7, t1)), NoiseParams(1.0, 0.7, t2)
        )
        direct = ground_excited(state, NoiseParams(1.0, 0.7, t1 + t2))
        assert np.max(np.abs(step.mat - direct.mat)) < 1e-10


class TestGeneralDephase:
    def test_matches_damping_oracle(self, rng):
        for dims in (QUTRIT_PAIR, Dims(4, 4), Dims(2, 3)):
            p = NoiseParams(0.9, 0.3, 1.2)
            state = random_state(rng, dims)
            expected = state.mat * all_pairs_damping(dims, p)
            assert np.max(np.abs(general_dephase(state, p).mat - expected)) < 1e-15

    def test_preserves_diagonal(self, rng):
        state = random_state(rng, QUTRIT_PAIR)
        out = general_dephase(state, NoiseParams(2.0, 2.0, 3.0))
        assert np.max(np.abs(np.diag(out.mat) - np.diag(state.mat))) < 1e-15

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        t1=st.floats(0.0, 5.0),
        t2=st.floats(0.0, 5.0),
    )
    def test_semigroup_composition_exact(self, seed, t1, t2):
        state = random_state(np.random.default_rng(seed), QUTRIT_PAIR)
        step = general_dephase(
            general_dephase(state, NoiseParams(0.5, 1.1, t1)), NoiseParams(0.5, 1.1, t2)
        )
        direct = general_dephase(state, NoiseParams(0.5, 1.1, t1 + t2))
        assert np.max(np.abs(step.mat - direct.mat)) < 1e-13

    def test_preserves_positivity(self, rng):
        for _ in range(20):
            out = general_dephase(random_state(rng, Dims(4, 4)), NoiseParams(1.0, 0.2, 0.8))
            assert float(eigvals_hermitian(out.mat)[0]) > -1e-12


class TestInfiniteLimit:
    def test_agrees_with_long_evolution(self, rng):
        for _ in range(5):
            state = random_state(rng, QUTRIT_PAIR)
            evolved = apply_channel(state, kraus_ground_excited(NoiseParams(1.0, 1.0, 50.0)))
            assert np.max(np.abs(infinite_limit(state).mat - evolved.mat)) < 1e-8

    def test_support_pattern(self, rng):
        lim = infinite_limit(random_state(rng, QUTRIT_PAIR)).mat
        d = QUTRIT_PAIR
        sector = [0, 1, 1]
        for a in range(3):
            for b in range(3):
                for a2 in range(3):
                    for b2 in range(3):
                        if sector[a] != sector[a2] or sector[b] != sector[b2]:
                            assert lim[d.flat(a, b), d.flat(a2, b2)] == 0.0

    def test_idempotent(self, rng):
        lim = infinite_limit(random_state(rng, QUTRIT_PAIR))
        assert np.max(np.abs(infinite_limit(lim).mat - lim.mat)) < 1e-15

    def test_rejects_other_dimensions(self, rng):
        with pytest.raises(BadShapeError):
            infinite_limit(random_state(rng, Dims(2, 3)))
        with pytest.raises(BadShapeError):
            sector_dephase(random_state(rng, QUTRIT_PAIR), (0, 1), (0, 1, 1), 0.0, 0.0)
