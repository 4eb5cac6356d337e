"""Contract tests for the dephasing channels and their fixed point."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import QUTRIT_PAIR, hermitize_by_passes, retention
from dephaselab.channels import (
    GENERAL,
    GROUND_EXCITED,
    apply_channel,
    evolve,
    infinite_limit,
    kraus_ground_excited,
    local_pair,
    sector_dephase,
)
from dephaselab.family import initial_state
from dephaselab.linalg import DomainError, eigvals_hermitian
from dephaselab.qstate import BadShapeError, DensityMatrix, Dims, make_state, random_state


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


def all_pairs_damping(state_dims: Dims, rate_a: float, rate_b: float, t: float) -> np.ndarray:
    """Independent oracle for general dephasing: exp(-rate*t) per differing side."""
    fa, fb = math.exp(-rate_a * t), math.exp(-rate_b * t)
    d = state_dims
    f = np.ones((d.n, d.n))
    for a in range(d.da):
        for b in range(d.db):
            for a2 in range(d.da):
                for b2 in range(d.db):
                    v = (fa if a != a2 else 1.0) * (fb if b != b2 else 1.0)
                    f[d.flat(a, b), d.flat(a2, b2)] = v
    return f


class TestEvolve:
    def test_retention_factors(self, rng):
        state = random_state(rng, QUTRIT_PAIR)
        for model, expected in (
            (GROUND_EXCITED, state.mat * ground_excited_damping(math.exp(-0.8), math.exp(-1.4))),
            (GENERAL, state.mat * all_pairs_damping(QUTRIT_PAIR, 0.8, 1.4, 2.0)),
        ):
            assert np.max(np.abs(evolve(state, model, 0.8, 1.4, 2.0).mat - expected)) < 1e-15

    def test_time_zero_is_noiseless(self, rng):
        state = random_state(rng, QUTRIT_PAIR)
        for model in (GROUND_EXCITED, GENERAL):
            assert evolve(state, model, 1.0, 1.0, 0.0).mat.tobytes() == state.mat.tobytes()

    def test_rejects_bad_values(self):
        # linalg.check_nonneg's rule, so a DomainError: the CLI's exit 3.
        # Rates are checked before the time, and an array by its minimum
        # and maximum: the value shown is the offending extreme.
        state = initial_state(4.5)
        cases = (
            ((-1.0, 1.0, 1.0), "gamma_rate_a must be finite and nonnegative, got -1.0"),
            ((1.0, math.nan, 1.0), "gamma_rate_b must be finite and nonnegative, got nan"),
            ((1.0, 1.0, -0.1), "t must be finite and nonnegative, got -0.1"),
            ((math.inf, 1.0, 1.0), "gamma_rate_a must be finite and nonnegative, got inf"),
            ((1.0, -1.0, math.inf), "gamma_rate_b must be finite and nonnegative, got -1.0"),
            ((np.array([0.5, -2.0, math.inf]), 1.0, 1.0), "gamma_rate_a must be finite and nonnegative, got -2.0"),
            ((1.0, [0.5, math.inf], 1.0), "gamma_rate_b must be finite and nonnegative, got inf"),
            ((1.0, 1.0, np.array([0.5, math.nan, -1.0])), "t must be finite and nonnegative, got nan"),
        )
        for (args, message), model in itertools.product(cases, (GROUND_EXCITED, GENERAL)):
            with pytest.raises(DomainError, match=f"^{message}$"):
                evolve(state, model, *args)

    def test_takes_each_value_as_the_float_it_holds(self):
        # Integers, numpy scalars and integer arrays evolve as the floats
        # they hold, bit for bit.
        state = initial_state(4.5)
        for model in (GROUND_EXCITED, GENERAL):
            as_floats = evolve(state, model, 1.0, 2.0, 3.0).mat.tobytes()
            assert evolve(state, model, 1, np.int64(2), np.float64(3.0)).mat.tobytes() == as_floats
            stack = evolve(state, model, np.array([1, 1]), 2, [3, 3]).mat
            assert stack.shape == (2, 9, 9) and stack[1].tobytes() == as_floats


class TestLocalPair:
    def test_factors(self):
        keep, erase = local_pair(0.5)
        omega = math.sqrt(0.75)
        assert np.allclose(keep, np.diag([1.0, 0.5, 0.5]))
        assert np.allclose(erase, np.diag([0.0, omega, omega]))
        assert np.max(np.abs(keep @ keep + erase @ erase - np.eye(3))) < 1e-15


class TestKrausSet:
    def test_ground_excited_family(self):
        ops = kraus_ground_excited(retention(1.0, 0.9), retention(0.7, 0.9))
        assert type(ops) is tuple and len(ops) == 4
        for k in ops:
            assert k.shape == (9, 9)
            assert np.max(np.abs(k - np.diag(np.diag(k)))) == 0.0
            assert np.max(np.abs(k.imag)) == 0.0

    def test_both_completeness_conventions_coincide(self):
        ops = kraus_ground_excited(retention(0.6, 1.1), retention(1.3, 1.1))
        left = sum(k.conj().T @ k for k in ops)
        right = sum(k @ k.conj().T for k in ops)
        assert np.max(np.abs(left - np.eye(9))) < 1e-12
        assert np.max(np.abs(right - np.eye(9))) < 1e-12

    def test_rejects_wrong_shape(self, rng):
        state = random_state(rng, QUTRIT_PAIR)
        with pytest.raises(BadShapeError, match=re.escape("Kraus operator shape (4, 4), expected (9, 9)")):
            apply_channel(state, (np.eye(4),))


class TestApplyChannel:
    def test_matches_damping_oracle(self, rng):
        gamma_a, gamma_b = retention(0.8, 0.6), retention(1.3, 0.6)
        ops = kraus_ground_excited(gamma_a, gamma_b)
        for _ in range(10):
            state = random_state(rng, QUTRIT_PAIR)
            expected = state.mat * ground_excited_damping(gamma_a, gamma_b)
            for out in (apply_channel(state, ops), evolve(state, GROUND_EXCITED, 0.8, 1.3, 0.6)):
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
        evolved = (evolve(state, model, 1.0, 0.7, t) for model in (GROUND_EXCITED, GENERAL))
        for out in (*evolved, infinite_limit(state)):
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
        states = DensityMatrix(np.stack([make_state(QUTRIT_PAIR, m).mat for m in raw]), QUTRIT_PAIR)
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
        out = evolve(mixed, GROUND_EXCITED, 1.0, 1.0, 2.0)
        assert np.max(np.abs(out.mat - mixed.mat)) < 1e-15

    def test_diagonal_states_are_fixed(self, rng):
        diag = make_state(QUTRIT_PAIR, np.diag(rng.dirichlet(np.ones(9))))
        out = evolve(diag, GROUND_EXCITED, 0.4, 2.0, 1.5)
        assert np.max(np.abs(out.mat - diag.mat)) < 1e-15

    def test_dims_mismatch_raises(self, rng):
        state = random_state(rng, Dims(2, 3))
        with pytest.raises(BadShapeError):
            apply_channel(state, kraus_ground_excited(retention(1.0, 1.0), retention(1.0, 1.0)))

    @pytest.mark.parametrize("keep, shown", [
        (1.5, "1.5"), (-0.1, "-0.1"), (math.nan, "nan"), (np.array([0.5, 1.0, 1.2, 0.0]), "1.2"),
        (0.5 + 3j, "(0.5+3j)"),
    ], ids=["above-one", "negative", "nan", "array-entry", "complex"])
    def test_rejects_retentions_outside_the_unit_interval(self, keep, shown):
        # Outside [0, 1] a mask can be indefinite: at 1.5 on both sides the
        # masked family state has a negative eigenvalue (about -0.119),
        # which make_state rejects and sector_dephase must not return. A
        # complex retention is refused too: >= and <= order it by its real
        # part, and the Hermitian part would drop its imaginary part.
        state = initial_state(4.5)
        for side, keeps in (("keep_a", (keep, keep)), ("keep_b", (0.5, keep))):
            with pytest.raises(DomainError, match=re.escape(f"{side} must lie in [0, 1], got {shown}")):
                sector_dephase(state, (0, 1, 1), (0, 1, 1), *keeps)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        t1=st.floats(0.0, 5.0),
        t2=st.floats(0.0, 5.0),
    )
    def test_semigroup_composition(self, seed, t1, t2):
        state = random_state(np.random.default_rng(seed), QUTRIT_PAIR)
        step = evolve(evolve(state, GROUND_EXCITED, 1.0, 0.7, t1), GROUND_EXCITED, 1.0, 0.7, t2)
        direct = evolve(state, GROUND_EXCITED, 1.0, 0.7, t1 + t2)
        assert np.max(np.abs(step.mat - direct.mat)) < 1e-10


class TestGeneralDephase:
    def test_matches_damping_oracle(self, rng):
        for dims in (QUTRIT_PAIR, Dims(4, 4), Dims(2, 3)):
            state = random_state(rng, dims)
            expected = state.mat * all_pairs_damping(dims, 0.9, 0.3, 1.2)
            assert np.max(np.abs(evolve(state, GENERAL, 0.9, 0.3, 1.2).mat - expected)) < 1e-15

    def test_preserves_diagonal(self, rng):
        state = random_state(rng, QUTRIT_PAIR)
        out = evolve(state, GENERAL, 2.0, 2.0, 3.0)
        assert np.max(np.abs(np.diag(out.mat) - np.diag(state.mat))) < 1e-15

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        t1=st.floats(0.0, 5.0),
        t2=st.floats(0.0, 5.0),
    )
    def test_semigroup_composition_exact(self, seed, t1, t2):
        state = random_state(np.random.default_rng(seed), QUTRIT_PAIR)
        step = evolve(evolve(state, GENERAL, 0.5, 1.1, t1), GENERAL, 0.5, 1.1, t2)
        direct = evolve(state, GENERAL, 0.5, 1.1, t1 + t2)
        assert np.max(np.abs(step.mat - direct.mat)) < 1e-13

    def test_preserves_positivity(self, rng):
        for _ in range(20):
            out = evolve(random_state(rng, Dims(4, 4)), GENERAL, 1.0, 0.2, 0.8)
            assert float(eigvals_hermitian(out.mat)[0]) > -1e-12


class TestInfiniteLimit:
    def test_agrees_with_long_evolution(self, rng):
        for _ in range(5):
            state = random_state(rng, QUTRIT_PAIR)
            evolved = apply_channel(state, kraus_ground_excited(retention(1.0, 50.0), retention(1.0, 50.0)))
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
