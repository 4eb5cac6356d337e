"""Contract tests for the dense Hermitian linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephaselab.linalg import (
    TOL,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    Tolerances,
    check_hermitian,
    eig_hermitian,
    eigvals_hermitian,
    singular_values,
    sqrt_psd,
)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_psd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T


class TestCheckHermitian:
    def test_accepts_hermitian(self, rng):
        check_hermitian(random_hermitian(rng, 5))

    def test_rejects_asymmetric(self, rng):
        a = random_hermitian(rng, 5)
        a[0, 1] += 1e-6
        with pytest.raises(NotHermitianError):
            check_hermitian(a)

    def test_tolerance_scales_with_norm(self):
        a = 1e6 * np.eye(3, dtype=complex)
        a[0, 1] = 1e-8
        check_hermitian(a)


class TestEigHermitian:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(2, 9))
    def test_reconstruction(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, n)
        w, v = eig_hermitian(a)
        assert np.max(np.abs((v * w) @ v.conj().T - a)) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_trace_equals_eigenvalue_sum(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, 7)
        w = eigvals_hermitian(a)
        assert abs(float(np.trace(a).real) - float(np.sum(w))) < 1e-10

    def test_ascending_order_and_orthonormal_columns(self, rng):
        a = random_hermitian(rng, 9)
        w, v = eig_hermitian(a)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(v.conj().T @ v - np.eye(9))) < TOL.residual

    def test_eigvals_match_full_decomposition(self, rng):
        a = random_hermitian(rng, 6)
        assert np.allclose(eigvals_hermitian(a), eig_hermitian(a)[0], atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            eig_hermitian(np.zeros((2, 3)))
        with pytest.raises(NotSquareError):
            eig_hermitian(np.zeros(4))

    def test_rejects_non_hermitian(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(NotHermitianError):
            eig_hermitian(g)


class TestSingularValues:
    def test_descending_and_matches_gram_route(self, rng):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        s = singular_values(g)
        assert np.all(np.diff(s) <= 0)
        gram = np.sqrt(np.clip(eigvals_hermitian(g.conj().T @ g)[::-1], 0.0, None))
        assert np.max(np.abs(s - gram)) < 1e-9

    def test_rectangular_input(self, rng):
        g = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        assert singular_values(g).shape == (4,)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_trace_norm_bounds_trace(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert float(np.sum(singular_values(g))) >= abs(complex(np.trace(g))) - 1e-10

    def test_rejects_non_2d(self):
        # A 3-d array is a stack of matrices; only 1-d and 4-d inputs are malformed.
        with pytest.raises(NotSquareError):
            singular_values(np.zeros(4))
        with pytest.raises(NotSquareError):
            singular_values(np.zeros((2, 2, 2, 2)))


class TestSqrtPsd:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(2, 9))
    def test_square_recovers_input(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_psd(rng, n)
        r = sqrt_psd(a)
        assert np.max(np.abs(r @ r - a)) < TOL.sqrt_residual * max(1.0, float(np.linalg.norm(a)))

    def test_root_is_hermitian_psd(self, rng):
        r = sqrt_psd(random_psd(rng, 5))
        check_hermitian(r)
        assert float(eigvals_hermitian(r)[0]) >= -1e-12

    def test_clips_rounding_band(self):
        a = np.diag([1.0, TOL.psd_floor / 2, 0.5]).astype(complex)
        r = sqrt_psd(a)
        assert abs(r[1, 1]) == 0.0

    def test_rejects_below_floor(self):
        with pytest.raises(NotPSDError):
            sqrt_psd(np.diag([1.0, -1e-6]).astype(complex))

    def test_rank_deficient_input(self):
        v = np.array([1.0, 2.0, 2.0])
        a = np.outer(v, v).astype(complex)
        r = sqrt_psd(a)
        assert np.max(np.abs(r @ r - a)) < 1e-12


class TestTolerances:
    def test_shared_instance_defaults(self):
        assert TOL == Tolerances()
        assert TOL.psd_floor < 0 < TOL.hermitian
        assert TOL.verdict == 1e-10

    def test_frozen(self):
        with pytest.raises(Exception):
            TOL.hermitian = 1.0
