"""Contract tests for the dense Hermitian linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephaselab import linalg
from dephaselab.channels import infinite_limit, sector_dephase
from dephaselab.family import initial_state
from dephaselab.linalg import (
    TOL,
    DomainError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    Tolerances,
    check_hermitian,
    check_nonneg,
    eig_hermitian,
    eigvals_hermitian,
    hermitize,
    singular_values,
    trace,
)
from dephaselab.qstate import Dims, partial_transpose, random_state, realign
from conftest import hermitize_by_passes, sqrt_psd


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 0)])
    @pytest.mark.parametrize("where", [[(0, 0)], [(0, 1)], [(1, 0)], [(2, 2)], [(0, 1), (1, 0)]])
    def test_rejects_non_finite_entries(self, value, where):
        a = np.eye(3, dtype=complex) / 3
        for i, j in where:
            a[i, j] = value
        with pytest.raises(NotHermitianError):
            check_hermitian(a)

    def test_rejects_overflowing_norm(self):
        # tol * inf would admit any deviation, an infinite one included.
        a = 1e200 * np.eye(2, dtype=complex)
        a[0, 1] = 1.0
        with pytest.raises(NotHermitianError):
            check_hermitian(a)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_stack_quotes_the_first_failing_member(self, rng, value):
        stack = np.array([random_hermitian(rng, 4) for _ in range(5)])
        stack[3, 1, 2] = value
        stack[4, 0, 1] += 1e-6  # fails too, but after member 3
        with pytest.raises(NotHermitianError, match=f"deviation {value:.3e} "):
            check_hermitian(stack)
        check_hermitian(stack[:3])


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


def dense_singular_values(a):
    return np.linalg.svd(a, compute_uv=False)


def splits(a, hermitian: bool) -> bool:
    """Whether every member of a is solved block by block, not densely."""
    stack = np.reshape(a, (-1,) + np.shape(a)[-2:])
    return all(linalg._split(m.shape, (m != 0).tobytes(), hermitian) is not None for m in stack)


def permuted_block_hermitian(rng, sizes):
    """A random Hermitian matrix of unit Frobenius norm, block diagonal
    with the given block sizes under a random symmetric permutation."""
    n = sum(sizes)
    m = np.zeros((n, n), dtype=complex)
    start = 0
    for k in sizes:
        m[start:start + k, start:start + k] = random_hermitian(rng, k)
        start += k
    p = rng.permutation(n)
    return m[np.ix_(p, p)] / np.linalg.norm(m)


class TestBlockSplit:
    """Spectra taken block by block match one dense LAPACK call."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), size=st.integers(1, 9))
    def test_permuted_block_diagonal_hermitian_stacks(self, seed, size):
        rng = np.random.default_rng(seed)
        layouts = [(1, 2, 3, 3), (3, 3, 3), (2, 2, 2, 1, 1, 1), (1,) * 9, (3, 2, 2, 1, 1)]
        stack = np.array([permuted_block_hermitian(rng, layouts[rng.integers(len(layouts))]) for _ in range(size)])
        assert splits(stack, hermitian=True)
        assert np.max(np.abs(eigvals_hermitian(stack) - np.linalg.eigvalsh(stack))) <= 1e-14
        assert np.max(np.abs(singular_values(stack) - dense_singular_values(stack))) <= 1e-14

    @pytest.mark.parametrize(
        "a, hermitian, split",
        [
            # The limit keeps a 5x5 core of the realigned matrix, with four zero rows and columns.
            (realign(infinite_limit(random_state(np.random.default_rng(5), Dims(3, 3), 7))), False, True),
            (realign(random_state(np.random.default_rng(6), Dims(2, 3))), False, False),
            (realign(sector_dephase(random_state(np.random.default_rng(6), Dims(2, 3)), (0, 1), (0, 1, 1), 0, 0)),
             False, True),
            (realign(initial_state(4.5)), False, True),
            (partial_transpose(initial_state(4.5)), True, True),
            (np.zeros((9, 9)), True, True),
        ],
        ids=["limit-core", "rectangular", "rectangular-limit", "family-realigned", "family-pt", "zero"],
    )
    def test_split_matches_dense(self, a, hermitian, split):
        assert splits(a, hermitian) == split
        assert np.max(np.abs(singular_values(a) - dense_singular_values(a))) <= 1e-14
        if hermitian:
            assert np.max(np.abs(eigvals_hermitian(a) - np.linalg.eigvalsh(a))) <= 1e-14

    def test_empty_rows_and_columns_add_zero_singular_values(self):
        a = realign(infinite_limit(random_state(np.random.default_rng(5), Dims(3, 3))))
        assert np.count_nonzero(a.any(axis=0)) == np.count_nonzero(a.any(axis=1)) == 5
        assert np.all(singular_values(a)[5:] == 0.0)

    def test_zero_matrix_and_empty_stack(self):
        assert np.array_equal(eigvals_hermitian(np.zeros((9, 9))), np.zeros(9))
        assert np.array_equal(singular_values(np.zeros((9, 9))), np.zeros(9))
        empty = np.zeros((0, 9, 9))
        assert eigvals_hermitian(empty).shape == singular_values(empty).shape == (0, 9)

    def test_nan_in_a_splittable_matrix_is_not_hermitian(self):
        a = np.array(partial_transpose(initial_state(4.5)))
        a[0, 4] = a[4, 0] = np.nan
        with pytest.raises(NotHermitianError):
            eigvals_hermitian(a)


class TestSqrtPsd:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(2, 9))
    def test_square_recovers_input(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_psd(rng, n)
        r = sqrt_psd(a)
        assert np.max(np.abs(r @ r - a)) < TOL.residual * max(1.0, float(np.linalg.norm(a)))

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


def same_bits(a, b) -> np.ndarray:
    """Per matrix of two stacks: every entry identical, zero signs included."""
    return (a.view(np.uint64) == b.view(np.uint64)).reshape(len(a), -1).all(axis=1)


class TestHermitize:
    # The off-diagonal pair of a 2x2 matrix takes every combination of
    # these real and imaginary parts: signed zeros, subnormals, normals.
    PARTS = (0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323, 1e-310, -1e-310, 0.3, -0.3)

    def exhaustive_pairs(self) -> np.ndarray:
        parts = np.array(np.meshgrid(*[self.PARTS] * 4, indexing="ij")).reshape(4, -1)
        m = np.zeros((parts.shape[1], 2, 2), dtype=complex)
        m[:, 0, 0] = m[:, 1, 1] = 0.5
        m.real[:, 0, 1], m.imag[:, 0, 1], m.real[:, 1, 0], m.imag[:, 1, 0] = parts
        return m

    def test_fixed_point_on_every_signed_zero_and_subnormal_pair(self):
        m = self.exhaustive_pairs()
        once = hermitize(m)
        assert same_bits(hermitize(once), once).all()
        # ... and a fixed point of the complex pass make_state used to make.
        assert same_bits(hermitize_by_passes(once), once).all()
        # That pass alone is not idempotent on this set.
        one_pass = hermitize_by_passes(m)
        settled = same_bits(hermitize_by_passes(one_pass), one_pass)
        assert 0 < np.count_nonzero(~settled) < len(m)
        # Where it is, hermitize returns its bits.
        assert same_bits(once, one_pass)[settled].all()

    def test_keeps_the_bits_of_the_added_form(self, rng):
        # hermitize adds a to a† built in place: the sums of
        # np.add(a, a.conj().swapaxes(-1, -2)), so the same bits.
        def by_add(a):
            out = np.add(a, a.conj().swapaxes(-1, -2), out=np.empty(a.shape, dtype=complex))
            parts = out.view(np.float64).reshape(out.shape + (2,))
            parts *= 0.5
            parts -= parts[..., :1] * 0.0
            return out

        wild = np.empty((64, 9, 9), dtype=complex)
        wild.real, wild.imag = rng.choice(self.PARTS, size=(2,) + wild.shape)
        for a in (self.exhaustive_pairs(), wild, wild[0]):
            h = hermitize(a)
            assert h.tobytes() == by_add(a).tobytes()
            assert h.flags.owndata and not h.flags.writeable

    def test_hermitian_part_of_a_stack(self, rng):
        a = rng.standard_normal((7, 5, 5)) + 1j * rng.standard_normal((7, 5, 5))
        h = hermitize(a)
        assert np.array_equal(h, h.conj().swapaxes(-1, -2))
        assert np.max(np.abs(h - (a + a.conj().swapaxes(-1, -2)) / 2)) == 0.0
        assert same_bits(h, np.array([hermitize(x) for x in a])).all()


class TestTrace:
    def test_stack_members_sum_as_alone(self, rng):
        a = rng.standard_normal((200, 4, 4)) + 1j * rng.standard_normal((200, 4, 4))
        assert trace(a).tobytes() == np.array([np.trace(x) for x in a]).tobytes()
        assert trace(a[0]).tobytes() == np.trace(a[0]).tobytes()


class TestCheckNonneg:
    def test_returns_the_value_as_a_float(self):
        assert [(v, type(v)) for v in (check_nonneg("t", 0), check_nonneg("rate", np.float64(2.5), True))] == [
            (0.0, float), (2.5, float),
        ]

    @pytest.mark.parametrize("value, positive, message", [
        (-1, False, "t must be finite and nonnegative, got -1.0"),
        (np.nan, False, "t must be finite and nonnegative, got nan"),
        (np.inf, True, "t must be finite and positive, got inf"),
        (0.0, True, "t must be finite and positive, got 0.0"),
    ])
    def test_refuses_with_a_domain_error(self, value, positive, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            check_nonneg("t", value, positive)

    def test_a_string_is_not_a_number(self):
        with pytest.raises(TypeError):
            check_nonneg("t", "1.0")


class TestTolerances:
    def test_shared_instance_defaults(self):
        assert TOL == Tolerances()
        assert TOL.psd_floor < 0 < TOL.hermitian
        assert TOL.verdict == 1e-10

    def test_moved_literals_keep_their_values(self):
        assert (TOL.bisection, TOL.crossing_horizon) == (1e-9, 1e6)
        assert (TOL.mc_pattern, TOL.coherence_floor) == (1e-12, 1e-14)

    def test_frozen(self):
        with pytest.raises(Exception):
            TOL.hermitian = 1.0
