"""Contract tests for state construction, reshuffles and JSON I/O."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    QUTRIT_PAIR,
    pt_by_loops,
    random_product_state,
    realign_by_loops,
)
from dephaselab.linalg import NotHermitianError, NotPSDError, eigvals_hermitian, singular_values
from dephaselab.qstate import (
    BadShapeError,
    DensityMatrix,
    Dims,
    NonFiniteError,
    NormalStream,
    TraceNotOneError,
    make_state,
    partial_transpose,
    project_local,
    random_state,
    realign,
    state_from_json,
    state_to_json,
    tensor,
)


class TestDims:
    def test_flat_is_row_major(self):
        d = Dims(3, 4)
        assert [d.flat(a, b) for a in range(3) for b in range(4)] == list(range(12))
        assert QUTRIT_PAIR.flat(2, 2) == 8

    def test_total_dimension(self):
        assert Dims(3, 3).n == 9
        assert Dims(2, 5).n == 10

    def test_rejects_trivial_locals(self):
        with pytest.raises(ValueError, match=re.escape("local dimensions must be >= 2, got (1, 3)")):
            Dims(1, 3)
        with pytest.raises(ValueError, match=re.escape("got (3, 0)")):
            Dims(3, 0)

    def test_rejects_non_integer_locals(self):
        # A float dimension would otherwise pass here and fail later, inside a reshape.
        for da, db in ((3.0, 3), (2.5, 3), (3, "3"), (None, 3)):
            with pytest.raises(ValueError, match=re.escape(f"local dimensions must be integers, got ({da!r}, {db!r})")):
                Dims(da, db)
        dims = Dims(np.int64(3), np.int64(2))
        assert dims == Dims(3, 2) and all(type(d) is int for d in dims)


class TestMakeState:
    def test_accepts_valid(self, rng):
        state = random_state(rng, QUTRIT_PAIR)
        assert abs(np.trace(state.mat) - 1.0) < 1e-12

    def test_rejects_wrong_shape(self):
        for m in (np.eye(4) / 4, np.stack([np.eye(9) / 9] * 2)):
            with pytest.raises(BadShapeError):
                make_state(QUTRIT_PAIR, m)

    def test_rejects_non_hermitian(self, rng):
        m = np.array(random_state(rng, QUTRIT_PAIR).mat)
        m[0, 1] += 1e-6
        with pytest.raises(NotHermitianError):
            make_state(QUTRIT_PAIR, m)

    def test_rejects_bad_trace(self, rng):
        m = 1.01 * random_state(rng, QUTRIT_PAIR).mat
        with pytest.raises(TraceNotOneError):
            make_state(QUTRIT_PAIR, m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, -0.1, 0, 0, 0, 0, 0, 0]).astype(complex)
        with pytest.raises(NotPSDError):
            make_state(QUTRIT_PAIR, m)

    def test_rejects_non_finite(self, rng):
        base = np.array(random_state(rng, QUTRIT_PAIR).mat)
        for (i, j), value in (((0, 0), np.nan), ((0, 1), np.nan), ((4, 4), np.inf), ((2, 5), np.inf)):
            m = base.copy()
            m[i, j] = value
            with pytest.raises(NonFiniteError):
                make_state(QUTRIT_PAIR, m)

    def test_carrier_skips_physicality(self):
        half = DensityMatrix(np.eye(9, dtype=complex) / 18, QUTRIT_PAIR)
        assert abs(np.trace(half.mat) - 0.5) < 1e-15
        with pytest.raises(BadShapeError, match=re.escape("matrix shape (4, 4) does not match dims (3, 3)")):
            DensityMatrix(np.eye(4, dtype=complex), QUTRIT_PAIR)

    def test_matrix_is_write_locked(self, rng):
        state = random_state(rng, QUTRIT_PAIR)
        with pytest.raises(ValueError):
            state.mat[0, 0] = 9.0


class TestPartialTranspose:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_loop_oracle_both_sides(self, seed):
        state = random_state(np.random.default_rng(seed), QUTRIT_PAIR)
        assert np.max(np.abs(partial_transpose(state) - pt_by_loops(state, "B"))) < 1e-15

    def test_spectra_agree_across_sides(self, rng):
        for dims in (QUTRIT_PAIR, Dims(2, 4)):
            state = random_state(rng, dims)
            wa = eigvals_hermitian(pt_by_loops(state, "A"))
            wb = eigvals_hermitian(partial_transpose(state))
            assert np.max(np.abs(wa - wb)) < 1e-10

    def test_involution(self, rng):
        state = random_state(rng, QUTRIT_PAIR)
        twice = partial_transpose(DensityMatrix(partial_transpose(state), QUTRIT_PAIR))
        assert np.max(np.abs(twice - state.mat)) < 1e-15

    def test_diagonal_state_is_fixed(self):
        diag = make_state(QUTRIT_PAIR, np.diag(np.arange(1.0, 10.0)) / 45)
        assert np.max(np.abs(partial_transpose(diag) - diag.mat)) < 1e-15

    def test_preserves_trace_and_hermiticity(self, rng):
        state = random_state(rng, Dims(2, 3))
        pt = partial_transpose(state)
        assert abs(np.trace(pt) - 1.0) < 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


class TestRealign:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_loop_oracle(self, seed):
        state = random_state(np.random.default_rng(seed), QUTRIT_PAIR)
        assert np.max(np.abs(realign(state) - realign_by_loops(state))) < 1e-15

    def test_shape_on_unequal_dims(self, rng):
        assert realign(random_state(rng, Dims(2, 4))).shape == (4, 16)

    def test_product_states_stay_within_unit_trace_norm(self, rng):
        for _ in range(20):
            state = random_product_state(rng, QUTRIT_PAIR)
            assert float(np.sum(singular_values(realign(state)))) <= 1.0 + 1e-10

    def test_maximally_entangled_reaches_dimension(self):
        phi = np.zeros(9)
        phi[[0, 4, 8]] = 1.0 / np.sqrt(3.0)
        state = make_state(QUTRIT_PAIR, np.outer(phi, phi))
        assert abs(float(np.sum(singular_values(realign(state)))) - 3.0) < 1e-10


class TestProjectLocal:
    def test_keeping_everything_is_identity(self, rng):
        state = random_state(rng, QUTRIT_PAIR)
        kept = project_local(state, (0, 1, 2), (0, 1, 2))
        assert np.max(np.abs(kept.mat - state.mat)) < 1e-15

    def test_raw_block_keeps_weight(self, rng):
        state = random_state(rng, QUTRIT_PAIR)
        raw = project_local(state, (1, 2), (1, 2))
        idx = [state.dims.flat(a, b) for a in (1, 2) for b in (1, 2)]
        weight = sum(state.mat[i, i].real for i in idx)
        assert abs(np.trace(raw.mat).real - weight) < 1e-14

    def test_embedding_difference_lives_outside_block(self, rng):
        state = random_state(rng, QUTRIT_PAIR)
        keep_a, keep_b = (0, 2), (1, 2)
        raw = project_local(state, keep_a, keep_b)
        idx = [state.dims.flat(a, b) for a in keep_a for b in keep_b]
        back = np.zeros_like(state.mat)
        back[np.ix_(idx, idx)] = raw.mat
        difference = state.mat - back
        assert np.max(np.abs(difference[np.ix_(idx, idx)])) < 1e-15

    def test_rejects_bad_labels(self, rng):
        state = random_state(rng, QUTRIT_PAIR)
        with pytest.raises(ValueError):
            project_local(state, (0, 3), (0, 1))
        with pytest.raises(ValueError):
            project_local(state, (1, 1), (0, 1))
        with pytest.raises(ValueError):
            project_local(state, (), (0, 1))


class TestTensor:
    def test_row_major_placement(self):
        a = np.diag([1.0, 0.0, 0.0])
        b = np.diag([0.0, 1.0, 0.0])
        product = tensor(a, b)
        assert product[QUTRIT_PAIR.flat(0, 1), QUTRIT_PAIR.flat(0, 1)] == 1.0
        assert np.trace(product) == 1.0

    def test_matches_kron(self, rng):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        assert np.max(np.abs(tensor(a, b) - np.kron(a, b))) == 0.0


class TestRandomState:
    def test_valid_and_full_rank(self, rng):
        state = random_state(rng, QUTRIT_PAIR)
        assert float(eigvals_hermitian(state.mat)[0]) > 0

    def test_deterministic_per_seed(self):
        a = random_state(np.random.default_rng(7), QUTRIT_PAIR)
        b = random_state(np.random.default_rng(7), QUTRIT_PAIR)
        assert np.array_equal(a.mat, b.mat)


class TestNormalStream:
    def test_same_seed_same_bits_and_seeds_differ(self):
        draws = {seed: NormalStream(seed).standard_normal((2, 9, 9)) for seed in (0, 1, 7, 2**70)}
        for seed, x in draws.items():
            assert x.tobytes() == NormalStream(seed).standard_normal((2, 9, 9)).tobytes()
        assert NormalStream(np.int64(7)).standard_normal((2, 9, 9)).tobytes() == draws[7].tobytes()
        assert len({x.tobytes() for x in draws.values()}) == len(draws)

    def test_moments_of_a_million_draws(self):
        # The sample mean has standard error 1/sqrt(n), the sample
        # variance sqrt(2/n).
        x = NormalStream(0).standard_normal((10**6,))
        assert x.shape == (10**6,) and x.dtype == float
        assert np.isfinite(x).all()
        assert abs(x.mean()) < 5 / np.sqrt(x.size)
        assert abs(x.var() - 1.0) < 5 * np.sqrt(2 / x.size)

    def test_a_stack_draw_equals_its_members_draws(self):
        stream = NormalStream(11)
        alone = np.stack([stream.standard_normal((2, 9, 9)) for _ in range(64)])
        stacked = NormalStream(11).standard_normal((64, 2, 9, 9))
        assert stacked.shape == alone.shape and stacked.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("shape", [(1,), (9, 9), (3, 3, 3)])
    def test_odd_count_raises(self, shape):
        with pytest.raises(ValueError, match="even count"):
            NormalStream(0).standard_normal(shape)

    @pytest.mark.parametrize("seed", [-1, -(2**70), True, False, 1.0, 2.5, "1", None])
    def test_bad_seed_raises(self, seed):
        with pytest.raises(ValueError, match="nonnegative integer"):
            NormalStream(seed)


class TestJsonRoundTrip:
    def test_round_trip_preserves_matrix(self, rng):
        state = random_state(rng, QUTRIT_PAIR)
        again = state_from_json(state_to_json(state))
        assert again.dims == state.dims
        assert np.max(np.abs(again.mat - state.mat)) < 1e-15

    def test_schema_fields(self, rng):
        doc = json.loads(state_to_json(random_state(rng, Dims(2, 3))))
        assert doc["da"] == 2 and doc["db"] == 3
        assert len(doc["mat"]) == 36
        assert all(len(pair) == 2 for pair in doc["mat"])

    def test_stack_is_rejected(self, rng):
        # A document holds one state; its reader rejects N * n^2 pairs.
        with pytest.raises(BadShapeError, match=re.escape("expected shape (9, 9), got (2, 9, 9)")):
            state_to_json(random_state(rng, QUTRIT_PAIR, 2))

    def test_malformed_documents_raise_value_error(self):
        mixed = state_to_json(make_state(QUTRIT_PAIR, np.eye(9) / 9))
        for text in (
            "not json",
            json.dumps([1, 2, 3]),
            json.dumps({"da": 3, "db": 3}),
            json.dumps({"da": 3, "db": 3, "mat": [[1.0, 0.0]] * 4}),
            json.dumps({"da": 3, "db": 3, "mat": [["x", 0.0]] * 81}),
            # Dimensions are JSON integers: not null, a list, a float, a string or a boolean.
            *(mixed.replace('"da": 3', f'"da": {da}') for da in ("null", "[3]", "3.9", "3.0", '"3"', "true")),
            # Entries are JSON numbers: complex() would read this off-diagonal false as 0.
            mixed.replace("[0.0, 0.0]", "[false, false]", 1),
        ):
            with pytest.raises(ValueError):
                state_from_json(text)

    def test_unphysical_matrices_raise_specific_errors(self):
        pairs = [[0.0, 0.0]] * 81
        pairs[0] = [2.0, 0.0]
        with pytest.raises(TraceNotOneError):
            state_from_json(json.dumps({"da": 3, "db": 3, "mat": pairs}))
        pairs = [[0.0, 0.0]] * 81
        pairs[0] = [1.0, 0.0]
        pairs[1] = [0.5, 0.0]
        with pytest.raises(NotHermitianError):
            state_from_json(json.dumps({"da": 3, "db": 3, "mat": pairs}))
