"""A stack of states evaluates exactly as its members, one at a time.

Every stacked result is compared bit for bit (np.array_equal, plus the
sign of zeros) with the result for each member alone, at stack sizes
around one and two stack chunks (conftest.CHUNK_SIZES). The stacked
steps of verify-lemmas' sampled loop allocate each result once, and
TestAllocations pins their peaks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHUNK_SIZES, allocation_peak, random_state_by_draws
from dephaselab import cli
from dephaselab.channels import GENERAL, GROUND_EXCITED, evolve, sector_dephase
from dephaselab.criteria import (
    CertificateResult,
    Classification,
    classify,
    min_pt_eigenvalue,
    qubit_block_witness,
    realignment_excess,
    separability_certificate,
)
from dephaselab.family import certificate_blocks, initial_state, one_sided_probe, two_sided_probe
from dephaselab.linalg import NotHermitianError, check_hermitian, eigvals_hermitian, hermitize
from dephaselab.qstate import DensityMatrix, Dims, random_state

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.sampled_from(CHUNK_SIZES)


def members(stack: DensityMatrix) -> list[DensityMatrix]:
    return [DensityMatrix(m, stack.dims) for m in stack.mat]


def assert_same_bits(stacked, one_at_a_time) -> None:
    stacked, one_at_a_time = np.asarray(stacked), np.asarray(one_at_a_time)
    assert np.array_equal(stacked, one_at_a_time, equal_nan=True)
    assert stacked.tobytes() == one_at_a_time.tobytes()


def random_stack(rng: np.random.Generator, dims: Dims, size: int) -> DensityMatrix:
    return DensityMatrix(np.stack([random_state_by_draws(rng, dims).mat for _ in range(size)]), dims)


def family_stack(rng: np.random.Generator, alpha: float, rate: float, size: int) -> DensityMatrix:
    """initial_state(alpha) dephased to `size` random times in [0, 4 / rate],
    which straddle the certificate onset."""
    return evolve(initial_state(alpha), GROUND_EXCITED, rate, rate, rng.uniform(0.0, 4.0 / rate, size))


def underflow_times(rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` values of rate * t: in [0, 4], in [800, 1400], where the
    retention product exp(-rate * t) underflows to 0, and in
    [1600, 4000], where every retention exp(-rate * t / 2) does too."""
    ranges = np.array([[0.0, 4.0], [800.0, 1400.0], [1600.0, 4000.0]])[rng.integers(3, size=size)]
    return rng.uniform(ranges[:, 0], ranges[:, 1])


def mixed_support_stack(rng: np.random.Generator, alpha: float, rate: float, size: int) -> DensityMatrix:
    """family_stack whose members differ in support, as sweeps at large
    rates make them: beside times in [0, 4 / rate], some points have
    rate * t in [800, 1400], where the retention product
    exp(-rate * t) underflows to 0 and the (|01>, |10>) coherence
    vanishes, and some have rate * t >= 1600, where every retention
    exp(-rate * t / 2) underflows to 0 and the state is diagonal."""
    return evolve(initial_state(alpha), GROUND_EXCITED, rate, rate, underflow_times(rng, size) / rate)


class TestStacks:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=seeds, size=sizes, model=st.sampled_from([GROUND_EXCITED, GENERAL]),
        stacked=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()).filter(any),
    )
    def test_sector_dephase(self, seed, size, model, stacked):
        # evolve, which dephases through sector_dephase, under either
        # model. The state, rate_a, rate_b and t are each a stack of
        # per-member values or the first member's alone (at least one a
        # stack), and rate * t runs from 0 to past every retention's
        # underflow, as in mixed_support_stack.
        rng = np.random.default_rng(seed)
        states = random_stack(rng, Dims(3, 3), size)
        rate_a, rate_b = rng.uniform(0.5, 1.5, (2, size))
        t = underflow_times(rng, size)
        wholes, columns = (states, rate_a, rate_b, t), (members(states), rate_a, rate_b, t)
        args = [whole if stack else column[0] for whole, column, stack in zip(wholes, columns, stacked)]
        out = evolve(args[0], model, *args[1:])
        assert out.mat.shape == (size, 9, 9)
        singles = []
        for i in range(size):
            state, a, b, u = (column[i] if stack else column[0] for column, stack in zip(columns, stacked))
            singles.append(evolve(state, model, a, b, u).mat)
        assert_same_bits(out.mat, singles)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, size=sizes, dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
    def test_witnesses(self, seed, size, dims):
        stack = random_stack(np.random.default_rng(seed), Dims(*dims), size)
        singles = members(stack)
        assert_same_bits(min_pt_eigenvalue(stack), [min_pt_eigenvalue(s) for s in singles])
        assert_same_bits(realignment_excess(stack), [realignment_excess(s) for s in singles])
        assert_same_bits(
            qubit_block_witness(stack, (1, 0), (0, 1)), [qubit_block_witness(s, (1, 0), (0, 1)) for s in singles]
        )
        assert classify(stack) == tuple(classify(s) for s in singles)
        # A record is itself a tuple: a stack gives a plain tuple of records.
        assert type(classify(stack)) is tuple and isinstance(classify(singles[0]), Classification)

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, size=sizes, alpha=st.floats(4.05, 4.95), rate=st.floats(0.3, 2.0))
    def test_certificate(self, seed, size, alpha, rate):
        stack = family_stack(np.random.default_rng(seed), alpha, rate, size)
        singles = members(stack)
        blocks = certificate_blocks()
        stacked = separability_certificate(stack, blocks)
        alone = [separability_certificate(s, blocks) for s in singles]
        assert [r.passed for r in stacked] == [r.passed for r in alone]
        assert all(type(r.passed) is bool for r in stacked)
        assert_same_bits([r.block_minima for r in stacked], [r.block_minima for r in alone])
        assert stacked == tuple(alone)
        assert type(stacked) is tuple and all(type(r) is CertificateResult for r in stacked + tuple(alone))
        assert classify(stack, blocks) == tuple(classify(s, blocks) for s in singles)

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, size=sizes, alpha=st.floats(4.05, 4.95), rate=st.floats(0.3, 2.0))
    def test_mixed_supports(self, seed, size, alpha, rate):
        stack = mixed_support_stack(np.random.default_rng(seed), alpha, rate, size)
        singles = members(stack)
        blocks = certificate_blocks()
        assert_same_bits(min_pt_eigenvalue(stack), [min_pt_eigenvalue(s) for s in singles])
        assert_same_bits(realignment_excess(stack), [realignment_excess(s) for s in singles])
        stacked = separability_certificate(stack, blocks)
        alone = [separability_certificate(s, blocks) for s in singles]
        assert_same_bits([r.block_minima for r in stacked], [r.block_minima for r in alone])
        assert stacked == tuple(alone)
        assert classify(stack, blocks) == tuple(classify(s, blocks) for s in singles)

    def test_exactly_npt_member_beside_a_passing_one(self):
        # At alpha = 5, t = 745 every block minimum reads 0.0, yet two
        # block PTs are exactly NPT; at alpha = 4.5, t = 2 all blocks pass.
        singles = [evolve(initial_state(alpha), GROUND_EXCITED, 1.0, 1.0, t)
                   for alpha, t in ((5.0, 745.0), (4.5, 2.0), (5.0, 745.0))]
        stack = DensityMatrix(np.stack([s.mat for s in singles]), singles[0].dims)
        blocks = certificate_blocks()
        stacked = separability_certificate(stack, blocks)
        alone = [separability_certificate(s, blocks) for s in singles]
        assert [r.passed for r in stacked] == [False, True, False]
        assert_same_bits([r.block_minima for r in stacked], [r.block_minima for r in alone])
        assert stacked == tuple(alone)

    @pytest.mark.parametrize("size", CHUNK_SIZES)
    def test_one_non_hermitian_member_fails_the_stack(self, size):
        rng = np.random.default_rng(size)
        stack = random_stack(rng, Dims(3, 3), size)
        mats = np.array(stack.mat)
        bad = int(rng.integers(size))
        mats[bad, 0, 1] += 1e-6
        for check in (check_hermitian, eigvals_hermitian):
            with pytest.raises(NotHermitianError):
                check(mats)
        with pytest.raises(NotHermitianError):
            min_pt_eigenvalue(DensityMatrix(mats, stack.dims))
        eigvals_hermitian(np.delete(mats, bad, axis=0))

    @pytest.mark.parametrize("size", (0,) + CHUNK_SIZES)
    @pytest.mark.parametrize("dims", [(3, 3), (2, 3)])
    def test_random_state_draws_a_stack_as_single_draws(self, size, dims):
        dims = Dims(*dims)
        stacked, single = np.random.default_rng(size), np.random.default_rng(size)
        stack = random_state(stacked, dims, size)
        alone = [random_state_by_draws(single, dims).mat for _ in range(size)]
        assert_same_bits(stack.mat, np.reshape(alone, (size, dims.n, dims.n)))
        assert stacked.bit_generator.state == single.bit_generator.state
        one = random_state(np.random.default_rng(size), dims)
        assert_same_bits(one.mat, random_state_by_draws(np.random.default_rng(size), dims).mat)

    @pytest.mark.parametrize("size", CHUNK_SIZES)
    def test_probes_skip_exactly_the_members_a_single_probe_rejects(self, size):
        rng = np.random.default_rng(size)
        mats = np.array(random_stack(rng, Dims(3, 3), size).mat)
        # Ground-state members: side B's doublet and the doublet corner carry no weight.
        empty = rng.choice(size, size=min(size, 5), replace=False)
        mats[empty] = np.kron(np.diag([0.5, 0.5, 0.0]), np.diag([1.0, 0.0, 0.0]))
        stack = DensityMatrix(mats, Dims(3, 3))
        # Every member a ground-state one: no member carries weight.
        dead = DensityMatrix(np.repeat(mats[empty[:1]], size, axis=0), Dims(3, 3))
        for probe in (
            two_sided_probe,
            lambda s: one_sided_probe(s, "B"),
            lambda s: one_sided_probe(evolve(s, GROUND_EXCITED, 1.0, 0.6, 0.7), "B"),
            lambda s: one_sided_probe(evolve(s, GROUND_EXCITED, 1.0, 0.6, 0.7), "A"),
            lambda s: qubit_block_witness(s, (0, 2), (1, 2)),
        ):
            for probed in (stack, dead):
                assert_same_bits(probe(probed), [probe(s) for s in members(probed)])
        assert np.isnan(two_sided_probe(dead)).all() and np.isnan(one_sided_probe(dead, "B")).all()


class TestAllocations:
    """Peaks in multiples of the result's size: every step builds its
    result in place and drops each buffer once it is used, so a later
    change cannot quietly bring a copy back."""

    STACK = cli.STACK_CHUNK * 81 * 16  # bytes of one (STACK_CHUNK, 9, 9) complex stack
    SLACK = 4096  # bytes of array headers and numpy scalars

    def test_hermitize_allocates_its_result_and_a_half_size_sign_pass(self, rng):
        a = random_state(rng, Dims(3, 3), cli.STACK_CHUNK).mat
        assert allocation_peak(hermitize, a) <= 1.5 * self.STACK + self.SLACK

    def test_sector_dephase_allocates_its_result_and_one_masked_copy(self, rng):
        # The masked copy is hermitized, which adds its half-size sign pass.
        state = random_state(rng, Dims(3, 3), cli.STACK_CHUNK)
        keep = rng.uniform(0.0, 1.0, cli.STACK_CHUNK)
        peak = allocation_peak(sector_dephase, state, (0, 1, 1), (0, 1, 1), keep, keep)
        assert peak <= 2.5 * self.STACK + self.SLACK

    def test_random_state_allocates_its_result_and_the_gram_factors(self):
        # The Gram product needs the complex factor and its conjugate
        # at once; the normal draws are freed once the factor is filled.
        peak = allocation_peak(lambda: random_state(np.random.default_rng(3), Dims(3, 3), cli.STACK_CHUNK))
        assert peak <= 3 * self.STACK + self.SLACK

    def test_one_sampled_chunk_peaks_below_four_and_a_half_stacks(self):
        # At most the samples, one derived stack and the step building
        # the next are alive at once.
        assert allocation_peak(lambda: next(cli._sample_witnesses(5, cli.STACK_CHUNK))) < 4.5 * self.STACK
