"""A stack of states evaluates exactly as its members, one at a time.

Every stacked result is compared bit for bit (np.array_equal, plus the
sign of zeros) with the result for each member alone, at stack sizes
around the stack chunk size (cli.STACK_CHUNK).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state_by_draws
from dephaselab.channels import GROUND_EXCITED, NoiseParams, ground_excited, sector_dephase
from dephaselab.cli import STACK_CHUNK
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
from dephaselab.linalg import NotHermitianError, NotPSDError, check_hermitian, eigvals_hermitian
from dephaselab.qstate import DensityMatrix, Dims, NonFiniteError, ZeroTraceError, make_state, random_state

SIZES = (1, STACK_CHUNK - 1, STACK_CHUNK, STACK_CHUNK + 1, 2 * STACK_CHUNK + 3)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.sampled_from(SIZES)


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
    keep = np.array([NoiseParams(rate, rate, t).gamma_a for t in rng.uniform(0.0, 4.0 / rate, size)])
    return sector_dephase(initial_state(alpha), GROUND_EXCITED, GROUND_EXCITED, keep, keep)


class TestStacks:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, size=sizes, rate_a=st.floats(0.0, 3.0), rate_b=st.floats(0.0, 3.0))
    def test_sector_dephase(self, seed, size, rate_a, rate_b):
        rng = np.random.default_rng(seed)
        base = random_state(rng, Dims(3, 3))
        noises = [NoiseParams(rate_a, rate_b, t) for t in rng.uniform(0.0, 6.0, size)]
        keep_a = np.array([noise.gamma_a for noise in noises])
        keep_b = np.array([noise.gamma_b for noise in noises])
        stack = sector_dephase(base, GROUND_EXCITED, GROUND_EXCITED, keep_a, keep_b)
        assert stack.mat.shape == (size, 9, 9)
        assert_same_bits(stack.mat, [ground_excited(base, noise).mat for noise in noises])

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
        for k in range(len(blocks)):
            for field in ("min_eigenvalue", "min_pt_eigenvalue"):
                assert_same_bits(
                    [getattr(r.blocks[k], field) for r in stacked], [getattr(r.blocks[k], field) for r in alone]
                )
        assert stacked == tuple(alone)
        assert type(stacked) is tuple and all(type(r) is CertificateResult for r in stacked + tuple(alone))
        assert classify(stack, blocks) == tuple(classify(s, blocks) for s in singles)

    @pytest.mark.parametrize("size", SIZES)
    def test_one_non_hermitian_member_fails_the_stack(self, size):
        rng = np.random.default_rng(size)
        stack = random_stack(rng, Dims(3, 3), size)
        mats = np.array(stack.mat)
        bad = int(rng.integers(size))
        mats[bad, 0, 1] += 1e-6
        for check in (check_hermitian, eigvals_hermitian, lambda m: make_state(stack.dims, m)):
            with pytest.raises(NotHermitianError):
                check(mats)
        with pytest.raises(NotHermitianError):
            min_pt_eigenvalue(DensityMatrix(mats, stack.dims))
        eigvals_hermitian(np.delete(mats, bad, axis=0))
        make_state(stack.dims, np.delete(mats, bad, axis=0))

    @pytest.mark.parametrize("size", (0,) + SIZES)
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

    def test_stack_raises_the_first_failing_members_error(self):
        mats = np.array(random_stack(np.random.default_rng(3), Dims(3, 3), 6).mat)
        mats[2] = np.diag([1.2, -0.2, 0, 0, 0, 0, 0, 0, 0])  # Hermitian, unit trace, not PSD
        mats[4, 3, 3] = np.nan
        with pytest.raises(NotPSDError) as alone:
            make_state(Dims(3, 3), mats[2])
        with pytest.raises(NotPSDError) as stacked:
            make_state(Dims(3, 3), mats)
        assert str(stacked.value) == str(alone.value)
        with pytest.raises(NonFiniteError):
            make_state(Dims(3, 3), mats[3:])

    @pytest.mark.parametrize("size", SIZES)
    def test_probes_skip_exactly_the_members_a_single_probe_rejects(self, size):
        rng = np.random.default_rng(size)
        mats = np.array(random_stack(rng, Dims(3, 3), size).mat)
        # Ground-state members: side B's doublet and the doublet corner carry no weight.
        empty = rng.choice(size, size=min(size, 5), replace=False)
        mats[empty] = np.kron(np.diag([0.5, 0.5, 0.0]), np.diag([1.0, 0.0, 0.0]))
        stack = DensityMatrix(mats, Dims(3, 3))
        noise = NoiseParams(1.0, 0.6, 0.7)
        for probe in (
            two_sided_probe,
            lambda s: one_sided_probe(s, "B", noise),
            lambda s: one_sided_probe(s, "A", noise),
            lambda s: qubit_block_witness(s, (0, 2), (1, 2), 0.5),
            lambda s: qubit_block_witness(s, (1, 2), (1, 2), 1e-13),  # no member carries weight
        ):
            alone = []
            for s in members(stack):
                try:
                    alone.append(probe(s))
                except ZeroTraceError:
                    alone.append(np.nan)
            assert_same_bits(probe(stack), alone)
