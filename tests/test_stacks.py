"""A stack of states evaluates exactly as its members, one at a time.

Every stacked result is compared bit for bit (np.array_equal, plus the
sign of zeros) with the result for each member alone, at stack sizes
around the sweep chunk size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephaselab.channels import GROUND_EXCITED, NoiseParams, ground_excited, sector_dephase
from dephaselab.cli import SWEEP_CHUNK
from dephaselab.criteria import classify, min_pt_eigenvalue, realignment_excess, separability_certificate
from dephaselab.family import certificate_blocks, initial_state
from dephaselab.linalg import NotHermitianError, check_hermitian, eigvals_hermitian
from dephaselab.qstate import DensityMatrix, Dims, random_state

SIZES = (1, SWEEP_CHUNK - 1, SWEEP_CHUNK, SWEEP_CHUNK + 1, 2 * SWEEP_CHUNK + 3)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.sampled_from(SIZES)


def members(stack: DensityMatrix) -> list[DensityMatrix]:
    return [DensityMatrix(m, stack.dims) for m in stack.mat]


def assert_same_bits(stacked, one_at_a_time) -> None:
    stacked, one_at_a_time = np.asarray(stacked), np.asarray(one_at_a_time)
    assert np.array_equal(stacked, one_at_a_time)
    assert stacked.tobytes() == one_at_a_time.tobytes()


def random_stack(rng: np.random.Generator, dims: Dims, size: int) -> DensityMatrix:
    return DensityMatrix(np.stack([random_state(rng, dims).mat for _ in range(size)]), dims)


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
        assert classify(stack) == tuple(classify(s) for s in singles)

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
        assert classify(stack, blocks) == tuple(classify(s, blocks) for s in singles)

    @pytest.mark.parametrize("size", SIZES)
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
