"""Tests for the signed gadget decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tfhe.decomposition import decompose, decompose_folded

from ._oracle import decomposition_error_bound, recompose


def centered_error(a, b):
    diff = (a.astype(np.int64) - b.astype(np.int64) + (1 << 31)) % (1 << 32) - (1 << 31)
    return np.abs(diff)


class TestShapes:
    def test_level_axis_inserted_before_last(self, rng):
        v = rng.integers(0, 1 << 32, size=(3, 16), dtype=np.uint64).astype(np.uint32)
        d = decompose(v, beta_bits=8, levels=3)
        assert d.shape == (3, 3, 16)

    def test_rejects_overwide_decomposition(self):
        with pytest.raises(ValueError):
            decompose(np.zeros(4, dtype=np.uint32), beta_bits=8, levels=5)
        with pytest.raises(ValueError):
            recompose(np.zeros((5, 4), dtype=np.int64), beta_bits=8)


class TestDigitRange:
    @pytest.mark.parametrize("beta_bits,levels", [(4, 3), (8, 3), (7, 4), (23, 1)])
    def test_digits_balanced(self, beta_bits, levels, rng):
        v = rng.integers(0, 1 << 32, size=1024, dtype=np.uint64).astype(np.uint32)
        d = decompose(v, beta_bits, levels)
        half = 1 << (beta_bits - 1)
        assert d.min() >= -half
        assert d.max() <= half  # top digit may carry to +beta/2


class TestRecomposition:
    @pytest.mark.parametrize("beta_bits,levels", [(4, 3), (8, 3), (8, 4), (16, 2), (23, 1)])
    def test_error_within_bound(self, beta_bits, levels, rng):
        v = rng.integers(0, 1 << 32, size=4096, dtype=np.uint64).astype(np.uint32)
        back = recompose(decompose(v, beta_bits, levels), beta_bits)
        bound = decomposition_error_bound(beta_bits, levels)
        assert centered_error(v, back).max() <= bound

    def test_exact_when_full_width(self, rng):
        v = rng.integers(0, 1 << 32, size=256, dtype=np.uint64).astype(np.uint32)
        back = recompose(decompose(v, 8, 4), 8)
        assert centered_error(v, back).max() == 0

    def test_zero_decomposes_to_zero(self):
        d = decompose(np.zeros(8, dtype=np.uint32), 8, 3)
        assert not d.any()

    @given(st.integers(0, (1 << 32) - 1),
           st.sampled_from([(4, 3), (6, 4), (8, 2), (10, 3)]))
    @settings(max_examples=200, deadline=None)
    def test_property_error_bound(self, value, config):
        beta_bits, levels = config
        v = np.array([value], dtype=np.uint32)
        back = recompose(decompose(v, beta_bits, levels), beta_bits)
        assert centered_error(v, back)[0] <= decomposition_error_bound(beta_bits, levels)


def unfold(folded):
    """Folded FFT input back to the ``(..., levels, N)`` digit layout."""
    assert not (folded.real % 1).any() and not (folded.imag % 1).any()
    return np.concatenate((folded.real, folded.imag), axis=-1).astype(np.int64)


CONFIGS = [(4, 3), (6, 4), (7, 3), (8, 4), (10, 2), (10, 3), (16, 1), (16, 2), (23, 1)]


class TestCarryFreeDecomposition:
    """``decompose_folded`` is the carry-chain ``decompose``, digit for digit."""

    @pytest.mark.parametrize("beta_bits,levels", CONFIGS)
    def test_boundary_values(self, beta_bits, levels):
        drop = 32 - beta_bits * levels
        tie = 1 << (drop - 1) if drop else 0  # the rounding tie at the dropped bits
        half_digit = 1 << (beta_bits - 1)  # where a digit balances to -beta/2
        values = {0, 1, (1 << 31) - 1, 1 << 31, (1 << 31) + 1, 0xFFFFFFFE, 0xFFFFFFFF}
        for base in (0, 1 << 31, 0xFFFFFFFF, half_digit << drop, (half_digit - 1) << drop):
            for delta in (-1, 0, 1):
                values.add((base + tie + delta) & 0xFFFFFFFF)
                values.add((base - tie + delta) & 0xFFFFFFFF)
        for j in range(levels):  # every digit exactly at +-beta/2
            values.add((half_digit << (drop + beta_bits * j)) & 0xFFFFFFFF)
        # Doubled so the length is even: the fold splits the last axis in halves.
        v = np.array(sorted(values) * 2, dtype=np.uint64).astype(np.uint32)
        assert np.array_equal(
            unfold(decompose_folded(v, beta_bits, levels)), decompose(v, beta_bits, levels)
        )

    @pytest.mark.parametrize("beta_bits,levels", CONFIGS)
    def test_random_batched(self, beta_bits, levels, rng):
        v = rng.integers(0, 1 << 32, size=(3, 2, 64), dtype=np.uint64).astype(np.uint32)
        folded = decompose_folded(v, beta_bits, levels)
        assert folded.shape == (3, 2, levels, 32) and folded.dtype == np.complex128
        assert np.array_equal(unfold(folded), decompose(v, beta_bits, levels))

    @given(st.lists(st.integers(0, (1 << 32) - 1), min_size=2, max_size=2),
           st.sampled_from(CONFIGS))
    @settings(max_examples=300, deadline=None)
    def test_property_equals_decompose(self, pair, config):
        beta_bits, levels = config
        v = np.array(pair, dtype=np.uint64).astype(np.uint32)
        assert np.array_equal(
            unfold(decompose_folded(v, beta_bits, levels)), decompose(v, beta_bits, levels)
        )

    def test_rejects_overwide_decomposition(self):
        with pytest.raises(ValueError):
            decompose_folded(np.zeros(4, dtype=np.uint32), beta_bits=8, levels=5)


class TestErrorBound:
    def test_bound_zero_for_full_width(self):
        assert decomposition_error_bound(8, 4) == 0

    def test_bound_halves_per_extra_bit(self):
        assert decomposition_error_bound(8, 3) == 2 * decomposition_error_bound(8, 3) // 2
        assert decomposition_error_bound(4, 3) == 1 << (32 - 12 - 1)
