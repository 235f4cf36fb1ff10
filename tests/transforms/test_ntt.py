"""Tests for the exact NTT engine over the Goldilocks prime."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ..tfhe._oracle import negacyclic_convolve_exact, poly_mul
from ._ntt import (
    GOLDILOCKS_PRIME,
    intt,
    negacyclic_ntt_multiply,
    ntt,
    primitive_root_of_unity,
)


class TestRoots:
    @pytest.mark.parametrize("order", [2, 4, 256, 4096, 1 << 20])
    def test_root_has_exact_order(self, order):
        w = primitive_root_of_unity(order)
        assert pow(w, order, GOLDILOCKS_PRIME) == 1
        assert pow(w, order // 2, GOLDILOCKS_PRIME) == GOLDILOCKS_PRIME - 1

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            primitive_root_of_unity(12)

    def test_prime_structure(self):
        # P - 1 must be divisible by 2^32 (that is what makes it NTT-friendly).
        assert (GOLDILOCKS_PRIME - 1) % (1 << 32) == 0


class TestNttRoundtrip:
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
    def test_intt_inverts_ntt(self, n, rng):
        values = [int(v) for v in rng.integers(0, GOLDILOCKS_PRIME, size=n, dtype=np.uint64)]
        assert intt(ntt(values)) == [v % GOLDILOCKS_PRIME for v in values]

    def test_ntt_of_impulse_is_constant(self):
        values = [1] + [0] * 15
        assert ntt(values) == [1] * 16

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            ntt([1, 2, 3])

    def test_linearity(self, rng):
        n = 32
        a = [int(v) for v in rng.integers(0, 1 << 40, size=n)]
        b = [int(v) for v in rng.integers(0, 1 << 40, size=n)]
        lhs = ntt([(x + y) % GOLDILOCKS_PRIME for x, y in zip(a, b)])
        rhs = [(x + y) % GOLDILOCKS_PRIME for x, y in zip(ntt(a), ntt(b))]
        assert lhs == rhs


class TestNegacyclicNtt:
    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_matches_exact_integer_convolution(self, n, rng):
        a = rng.integers(-128, 128, size=n)
        b = rng.integers(-(2**31), 2**31, size=n)
        expected = np.array(negacyclic_convolve_exact(a, b), dtype=np.int64)
        np.testing.assert_array_equal(negacyclic_ntt_multiply(a, b), expected)

    def test_x_times_x_n_minus_1(self):
        n = 8
        a = np.zeros(n, dtype=np.int64)
        b = np.zeros(n, dtype=np.int64)
        a[1] = 1
        b[n - 1] = 1
        out = negacyclic_ntt_multiply(a, b)  # X * X^(n-1) = X^n = -1
        expected = np.zeros(n, dtype=np.int64)
        expected[0] = -1
        np.testing.assert_array_equal(out, expected)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            negacyclic_ntt_multiply(np.zeros(8), np.zeros(16))

    @given(st.integers(0, 2**31), st.sampled_from([8, 32]))
    @settings(max_examples=20, deadline=None)
    def test_property_agrees_with_exact(self, seed, n):
        r = np.random.default_rng(seed)
        a = r.integers(-64, 64, size=n)
        b = r.integers(-(2**31), 2**31, size=n)
        expected = np.array(negacyclic_convolve_exact(a, b), dtype=np.int64)
        np.testing.assert_array_equal(negacyclic_ntt_multiply(a, b), expected)


class TestNttEngineInPolyMul:
    def test_all_three_engines_agree(self, rng):
        n = 64
        small = rng.integers(-64, 64, size=n)
        big = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
        fft = poly_mul(small, big, engine="fft")
        exact = poly_mul(small, big, engine="exact")
        ntt_out = poly_mul(small, big, engine="ntt")
        np.testing.assert_array_equal(ntt_out, exact)
        np.testing.assert_array_equal(fft, exact)

    def test_batched_ntt_engine(self, rng):
        small = rng.integers(-16, 16, size=(3, 32))
        big = rng.integers(0, 1 << 32, size=(3, 32), dtype=np.uint64).astype(np.uint32)
        out = poly_mul(small, big, engine="ntt")
        for i in range(3):
            np.testing.assert_array_equal(
                out[i], poly_mul(small[i], big[i], engine="exact")
            )
