"""Tests for the negacyclic (twisted half-size) transform and convolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transforms import (
    negacyclic_fft,
    transform_length,
)

from ..tfhe._oracle import negacyclic_convolve_exact, negacyclic_convolve_fft, negacyclic_ifft


def naive_negacyclic(a, b):
    """O(N^2) reference: multiply in Z[X]/(X^N + 1)."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            idx = i + j
            if idx < n:
                out[idx] += int(a[i]) * int(b[j])
            else:
                out[idx - n] -= int(a[i]) * int(b[j])
    return np.array(out)


class TestTransformLength:
    def test_halves_the_size(self):
        assert transform_length(1024) == 512

    @pytest.mark.parametrize("bad", [0, 1, 3, 12, 100])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            transform_length(bad)


class TestNegacyclicTransform:
    @pytest.mark.parametrize("n", [4, 16, 64, 256, 1024])
    def test_roundtrip(self, n, rng):
        p = rng.integers(-1000, 1000, size=n).astype(float)
        back = negacyclic_ifft(negacyclic_fft(p), n)
        np.testing.assert_allclose(back, p, atol=1e-6)

    def test_spectrum_length_is_half(self):
        p = np.zeros(64)
        assert negacyclic_fft(p).shape == (32,)

    def test_batched_matches_loop(self, rng):
        p = rng.integers(-50, 50, size=(4, 32)).astype(float)
        batched = negacyclic_fft(p)
        for i in range(4):
            np.testing.assert_allclose(batched[i], negacyclic_fft(p[i]), atol=1e-9)

    def test_ifft_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            negacyclic_ifft(np.zeros(16, dtype=complex), 64)

    def test_monomial_evaluation(self):
        # X^1 evaluates to the odd 2N-th roots of unity.
        n = 16
        p = np.zeros(n)
        p[1] = 1.0
        spec = negacyclic_fft(p)
        # The twisted transform evaluates at w^(2*bitrev-ordered odd powers);
        # magnitudes must all be exactly 1.
        np.testing.assert_allclose(np.abs(spec), 1.0, atol=1e-9)


class TestConvolution:
    @pytest.mark.parametrize("n", [4, 8, 32, 128])
    def test_fft_matches_naive(self, n, rng):
        a = rng.integers(-64, 64, size=n)
        b = rng.integers(-(2**20), 2**20, size=n)
        expected = naive_negacyclic(a, b)
        got = np.round(negacyclic_convolve_fft(a, b)).astype(np.int64)
        np.testing.assert_array_equal(got, expected)

    def test_exact_matches_naive(self, rng):
        n = 32
        a = rng.integers(-64, 64, size=n)
        b = rng.integers(-(2**30), 2**30, size=n)
        got = np.array(negacyclic_convolve_exact(a, b), dtype=np.int64)
        np.testing.assert_array_equal(got, naive_negacyclic(a, b))

    def test_x_to_n_is_minus_one(self):
        # (X^(N/2))^2 = X^N = -1.
        n = 16
        a = np.zeros(n)
        a[n // 2] = 1
        got = np.round(negacyclic_convolve_fft(a, a)).astype(int)
        expected = np.zeros(n, dtype=int)
        expected[0] = -1
        np.testing.assert_array_equal(got, expected)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            negacyclic_convolve_fft(np.zeros(8), np.zeros(16))
        with pytest.raises(ValueError):
            negacyclic_convolve_exact(np.zeros(8), np.zeros(16))

    @given(st.integers(0, 2**31), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_fft_equals_exact_engine(self, seed, log_n):
        n = 1 << log_n
        r = np.random.default_rng(seed)
        a = r.integers(-128, 128, size=n)
        b = r.integers(-(2**31), 2**31, size=n)
        exact = np.array(negacyclic_convolve_exact(a, b), dtype=np.int64)
        via_fft = np.round(negacyclic_convolve_fft(a, b)).astype(np.int64)
        np.testing.assert_array_equal(via_fft, exact)

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_commutativity(self, seed):
        r = np.random.default_rng(seed)
        a = r.integers(-100, 100, size=32)
        b = r.integers(-100, 100, size=32)
        np.testing.assert_allclose(
            negacyclic_convolve_fft(a, b), negacyclic_convolve_fft(b, a), atol=1e-5
        )

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_distributivity(self, seed):
        r = np.random.default_rng(seed)
        a = r.integers(-100, 100, size=16)
        b = r.integers(-100, 100, size=16)
        c = r.integers(-100, 100, size=16)
        lhs = negacyclic_convolve_fft(a, b + c)
        rhs = negacyclic_convolve_fft(a, b) + negacyclic_convolve_fft(a, c)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)
