"""Tests for the merge-split (two real FFTs in one pass) technique."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transforms import negacyclic_fft

from ._merge_split import (
    merge_spectra,
    merged_fft,
    merged_ifft,
    negacyclic_fft_pair,
    negacyclic_ifft_pair,
    split_spectra,
)
from ._radix2 import fft


class TestMergeSplit:
    @pytest.mark.parametrize("n", [4, 16, 64, 512])
    def test_split_recovers_individual_spectra(self, n, rng):
        p = rng.normal(size=n)
        r = rng.normal(size=n)
        p_spec, r_spec = split_spectra(merged_fft(p, r))
        np.testing.assert_allclose(p_spec, fft(p.astype(complex)), atol=1e-8)
        np.testing.assert_allclose(r_spec, fft(r.astype(complex)), atol=1e-8)

    def test_merge_is_inverse_of_split(self, rng):
        z = fft(rng.normal(size=32) + 1j * rng.normal(size=32))
        p_spec, r_spec = split_spectra(z)
        np.testing.assert_allclose(merge_spectra(p_spec, r_spec), z, atol=1e-9)

    def test_merged_ifft_roundtrip(self, rng):
        p = rng.normal(size=64)
        r = rng.normal(size=64)
        p_spec, r_spec = split_spectra(merged_fft(p, r))
        p_back, r_back = merged_ifft(p_spec, r_spec)
        np.testing.assert_allclose(p_back, p, atol=1e-8)
        np.testing.assert_allclose(r_back, r, atol=1e-8)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            merged_fft(np.zeros(8), np.zeros(16))

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_doubling_property(self, seed):
        """One merged pass must equal exactly two independent transforms."""
        rng = np.random.default_rng(seed)
        p = rng.integers(-1000, 1000, size=32).astype(float)
        r = rng.integers(-1000, 1000, size=32).astype(float)
        p_spec, r_spec = split_spectra(merged_fft(p, r))
        np.testing.assert_allclose(p_spec, fft(p.astype(complex)), atol=1e-7)
        np.testing.assert_allclose(r_spec, fft(r.astype(complex)), atol=1e-7)


class TestNegacyclicPair:
    def test_pair_matches_single_transforms(self, rng):
        p = rng.integers(-100, 100, size=64).astype(float)
        r = rng.integers(-100, 100, size=64).astype(float)
        p_spec, r_spec = negacyclic_fft_pair(p, r)
        np.testing.assert_allclose(p_spec, negacyclic_fft(p), atol=1e-9)
        np.testing.assert_allclose(r_spec, negacyclic_fft(r), atol=1e-9)

    def test_pair_roundtrip(self, rng):
        p = rng.integers(-100, 100, size=64).astype(float)
        r = rng.integers(-100, 100, size=64).astype(float)
        p_spec, r_spec = negacyclic_fft_pair(p, r)
        p_back, r_back = negacyclic_ifft_pair(p_spec, r_spec, 64)
        np.testing.assert_allclose(p_back, p, atol=1e-6)
        np.testing.assert_allclose(r_back, r, atol=1e-6)
