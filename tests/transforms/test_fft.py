"""Unit and property tests for the radix-2 oracle FFT (``_radix2.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fig1 import _fft_stage_count, transform_real_mults

from ._radix2 import bit_reverse_permutation, fft, ifft, stage_twiddles

SIZES = [2, 4, 8, 16, 64, 256, 1024]


class TestBitReverse:
    @pytest.mark.parametrize("n", SIZES)
    def test_is_a_permutation(self, n):
        perm = bit_reverse_permutation(n)
        assert sorted(perm.tolist()) == list(range(n))

    @pytest.mark.parametrize("n", SIZES)
    def test_is_an_involution(self, n):
        perm = bit_reverse_permutation(n)
        assert np.array_equal(perm[perm], np.arange(n))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            bit_reverse_permutation(12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bit_reverse_permutation(0)

    def test_known_order_n8(self):
        assert bit_reverse_permutation(8).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]


class TestFFTCorrectness:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_numpy_reference(self, n, rng):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("n", SIZES)
    def test_ifft_matches_numpy(self, n, rng):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(ifft(x), np.fft.ifft(x), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("n", SIZES)
    def test_roundtrip(self, n, rng):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(ifft(fft(x)), x, atol=1e-9)

    def test_batched_agrees_with_loop(self, rng):
        x = rng.normal(size=(3, 5, 64)) + 1j * rng.normal(size=(3, 5, 64))
        batched = fft(x)
        for i in range(3):
            for j in range(5):
                np.testing.assert_allclose(batched[i, j], fft(x[i, j]), atol=1e-9)

    def test_impulse_gives_flat_spectrum(self):
        x = np.zeros(16, dtype=complex)
        x[0] = 1.0
        np.testing.assert_allclose(fft(x), np.ones(16), atol=1e-12)

    def test_constant_gives_impulse(self):
        x = np.ones(16, dtype=complex)
        spec = fft(x)
        assert spec[0] == pytest.approx(16)
        np.testing.assert_allclose(spec[1:], 0, atol=1e-12)

    def test_length_one_identity(self):
        np.testing.assert_allclose(fft(np.array([3.0 + 1j])), [3.0 + 1j])

    def test_does_not_mutate_input(self, rng):
        x = rng.normal(size=32) + 0j
        saved = x.copy()
        fft(x)
        np.testing.assert_array_equal(x, saved)


class TestFFTProperties:
    @given(st.integers(min_value=1, max_value=6), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, log_n, seed):
        n = 1 << log_n
        r = np.random.default_rng(seed)
        x = r.normal(size=n) + 1j * r.normal(size=n)
        y = r.normal(size=n) + 1j * r.normal(size=n)
        a, b = r.normal(), r.normal()
        np.testing.assert_allclose(
            fft(a * x + b * y), a * fft(x) + b * fft(y), atol=1e-8
        )

    @given(st.integers(min_value=1, max_value=7), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, log_n, seed):
        n = 1 << log_n
        r = np.random.default_rng(seed)
        x = r.normal(size=n) + 1j * r.normal(size=n)
        energy_time = np.sum(np.abs(x) ** 2)
        energy_freq = np.sum(np.abs(fft(x)) ** 2) / n
        assert energy_time == pytest.approx(energy_freq, rel=1e-9)

    @given(st.integers(min_value=1, max_value=7), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_real_input_conjugate_symmetry(self, log_n, seed):
        n = 1 << log_n
        r = np.random.default_rng(seed)
        x = r.normal(size=n).astype(complex)
        spec = fft(x)
        mirrored = np.conj(np.roll(spec[::-1], 1))
        np.testing.assert_allclose(spec, mirrored, atol=1e-8)


class TestOperationCounts:
    """Fig. 1 charges a transform the multiplies these butterflies perform."""

    def test_stage_count(self):
        assert _fft_stage_count(1024) == 10
        assert len(stage_twiddles(1024)) == 10

    def test_complex_multiplies(self):
        # Each stage multiplies every odd slot, n/2 of them, by a twiddle.
        n = 512
        per_stage = [(n // (2 * tw.size)) * tw.size for tw in stage_twiddles(n)]
        assert sum(per_stage) == (n // 2) * _fft_stage_count(n) == 256 * 9

    def test_real_multiplies_are_4x_complex(self):
        # A 1024-coefficient polynomial folds into a 512-point FFT + twist.
        butterflies = sum((512 // (2 * tw.size)) * tw.size for tw in stage_twiddles(512))
        assert transform_real_mults(1024) == 4 * (butterflies + 512)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            _fft_stage_count(100)
