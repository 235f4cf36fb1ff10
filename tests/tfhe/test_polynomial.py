"""Tests for negacyclic torus-polynomial operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tfhe.polynomial import from_spectrum, monomial_rotate_batch
from repro.tfhe.torus import to_torus

from ._oracle import (
    monomial_mul,
    negacyclic_ifft,
    poly_add,
    poly_mul,
    poly_mul_spectrum,
    poly_neg,
    poly_sub,
    to_spectrum,
    zeros,
)

N = 64


def random_torus_poly(rng, n=N):
    return rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)


class TestLinearOps:
    def test_add_sub_roundtrip(self, rng):
        a, b = random_torus_poly(rng), random_torus_poly(rng)
        np.testing.assert_array_equal(poly_sub(poly_add(a, b), b), a)

    def test_neg_twice_is_identity(self, rng):
        a = random_torus_poly(rng)
        np.testing.assert_array_equal(poly_neg(poly_neg(a)), a)

    def test_zeros_shape_and_dtype(self):
        z = zeros((3, N))
        assert z.shape == (3, N)
        assert z.dtype == np.uint32
        assert not z.any()


class TestMonomialMul:
    def test_shift_by_zero_is_copy(self, rng):
        a = random_torus_poly(rng)
        out = monomial_mul(a, 0)
        np.testing.assert_array_equal(out, a)
        assert out is not a

    def test_shift_by_one_moves_and_flips(self):
        a = np.zeros(4, dtype=np.uint32)
        a[3] = 7  # 7*X^3
        out = monomial_mul(a, 1)  # X * 7X^3 = 7X^4 = -7
        assert out[0] == to_torus(-7)[()]
        assert not out[1:].any()

    def test_shift_by_n_negates(self, rng):
        a = random_torus_poly(rng)
        np.testing.assert_array_equal(monomial_mul(a, N), poly_neg(a))

    def test_period_is_2n(self, rng):
        a = random_torus_poly(rng)
        np.testing.assert_array_equal(monomial_mul(a, 2 * N), a)

    def test_negative_shift(self, rng):
        a = random_torus_poly(rng)
        np.testing.assert_array_equal(monomial_mul(a, -3), monomial_mul(a, 2 * N - 3))

    @given(st.integers(-300, 300), st.integers(-300, 300), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_composition(self, s, t, seed):
        r = np.random.default_rng(seed)
        a = random_torus_poly(r, 16)
        lhs = monomial_mul(monomial_mul(a, s), t)
        rhs = monomial_mul(a, s + t)
        np.testing.assert_array_equal(lhs, rhs)

    def test_batched(self, rng):
        a = rng.integers(0, 1 << 32, size=(3, N), dtype=np.uint64).astype(np.uint32)
        out = monomial_mul(a, 5)
        for i in range(3):
            np.testing.assert_array_equal(out[i], monomial_mul(a[i], 5))


class TestMonomialRotateBatch:
    """The batched rotator is ``monomial_mul`` row by row."""

    def test_every_exponent(self, rng):
        p = random_torus_poly(rng)
        t = np.arange(-2 * N, 4 * N + 1)  # covers 0, N, 2N and negative / wrapped exponents
        got = monomial_rotate_batch(np.broadcast_to(p, (t.size, N)), t)
        for row, shift in zip(got, t):
            np.testing.assert_array_equal(row, monomial_mul(p, int(shift)))

    def test_exponent_shared_across_components(self, rng):
        """The blind-rotation call shape: ``(B, k+1, N)`` data, ``(B, 1)`` exponents."""
        p = np.stack([[random_torus_poly(rng) for _ in range(3)] for _ in range(4)])
        t = np.array([[0], [N], [5], [2 * N - 1]])
        got = monomial_rotate_batch(p, t)
        assert got.shape == p.shape and got.dtype == np.uint32
        for b in range(4):
            np.testing.assert_array_equal(got[b], monomial_mul(p[b], int(t[b, 0])))

    @pytest.mark.parametrize("t_shape", [(), (1,), (4, 1), (1, 3), (3,), (4, 3)])
    def test_exponents_broadcast_over_any_row_axes(self, t_shape, rng):
        """Rows sharing an exponent (trailing length-1 axes of ``t``) are
        copied together; every other broadcast goes row by row."""
        p = np.stack([[random_torus_poly(rng) for _ in range(3)] for _ in range(4)])
        t = rng.integers(-2 * N, 4 * N, size=t_shape)
        got = monomial_rotate_batch(p, t)
        full = np.broadcast_to(t, (4, 3))
        for b in range(4):
            for c in range(3):
                np.testing.assert_array_equal(got[b, c], monomial_mul(p[b, c], int(full[b, c])))

    def test_scalar_exponent_and_single_row(self, rng):
        p = random_torus_poly(rng)
        np.testing.assert_array_equal(monomial_rotate_batch(p, 7), monomial_mul(p, 7))

    def test_does_not_alias_input(self, rng):
        p = random_torus_poly(rng)[None, :]
        saved = p.copy()
        out = monomial_rotate_batch(p, np.array([0]))
        out += 1
        np.testing.assert_array_equal(p, saved)

    def test_rejects_unbroadcastable_exponents(self, rng):
        with pytest.raises(ValueError):
            monomial_rotate_batch(np.zeros((3, N), dtype=np.uint32), np.arange(2))


class TestPolyMul:
    def test_engines_agree(self, rng):
        small = rng.integers(-64, 64, size=N)
        big = random_torus_poly(rng)
        np.testing.assert_array_equal(
            poly_mul(small, big, engine="fft"), poly_mul(small, big, engine="exact")
        )

    def test_multiply_by_one(self, rng):
        one = np.zeros(N, dtype=np.int64)
        one[0] = 1
        a = random_torus_poly(rng)
        np.testing.assert_array_equal(poly_mul(one, a), a)

    def test_multiply_by_monomial_matches_rotation(self, rng):
        mono = np.zeros(N, dtype=np.int64)
        mono[3] = 1
        a = random_torus_poly(rng)
        np.testing.assert_array_equal(poly_mul(mono, a), monomial_mul(a, 3))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            poly_mul(np.zeros(N), np.zeros(N, dtype=np.uint32), engine="karatsuba")

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_distributes_over_addition(self, seed):
        r = np.random.default_rng(seed)
        a = r.integers(-32, 32, size=32)
        x, y = random_torus_poly(r, 32), random_torus_poly(r, 32)
        lhs = poly_mul(a, poly_add(x, y), engine="exact")
        rhs = poly_add(poly_mul(a, x, engine="exact"), poly_mul(a, y, engine="exact"))
        np.testing.assert_array_equal(lhs, rhs)


class TestSpectrumPath:
    def test_spectrum_roundtrip(self, rng):
        a = rng.integers(-1000, 1000, size=N)
        np.testing.assert_array_equal(from_spectrum(to_spectrum(a), N), to_torus(a))

    def test_pointwise_product_matches_poly_mul(self, rng):
        small = rng.integers(-64, 64, size=N)
        big = random_torus_poly(rng)
        big_centered = big.astype(np.int32).astype(np.int64)
        spec = poly_mul_spectrum(to_spectrum(small), to_spectrum(big_centered))
        np.testing.assert_array_equal(
            from_spectrum(spec, N), poly_mul(small, big, engine="exact")
        )

    def test_from_spectrum_rounds_half_to_even_and_wraps(self):
        """The fused round+unfold equals rounding the unfolded coefficients."""
        from repro.transforms.negacyclic import negacyclic_fft

        coeffs = np.array([0.5, 1.5, -0.5, -1.5, 2.0**32 + 3, -(2.0**31), 2.0**40 + 1, -7.0])
        spec = negacyclic_fft(coeffs)
        want = to_torus(np.round(negacyclic_ifft(spec, coeffs.size)).astype(np.int64))
        np.testing.assert_array_equal(from_spectrum(spec, coeffs.size), want)

    def test_spectrum_accumulation_linearity(self, rng):
        """Accumulating in the transform domain == accumulating coefficients.

        This is the linearity property the Output-Reuse datapath relies on.
        """
        a1 = rng.integers(-32, 32, size=N)
        a2 = rng.integers(-32, 32, size=N)
        b1 = random_torus_poly(rng)
        b2 = random_torus_poly(rng)
        b1c = b1.astype(np.int32).astype(np.int64)
        b2c = b2.astype(np.int32).astype(np.int64)
        spec_sum = to_spectrum(a1) * to_spectrum(b1c) + to_spectrum(a2) * to_spectrum(b2c)
        coeff_sum = poly_add(
            poly_mul(a1, b1, engine="exact"), poly_mul(a2, b2, engine="exact")
        )
        np.testing.assert_array_equal(from_spectrum(spec_sum, N), coeff_sum)
