"""Tests for discretized-torus arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tfhe.torus import (
    Q,
    decode_message,
    encode_message,
    modswitch,
    round_to_multiple,
    to_double,
    to_signed,
    to_torus,
    torus_scalar_mul,
    u32,
)

u32s = st.integers(min_value=0, max_value=Q - 1)


class TestConversions:
    def test_to_torus_wraps_negative(self):
        assert to_torus(-1)[()] == Q - 1

    def test_to_signed_centers(self):
        assert to_signed(np.uint32(Q - 1))[()] == -1
        assert to_signed(np.uint32(5))[()] == 5

    def test_double_roundtrip(self):
        numerators = np.array([0, Q // 4, Q // 2, 3 * Q // 4, Q - 1], dtype=np.uint32)
        vals = to_double(numerators)
        np.testing.assert_array_equal(vals[:4], [0.0, 0.25, 0.5, 0.75])
        assert vals[4] == 1.0 - 2.0**-32  # every numerator is exact in float64
        assert np.array_equal(to_torus(vals * Q), numerators)

    def test_u32_wraps(self):
        assert u32(Q + 3) == 3
        assert u32(-1) == Q - 1

    @given(u32s)
    @settings(max_examples=100, deadline=None)
    def test_signed_roundtrip(self, x):
        assert to_torus(to_signed(np.uint32(x)))[()] == x


class TestEncoding:
    @pytest.mark.parametrize("p", [2, 4, 8, 16, 256])
    def test_encode_decode_roundtrip(self, p):
        msgs = np.arange(p)
        np.testing.assert_array_equal(decode_message(encode_message(msgs, p), p), msgs)

    def test_decode_tolerates_noise_below_half_step(self):
        p = 8
        step = Q // p
        enc = encode_message(3, p)
        noisy = to_torus(enc.astype(np.int64) + step // 2 - 1)
        assert decode_message(noisy, p)[()] == 3

    def test_decode_flips_past_half_step(self):
        p = 8
        step = Q // p
        enc = encode_message(3, p)
        noisy = to_torus(enc.astype(np.int64) + step // 2 + 1)
        assert decode_message(noisy, p)[()] == 4

    def test_rejects_non_power_of_two_modulus(self):
        with pytest.raises(ValueError):
            encode_message(1, 10)
        with pytest.raises(ValueError):
            decode_message(np.uint32(0), 12)

    def test_rejects_oversized_modulus(self):
        with pytest.raises(ValueError):
            encode_message(1, 1 << 33)


class TestArithmetic:
    @given(st.integers(-1000, 1000), u32s)
    @settings(max_examples=100, deadline=None)
    def test_scalar_mul_matches_repeated_add(self, s, a):
        x = np.uint32(a)
        expected = (s * a) % Q
        assert torus_scalar_mul(s, x)[()] == expected


class TestModswitch:
    def test_identity_when_same_modulus(self):
        x = np.uint32(123456)
        # switching to q itself must round-trip exactly
        assert modswitch(x, Q)[()] == 123456

    def test_halving(self):
        # q/2 on the torus is 1/2; switching to modulus 4 gives 2.
        assert modswitch(np.uint32(Q // 2), 4)[()] == 2

    def test_rounding_behaviour(self):
        # A value just below the midpoint of a 2N bucket rounds down.
        two_n = 2048
        bucket = Q // two_n
        assert modswitch(np.uint32(bucket // 2 - 1), two_n)[()] == 0
        assert modswitch(np.uint32(bucket // 2 + 1), two_n)[()] == 1

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            modswitch(np.uint32(0), 0)

    @given(u32s, st.sampled_from([256, 1024, 2048, 8192]))
    @settings(max_examples=100, deadline=None)
    def test_error_bounded_by_half_bucket(self, a, two_n):
        switched = int(modswitch(np.uint32(a), two_n)[()])
        # Map back and compare on the torus.
        back = switched * (Q // two_n)
        err = (a - back + Q // 2) % Q - Q // 2
        assert abs(err) <= Q // (2 * two_n)


class TestRounding:
    def test_round_to_multiple_exact(self):
        assert round_to_multiple(np.uint32(1000), 250)[()] == 1000

    def test_round_to_multiple_up(self):
        assert round_to_multiple(np.uint32(130), 256)[()] == 256

    def test_round_to_multiple_down(self):
        assert round_to_multiple(np.uint32(120), 256)[()] == 0
