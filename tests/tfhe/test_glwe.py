"""Tests for GLWE ciphertexts, rotation, and sample extraction."""

import numpy as np
import pytest

from repro.tfhe.glwe import GlweCiphertext, GlweSecretKey, glwe_decrypt_phase, glwe_keygen
from repro.tfhe.lwe import LweSecretKey, lwe_decrypt_phase
from repro.tfhe.torus import encode_message

from ._oracle import (
    glwe_add,
    glwe_encrypt,
    glwe_rotate,
    glwe_sub,
    glwe_trivial,
    monomial_mul,
    sample_extract,
)

K, N = 2, 64
NOISE = -26.0


@pytest.fixture(scope="module")
def gkey():
    return glwe_keygen(K, N, np.random.default_rng(5))


def phase_error(phase, expected):
    diff = (phase.astype(np.int64) - expected.astype(np.int64) + (1 << 31)) % (1 << 32) - (1 << 31)
    return np.abs(diff).max()


def random_message(rng, p=16):
    return encode_message(rng.integers(0, p, size=N), p)


class TestKeygen:
    def test_shape(self, gkey):
        assert gkey.polys.shape == (K, N)

    def test_binary(self, gkey):
        assert set(np.unique(gkey.polys)) <= {0, 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            GlweSecretKey(np.full((2, 4), 3))
        with pytest.raises(ValueError):
            GlweSecretKey(np.zeros(4))

    def test_extracted_bits_flatten_in_order(self, gkey):
        flat = gkey.extracted_lwe_bits()
        assert flat.shape == (K * N,)
        np.testing.assert_array_equal(flat[:N], gkey.polys[0])


class TestEncryptDecrypt:
    def test_phase_recovers_message_within_noise(self, gkey, rng):
        m = random_message(rng)
        ct = glwe_encrypt(m, gkey, rng, noise_log2=NOISE)
        phase = glwe_decrypt_phase(ct, gkey)
        assert phase_error(phase, m) < (1 << 12)

    def test_trivial_encryption_phase_is_exact(self, rng):
        m = random_message(rng)
        ct = glwe_trivial(m, K)
        key = glwe_keygen(K, N, rng)  # any key decrypts a trivial ct
        np.testing.assert_array_equal(glwe_decrypt_phase(ct, key), m)

    def test_wrong_message_shape_rejected(self, gkey, rng):
        with pytest.raises(ValueError):
            glwe_encrypt(np.zeros(N // 2, dtype=np.uint32), gkey, rng)

    def test_ciphertext_shape_validated(self):
        with pytest.raises(ValueError):
            GlweCiphertext(np.zeros(N, dtype=np.uint32))


class TestHomomorphisms:
    def test_add(self, gkey, rng):
        m1, m2 = random_message(rng, 8), random_message(rng, 8)
        c = glwe_add(
            glwe_encrypt(m1, gkey, rng, noise_log2=NOISE),
            glwe_encrypt(m2, gkey, rng, noise_log2=NOISE),
        )
        assert phase_error(glwe_decrypt_phase(c, gkey), m1 + m2) < (1 << 13)

    def test_sub_of_self_is_small(self, gkey, rng):
        m = random_message(rng)
        c = glwe_encrypt(m, gkey, rng, noise_log2=NOISE)
        d = glwe_sub(c, c)
        assert phase_error(glwe_decrypt_phase(d, gkey), np.zeros(N, np.uint32)) == 0


class TestRotation:
    def test_rotation_rotates_the_phase(self, gkey, rng):
        m = random_message(rng)
        ct = glwe_encrypt(m, gkey, rng, noise_log2=NOISE)
        for t in [1, 7, N, N + 3, 2 * N - 1]:
            rotated = glwe_rotate(ct, t)
            expected = monomial_mul(glwe_decrypt_phase(ct, gkey), t)
            assert phase_error(glwe_decrypt_phase(rotated, gkey), expected) == 0

    def test_rotation_composes(self, gkey, rng):
        ct = glwe_encrypt(random_message(rng), gkey, rng, noise_log2=NOISE)
        once = glwe_rotate(glwe_rotate(ct, 3), 5)
        both = glwe_rotate(ct, 8)
        np.testing.assert_array_equal(once.data, both.data)


class TestSampleExtraction:
    def test_extracts_constant_coefficient(self, gkey, rng):
        m = random_message(rng)
        ct = glwe_encrypt(m, gkey, rng, noise_log2=NOISE)
        lwe_key = LweSecretKey(gkey.extracted_lwe_bits())
        extracted = sample_extract(ct, 0)
        assert extracted.n == K * N
        phase = int(lwe_decrypt_phase(extracted, lwe_key))
        glwe_phase = int(glwe_decrypt_phase(ct, gkey)[0])
        assert phase == glwe_phase

    @pytest.mark.parametrize("h", [1, 5, N - 1])
    def test_extracts_arbitrary_coefficient(self, h, gkey, rng):
        m = random_message(rng)
        ct = glwe_encrypt(m, gkey, rng, noise_log2=NOISE)
        lwe_key = LweSecretKey(gkey.extracted_lwe_bits())
        extracted = sample_extract(ct, h)
        phase = int(lwe_decrypt_phase(extracted, lwe_key))
        glwe_phase = int(glwe_decrypt_phase(ct, gkey)[h])
        assert phase == glwe_phase

    def test_out_of_range_coefficient_rejected(self, gkey, rng):
        ct = glwe_trivial(np.zeros(N, np.uint32), K)
        with pytest.raises(ValueError):
            sample_extract(ct, N)
