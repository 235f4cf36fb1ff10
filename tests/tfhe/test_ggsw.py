"""Tests for GGSW encryption, the external product, and CMux."""

import numpy as np
import pytest

from repro.tfhe.ggsw import (
    cmux,
    external_product,
    external_product_spectrum_batch,
    external_product_transform,
    ggsw_encrypt,
)
from repro.tfhe.glwe import (
    GlweCiphertext,
    glwe_decrypt_phase,
    glwe_encrypt,
    glwe_keygen,
    glwe_trivial,
)
from repro.tfhe.torus import encode_message
from repro.transforms.backends import use_backend
from repro.transforms.negacyclic import negacyclic_fft

K, N = 1, 64
BETA_BITS, L_B = 7, 3
NOISE = -30.0
P = 16


@pytest.fixture(scope="module")
def gkey():
    return glwe_keygen(K, N, np.random.default_rng(11))


@pytest.fixture(scope="module")
def module_rng():
    return np.random.default_rng(13)


def enc_bit(bit, gkey, rng):
    return ggsw_encrypt(bit, gkey, BETA_BITS, L_B, rng, noise_log2=NOISE)


def phase_error(phase, expected):
    diff = (phase.astype(np.int64) - np.asarray(expected).astype(np.int64)
            + (1 << 31)) % (1 << 32) - (1 << 31)
    return np.abs(diff).max()


def random_glwe(gkey, rng, p=P):
    m = encode_message(rng.integers(0, p, size=N), p)
    return m, glwe_encrypt(m, gkey, rng, noise_log2=NOISE)


class TestGgswStructure:
    def test_shape(self, gkey, module_rng):
        g = enc_bit(1, gkey, module_rng)
        assert g.rows.shape == ((K + 1) * L_B, K + 1, N)
        assert g.k == K
        assert g.l_b == L_B
        assert g.N == N

    def test_spectrum_cached(self, gkey, module_rng):
        g = enc_bit(1, gkey, module_rng)
        assert g.spectrum() is g.spectrum()

    def test_shape_validation(self):
        from repro.tfhe.ggsw import GgswCiphertext

        with pytest.raises(ValueError):
            GgswCiphertext(np.zeros((4, 8), dtype=np.uint32), 8)


class TestExternalProduct:
    def test_times_zero_gives_near_zero_phase(self, gkey, module_rng):
        _, ct = random_glwe(gkey, module_rng)
        out = external_product(enc_bit(0, gkey, module_rng), ct)
        assert phase_error(glwe_decrypt_phase(out, gkey), np.zeros(N)) < (1 << 16)

    def test_times_one_preserves_phase(self, gkey, module_rng):
        m, ct = random_glwe(gkey, module_rng)
        out = external_product(enc_bit(1, gkey, module_rng), ct)
        assert phase_error(glwe_decrypt_phase(out, gkey), m) < (1 << 16)

    def test_transform_engine_matches_reference(self, gkey, module_rng):
        _, ct = random_glwe(gkey, module_rng)
        g = enc_bit(1, gkey, module_rng)
        ref = external_product(g, ct, engine="exact")
        fast = external_product_transform(g, ct)
        # Both paths compute the same integer result: the FFT is exact for
        # these magnitudes up to sub-integer rounding.
        assert phase_error(glwe_decrypt_phase(fast, gkey),
                           glwe_decrypt_phase(ref, gkey)) <= 2

    def test_dimension_mismatch_rejected(self, gkey, module_rng):
        g = enc_bit(1, gkey, module_rng)
        wrong = glwe_trivial(np.zeros(2 * N, dtype=np.uint32), K)
        with pytest.raises(ValueError):
            external_product(g, wrong)
        with pytest.raises(ValueError):
            external_product_transform(g, wrong)

    def test_trivial_input_times_one(self, gkey, module_rng):
        m = encode_message(np.arange(N) % (P // 2), P)
        ct = glwe_trivial(m, K)
        out = external_product(enc_bit(1, gkey, module_rng), ct)
        assert phase_error(glwe_decrypt_phase(out, gkey), m) < (1 << 16)


class TestSpectrumMacRowOrder:
    """The row-ordered MAC on a shape that is not set I's: k = 2, l_b = 3
    (nine GGSW rows into three output polynomials)."""

    @pytest.fixture(scope="class")
    def operands(self):
        rng = np.random.default_rng(17)
        g = ggsw_encrypt(1, glwe_keygen(2, N, rng), BETA_BITS, 3, rng, noise_log2=NOISE)
        data = rng.integers(0, 1 << 32, size=(8, 3, N), dtype=np.uint32)
        return g, data

    @pytest.mark.parametrize("engine", ["numpy", "radix2"])
    def test_equals_the_exact_coefficient_domain_product(self, engine, operands):
        g, data = operands
        with use_backend(engine):
            spectrum = negacyclic_fft(g.rows.view(np.int32))
            got = external_product_spectrum_batch(spectrum, data[:3], g.beta_bits, g.l_b)
        for sample, out in zip(data[:3], got):
            want = external_product(g, GlweCiphertext(sample), engine="exact")
            np.testing.assert_array_equal(out, want.data)

    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_a_batch_equals_its_samples_one_at_a_time(self, batch, operands):
        g, data = operands
        spectrum = g.spectrum()
        assert spectrum.dtype == np.complex128
        together = external_product_spectrum_batch(spectrum, data[:batch], g.beta_bits, g.l_b)
        for r in range(batch):
            alone = external_product_spectrum_batch(spectrum, data[r : r + 1], g.beta_bits, g.l_b)
            np.testing.assert_array_equal(together[r], alone[0])


class TestCMux:
    def test_selects_false_branch(self, gkey, module_rng):
        m0, c0 = random_glwe(gkey, module_rng)
        m1, c1 = random_glwe(gkey, module_rng)
        out = cmux(enc_bit(0, gkey, module_rng), c0, c1)
        assert phase_error(glwe_decrypt_phase(out, gkey), m0) < (1 << 16)

    def test_selects_true_branch(self, gkey, module_rng):
        m0, c0 = random_glwe(gkey, module_rng)
        m1, c1 = random_glwe(gkey, module_rng)
        out = cmux(enc_bit(1, gkey, module_rng), c0, c1)
        assert phase_error(glwe_decrypt_phase(out, gkey), m1) < (1 << 16)

    @pytest.mark.parametrize("engine", ["transform", "fft", "exact"])
    def test_all_engines_select_correctly(self, engine, gkey, module_rng):
        m0, c0 = random_glwe(gkey, module_rng)
        m1, c1 = random_glwe(gkey, module_rng)
        out = cmux(enc_bit(1, gkey, module_rng), c0, c1, engine=engine)
        assert phase_error(glwe_decrypt_phase(out, gkey), m1) < (1 << 16)

    def test_chained_cmux_noise_stays_bounded(self, gkey, module_rng):
        """Noise after a chain of CMuxes must stay within the decode budget.

        This is a miniature blind rotation: the invariant that makes
        bootstrapping work at all.
        """
        m, ct = random_glwe(gkey, module_rng, p=4)
        for _ in range(16):
            ct = cmux(enc_bit(1, gkey, module_rng), ct, ct)
        assert phase_error(glwe_decrypt_phase(ct, gkey), m) < (1 << 26)
