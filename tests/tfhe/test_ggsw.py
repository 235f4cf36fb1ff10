"""Tests for GGSW encryption, the external product, and CMux.

The library's external product is ``external_product_spectrum_batch``;
the coefficient-domain engines and CMux are the oracles it is checked
against (``tests/tfhe/_oracle.py``).
"""

import numpy as np
import pytest

from repro.tfhe.decomposition import decompose
from repro.tfhe.ggsw import MAC_ONE_SHOT_BYTES, external_product_spectrum_batch
from repro.tfhe.glwe import GlweCiphertext, glwe_decrypt_phase, glwe_keygen
from repro.tfhe.torus import encode_message, to_torus
from repro.transforms.negacyclic import negacyclic_fft

from ..transforms._radix2 import transform_engine
from ._oracle import (
    _exact_negacyclic_int64,
    cmux,
    external_product,
    external_product_transform,
    ggsw_encrypt,
    ggsw_spectrum,
    glwe_encrypt,
    glwe_trivial,
)

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


#: (k, N, beta_bits, l_b) of the MAC shapes under test: a small k = 2
#: shape, set I and set C.
MAC_SHAPES = {"k2": (2, N, BETA_BITS, 3), "I": (1, 1024, 10, 2), "C": (3, 512, 7, 3)}


@pytest.fixture(scope="module")
def mac_operands():
    """Per shape: a GGSW, eight random GLWE accumulators and their exact
    coefficient-domain products (built on first use)."""
    cache = {}

    def get(shape):
        if shape not in cache:
            k, n, beta_bits, l_b = MAC_SHAPES[shape]
            rng = np.random.default_rng(17)
            g = ggsw_encrypt(1, glwe_keygen(k, n, rng), beta_bits, l_b, rng, noise_log2=NOISE)
            data = rng.integers(0, 1 << 32, size=(8, k + 1, n), dtype=np.uint32)
            digits = decompose(data, beta_bits, l_b)  # (8, k+1, l_b, N)
            rows = g.rows.view(np.int32).reshape(k + 1, l_b, k + 1, n)
            products = _exact_negacyclic_int64(digits[:, :, :, None, :], rows[None])
            cache[shape] = g, data, to_torus(products.sum(axis=(1, 2)))
        return cache[shape]

    return get


class TestSpectrumMacRowOrder:
    """The spectrum MAC in both layouts (one-shot multiply + reduce up to
    ``MAC_ONE_SHOT_BYTES`` of temporary, the row loop above it) on a k = 2,
    l_b = 3 shape (nine GGSW rows into three output polynomials) and on
    sets I and C, at widths on both sides of the threshold."""

    @pytest.fixture(scope="class")
    def operands(self, mac_operands):
        g, data, _ = mac_operands("k2")
        return g, data

    @pytest.mark.parametrize("engine", ["numpy", "radix2"])
    def test_equals_the_exact_coefficient_domain_product(self, engine, operands):
        g, data = operands
        with transform_engine(engine):
            spectrum = negacyclic_fft(g.rows.view(np.int32))
            got = external_product_spectrum_batch(spectrum, data[:3], g.beta_bits, g.l_b)
        for sample, out in zip(data[:3], got):
            want = external_product(g, GlweCiphertext(sample), engine="exact")
            np.testing.assert_array_equal(out, want.data)

    def test_the_widths_sit_on_both_sides_of_the_threshold(self, mac_operands):
        """k2 stays one-shot through B = 8; set I switches to the row loop
        after B = 4 and set C after B = 1."""
        for shape, last_one_shot in (("k2", 8), ("I", 4), ("C", 1)):
            per_sample = ggsw_spectrum(mac_operands(shape)[0]).nbytes
            assert last_one_shot * per_sample <= MAC_ONE_SHOT_BYTES
            if shape != "k2":
                assert (last_one_shot + 1) * per_sample > MAC_ONE_SHOT_BYTES

    @pytest.mark.parametrize(
        "shape, batch",
        [pytest.param("k2", b, id=str(b)) for b in (1, 3, 8)]
        + [(shape, b) for shape in ("I", "C") for b in (1, 4, 5, 8)],
    )
    def test_a_batch_equals_its_samples_one_at_a_time(self, shape, batch, mac_operands):
        g, data, exact = mac_operands(shape)
        spectrum = ggsw_spectrum(g)
        assert spectrum.dtype == np.complex128
        together = external_product_spectrum_batch(spectrum, data[:batch], g.beta_bits, g.l_b)
        for r in range(batch):
            alone = external_product_spectrum_batch(spectrum, data[r : r + 1], g.beta_bits, g.l_b)
            np.testing.assert_array_equal(together[r], alone[0])
            np.testing.assert_array_equal(together[r], exact[r])


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
