"""Tests for the systolic VPE-array mapping and functional model."""

import numpy as np
import pytest

from repro.core.accelerator import MorphlingConfig
from repro.core.vpe_array import VpeArray, map_external_product
from repro.params import get_params
from repro.tfhe.ggsw import external_product_transform, ggsw_encrypt
from repro.tfhe.glwe import glwe_encrypt, glwe_keygen
from repro.tfhe.torus import encode_message

K, N = 1, 64


@pytest.fixture(scope="module")
def gkey():
    return glwe_keygen(K, N, np.random.default_rng(21))


class TestMapping:
    def test_k1_uses_level_split(self):
        mapping = map_external_product(MorphlingConfig(), get_params("I"))
        # k+1 = 2 < 4 columns, but (k+1)*l_b = 4 >= 4: spare columns split levels.
        assert mapping.cols_used == 4
        assert mapping.column_passes == 1

    def test_k3_fills_columns(self):
        mapping = map_external_product(MorphlingConfig(), get_params("C"))
        assert mapping.cols_used == 4
        assert mapping.column_passes == 1

    def test_wide_k_needs_multiple_passes(self):
        cfg = MorphlingConfig(vpe_cols=2)
        mapping = map_external_product(cfg, get_params("C"))  # k+1 = 4 > 2
        assert mapping.column_passes == 2

    def test_utilization_bounded(self):
        for pset in ["I", "B", "C"]:
            m = map_external_product(MorphlingConfig(), get_params(pset))
            assert 0 < m.utilization <= 1.0


class TestFunctionalArray:
    def test_matches_reference_external_product(self, gkey, rng):
        array = VpeArray(rows=4, cols=4)
        g = ggsw_encrypt(1, gkey, 7, 3, rng, noise_log2=-30.0)
        batch = [
            glwe_encrypt(encode_message(rng.integers(0, 8, size=N), 16), gkey, rng,
                         noise_log2=-30.0)
            for _ in range(3)
        ]
        outputs = array.external_product_batch(g.spectrum(), g.beta_bits, batch)
        for ct, out in zip(batch, outputs):
            expected = external_product_transform(g, ct)
            np.testing.assert_array_equal(out.data, expected.data)

    def test_rejects_oversized_batch(self, gkey, rng):
        array = VpeArray(rows=2, cols=4)
        g = ggsw_encrypt(1, gkey, 7, 2, rng)
        batch = [glwe_encrypt(np.zeros(N, np.uint32), gkey, rng) for _ in range(3)]
        with pytest.raises(ValueError):
            array.external_product_batch(g.spectrum(), g.beta_bits, batch)

    def test_rejects_too_many_columns(self, rng):
        wide_key = glwe_keygen(4, N, rng)  # k+1 = 5 > 4 columns
        g = ggsw_encrypt(1, wide_key, 7, 1, rng)
        array = VpeArray(rows=4, cols=4)
        ct = glwe_encrypt(np.zeros(N, np.uint32), wide_key, rng)
        with pytest.raises(ValueError):
            array.external_product_batch(g.spectrum(), g.beta_bits, [ct])

    def test_rejects_mismatched_operand(self, gkey, rng):
        array = VpeArray()
        g = ggsw_encrypt(1, gkey, 7, 2, rng)
        other_key = glwe_keygen(K, 2 * N, rng)
        ct = glwe_encrypt(np.zeros(2 * N, np.uint32), other_key, rng)
        with pytest.raises(ValueError):
            array.external_product_batch(g.spectrum(), g.beta_bits, [ct])

    def test_rejects_degenerate_array(self):
        with pytest.raises(ValueError):
            VpeArray(rows=0, cols=4)
