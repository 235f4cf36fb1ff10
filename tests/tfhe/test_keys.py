"""Direct tests for key material generation (BSK, KSK, KeySet)."""

import json
import tracemalloc

import numpy as np
import pytest

from repro import TEST_PARAMS
from repro.params import PARAM_SETS, get_params
from repro.tfhe.glwe import (
    _key_mask_product,
    _key_mask_products,
    _key_matrix,
    glwe_encrypt,
    glwe_encrypt_zeros,
    glwe_keygen,
)
from repro.tfhe.keys import KeySwitchingKey, generate_keyset, make_ksk
from repro.tfhe.lwe import lwe_keygen
from repro.tfhe.serialization import load_keyset, save_keyset
from repro.tfhe.torus import STREAM_BLOCK_BYTES, u32
from repro.transforms.backends import active_backend_name, use_backend
from repro.transforms.negacyclic import negacyclic_fft

from ._keys_golden import GOLDEN_DOC, PARAM_SET_NAMES, SEED, keyset_digests


@pytest.fixture(scope="module")
def golden_keysets():
    """The golden's keysets (toy and set I, seed 7), generated once."""
    return {
        name: generate_keyset(get_params(name), np.random.default_rng(SEED))
        for name in PARAM_SET_NAMES
    }


class TestKeySetStructure:
    def test_bsk_has_one_ggsw_per_key_bit(self, keyset):
        assert len(keyset.bsk) == TEST_PARAMS.n

    def test_bsk_ggsw_shapes(self, keyset):
        p = TEST_PARAMS
        for ggsw in keyset.bsk[:3]:
            assert ggsw.rows.shape == ((p.k + 1) * p.l_b, p.k + 1, p.N)
            assert ggsw.beta_bits == p.beta_bits

    def test_ksk_dimensions(self, keyset):
        p = TEST_PARAMS
        assert keyset.ksk.in_dimension == p.k * p.N
        assert keyset.ksk.out_dimension == p.n
        assert keyset.ksk.l_k == p.l_k

    def test_bsk_spectra_cached(self, keyset):
        g = keyset.bsk[0]
        spectrum = g.spectrum()
        assert spectrum.shape == g.rows.shape[:-1] + (TEST_PARAMS.N // 2,)
        assert g.spectrum() is spectrum


class TestSpectrumTableCache:
    def test_second_call_is_a_cache_hit(self, keyset):
        first = keyset.bsk_spectrum_table("double")
        assert keyset.bsk_spectrum_table("double") is first

    def test_precisions_cached_independently(self, keyset):
        double = keyset.bsk_spectrum_table("double")
        single = keyset.bsk_spectrum_table("single")
        assert double is not single
        assert double.dtype == np.complex128
        assert single.dtype == np.complex64
        assert keyset.bsk_spectrum_table("double") is double
        assert keyset.bsk_spectrum_table("single") is single

    def test_drop_spectrum_cache_clears_everything(self, keyset):
        table = keyset.bsk_spectrum_table("double")
        for g in keyset.bsk:  # populate the lazy per-GGSW spectra too
            g.spectrum()
        assert any(g._spectrum is not None for g in keyset.bsk)

        keyset.drop_spectrum_cache()
        assert keyset._bsk_tables == {}
        assert all(g._spectrum is None for g in keyset.bsk)

        rebuilt = keyset.bsk_spectrum_table("double")
        assert rebuilt is not table
        np.testing.assert_array_equal(rebuilt, table)


class TestSpectrumTableLayout:
    """The per-step MAC reads one contiguous key row after the other."""

    @pytest.mark.parametrize("backend", ["numpy", "radix2"])
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_table_is_c_contiguous(self, backend, precision):
        fresh = generate_keyset(TEST_PARAMS, np.random.default_rng(3))
        with use_backend(backend):
            table = fresh.bsk_spectrum_table(precision)
        assert table.flags.c_contiguous

    def test_adopt_rejects_a_non_contiguous_table(self, keyset):
        table = keyset.bsk_spectrum_table("double")
        transposed = np.ascontiguousarray(table.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
        assert transposed.shape == table.shape and not transposed.flags.c_contiguous
        fresh = generate_keyset(TEST_PARAMS, np.random.default_rng(3))
        with pytest.raises(ValueError, match="C-contiguous"):
            fresh.adopt_spectrum_table(transposed)
        assert fresh.adopt_spectrum_table(table) is table


class TestKeysGolden:
    """Same keys per seed: digests recorded before keygen was block-streamed."""

    @pytest.mark.parametrize("name", PARAM_SET_NAMES)
    def test_digests_match_the_golden(self, name, golden_keysets):
        with open(GOLDEN_DOC) as fh:
            golden = json.load(fh)
        got, want = keyset_digests(golden_keysets[name]), golden[name]
        if np.__version__ != golden["numpy"] or active_backend_name() != "numpy":
            # The table is numpy.fft float output: pinned under the engine
            # that recorded it, checked against a one-shot build below.
            del got["bsk_spectrum_table_double"], want["bsk_spectrum_table_double"]
        assert got == want


class TestBlockStreamedKeys:
    """Keygen and the BSK pre-transform never hold a key-sized temporary."""

    @pytest.mark.parametrize("precision,cdtype", [
        ("double", np.complex128), ("single", np.complex64),
    ])
    def test_setI_table_equals_the_one_shot_transform(self, precision, cdtype, golden_keysets):
        keyset = golden_keysets["I"]
        stacked = np.stack([g.rows for g in keyset.bsk])
        table = keyset.bsk_spectrum_table(precision)
        # 500 GGSWs are 15 blocks of 32 plus 20 (double), 7 of 64 plus 52 (single).
        assert len(keyset.bsk) % (STREAM_BLOCK_BYTES // table[0].nbytes) != 0
        centered = stacked.view(np.int32)
        reference = negacyclic_fft(
            centered if precision == "double" else centered.astype(np.float32)
        )
        assert table.dtype == cdtype and table.flags.c_contiguous
        np.testing.assert_array_equal(table, reference)

    def test_setI_keygen_peak_is_live_bytes_plus_blocks(self):
        tracemalloc.start()
        keyset = generate_keyset(PARAM_SETS["I"], np.random.default_rng(SEED))
        live, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(keyset.bsk) == PARAM_SETS["I"].n
        # The 8 MB key matrix plus a few 2 MB blocks; full-size draws,
        # products and int64 sums took this to live + 31 MB.
        assert peak <= live + 12 * 2**20, (
            f"keygen peaked at {peak / 2**20:.1f} MiB for {live / 2**20:.1f} MiB live"
        )

    def test_setI_table_build_peak_is_the_table_plus_blocks(self, golden_keysets):
        keyset = golden_keysets["I"]
        keyset.drop_spectrum_cache()
        tracemalloc.start()
        table = keyset.bsk_spectrum_table("double")
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The one-shot build held the stacked BSK, its fold and the spectrum: 2.04x.
        assert peak <= 1.25 * table.nbytes, (
            f"table build peaked at {peak / 2**20:.1f} MiB for a "
            f"{table.nbytes / 2**20:.1f} MiB table"
        )

    def test_saved_and_loaded_keyset_builds_the_same_table(self, keyset, tmp_path):
        save_keyset(tmp_path / "keys.npz", keyset)
        loaded = load_keyset(tmp_path / "keys.npz")
        np.testing.assert_array_equal(
            loaded.bsk_spectrum_table("double"), keyset.bsk_spectrum_table("double")
        )


def _row_by_row_keyset(params, rng, ggsw_indices):
    """Keygen as it ran before the key-mask products were batched.

    Draws exactly what :func:`generate_keyset` draws, in order, but
    encrypts one GLWE row at a time through :func:`glwe_encrypt`; the
    (slow) per-row product is only computed for the GGSWs asked for.
    Returns ``({index: rows}, ksk)``.
    """
    lwe_key = lwe_keygen(params.n, rng)
    glwe_key = glwe_keygen(params.k, params.N, rng)
    zero = np.zeros(params.N, dtype=np.uint32)
    wanted = {}
    for index, bit in enumerate(lwe_key.bits):
        rows = np.empty(((params.k + 1) * params.l_b, params.k + 1, params.N), dtype=np.uint32)
        for i in range(params.k + 1):
            for j in range(params.l_b):
                if index in ggsw_indices:
                    enc = glwe_encrypt(zero, glwe_key, rng, params.glwe_noise_log2).data
                    weight = int(bit) << (params.q_bits - params.beta_bits * (j + 1))
                    enc[i, 0] = u32(int(enc[i, 0]) + weight)
                    rows[i * params.l_b + j] = enc
                else:  # same draws, product skipped
                    rng.integers(0, 1 << 32, size=(params.k, params.N), dtype=np.uint64)
                    rng.normal(0.0, 1.0, size=(params.N,))
        if index in ggsw_indices:
            wanted[index] = rows
    ksk = make_ksk(
        glwe_key.extracted_lwe_bits(), lwe_key, params.beta_ks_bits, params.l_k, rng,
        noise_log2=params.lwe_noise_log2, q_bits=params.q_bits,
    )
    return wanted, ksk


class TestBatchedKeygen:
    """Batching the key-mask products changes no key bit and no RNG draw."""

    @pytest.mark.parametrize("params,sampled", [
        (TEST_PARAMS, range(TEST_PARAMS.n)),
        (PARAM_SETS["I"], (0, 249, 499)),
    ], ids=["toy", "setI"])
    def test_keys_bit_identical_to_row_by_row(self, params, sampled):
        keyset = generate_keyset(params, np.random.default_rng(21))
        wanted, ksk = _row_by_row_keyset(params, np.random.default_rng(21), set(sampled))
        assert sorted(wanted) == sorted(sampled)
        for index, rows in wanted.items():
            np.testing.assert_array_equal(keyset.bsk[index].rows, rows)
        # The KSK is drawn after the BSK: equal only if every draw lined up.
        np.testing.assert_array_equal(keyset.ksk.masks, ksk.masks)
        np.testing.assert_array_equal(keyset.ksk.bodies, ksk.bodies)

    @pytest.mark.parametrize("k,n", [(1, 1024), (2, 64), (3, 16)])
    def test_products_equal_the_per_row_function(self, k, n, rng):
        key = glwe_keygen(k, n, rng)
        masks = rng.integers(0, 1 << 32, size=(5, k, n), dtype=np.uint64).astype(np.uint32)
        masks[0] = 0xFFFFFFFF  # the largest sum the exactness bound must cover
        got = _key_mask_products(masks, _key_matrix(key))
        assert got.dtype == np.int64
        for row, want in zip(got, (_key_mask_product(m, key) for m in masks)):
            np.testing.assert_array_equal(row, want)

    def test_exactness_bound_is_enforced(self):
        """k*N*2**32 must stay below 2**53 for the float64 GEMM to be exact."""
        n = 1 << 21
        key = type("Key", (), {"k": 1, "N": n, "polys": np.zeros((1, n), dtype=np.int64)})()
        with pytest.raises(ValueError, match="exact"):
            _key_matrix(key)

    def test_zero_encryptions_decrypt_to_noise(self, rng):
        from repro.tfhe.glwe import GlweCiphertext, glwe_decrypt_phase
        from repro.tfhe.torus import to_signed

        key = glwe_keygen(2, 64, rng)
        data = glwe_encrypt_zeros(6, key, rng, noise_log2=-26.0)
        assert data.shape == (6, 3, 64) and data.dtype == np.uint32
        for row in data:
            phase = to_signed(glwe_decrypt_phase(GlweCiphertext(row), key))
            assert np.abs(phase).max() < 1 << 12  # ~2**6 sigma, far below a message bit


class TestDeterminism:
    def test_same_seed_same_keys(self):
        a = generate_keyset(TEST_PARAMS, np.random.default_rng(5))
        b = generate_keyset(TEST_PARAMS, np.random.default_rng(5))
        np.testing.assert_array_equal(a.lwe_key.bits, b.lwe_key.bits)
        np.testing.assert_array_equal(a.bsk[0].rows, b.bsk[0].rows)
        np.testing.assert_array_equal(a.ksk.bodies, b.ksk.bodies)

    def test_different_seeds_differ(self):
        a = generate_keyset(TEST_PARAMS, np.random.default_rng(5))
        b = generate_keyset(TEST_PARAMS, np.random.default_rng(6))
        assert not np.array_equal(a.lwe_key.bits, b.lwe_key.bits) or not np.array_equal(
            a.bsk[0].rows, b.bsk[0].rows
        )


class TestMakeKsk:
    def test_switches_between_independent_keys(self, rng):
        """A standalone KSK between two fresh LWE keys round-trips."""
        from repro.tfhe.bootstrap import key_switch
        from repro.tfhe.lwe import lwe_decrypt_phase, lwe_encrypt
        from repro.tfhe.torus import decode_message, encode_message

        key_in = lwe_keygen(24, rng)
        key_out = lwe_keygen(16, rng)
        ksk = make_ksk(key_in.bits, key_out, beta_ks_bits=6, l_k=3,
                       rng=rng, noise_log2=-25.0)
        m = int(encode_message(3, 8)[()])
        ct = lwe_encrypt(m, key_in, rng, noise_log2=-25.0)
        switched = key_switch(ct, ksk)
        phase = lwe_decrypt_phase(switched, key_out)
        assert int(decode_message(np.asarray(phase), 8)[()]) == 3

    def test_shape_validation(self, rng):
        from repro.tfhe.keys import KeySwitchingKey

        with pytest.raises(ValueError):
            KeySwitchingKey(
                np.zeros((4, 2, 8), dtype=np.uint32),
                np.zeros((4, 3), dtype=np.uint32),  # mismatched levels
                4,
            )


def _blank_ksk(in_dimension, l_k, beta_ks_bits, out_dimension=1):
    return KeySwitchingKey(
        np.zeros((in_dimension, l_k, out_dimension), dtype=np.uint32),
        np.zeros((in_dimension, l_k), dtype=np.uint32),
        beta_ks_bits,
    )


class TestKskRefusedWhenBuilt:
    """A key the float64 key switch cannot contract exactly never exists."""

    def test_a_decomposition_wider_than_the_modulus(self):
        assert _blank_ksk(4, 4, 8).l_k == 4  # 32 bits: the whole word
        with pytest.raises(ValueError, match=r"beta_ks_bits \* l_k = 36"):
            _blank_ksk(4, 12, 3)

    def test_more_terms_than_float64_adds_exactly(self):
        """(beta_ks/2) * terms * 2**31 must stay below 2**53."""
        assert _blank_ksk(63, 2, 16).in_dimension == 63  # 2**15 * 126 * 2**31
        with pytest.raises(ValueError, match="128 terms .* exact float64"):
            _blank_ksk(64, 2, 16)

    @pytest.mark.parametrize(
        "params",
        [*PARAM_SETS.values(), get_params("fig1"), TEST_PARAMS, get_params("test-k2")],
        ids=lambda p: p.name,
    )
    def test_every_shipped_parameter_set_is_accepted(self, params):
        ksk = _blank_ksk(params.k * params.N, params.l_k, params.beta_ks_bits)
        assert (ksk.in_dimension, ksk.l_k) == (params.k * params.N, params.l_k)

    def test_a_bad_key_file_fails_at_load(self, keyset, tmp_path):
        save_keyset(tmp_path / "keys.npz", keyset)
        with np.load(tmp_path / "keys.npz") as data:
            arrays = dict(data)
        # Twice the levels the recorded beta_ks_bits can address (36 > 32 bits).
        arrays["ksk_masks"] = np.repeat(arrays["ksk_masks"], 2, axis=1)
        arrays["ksk_bodies"] = np.repeat(arrays["ksk_bodies"], 2, axis=1)
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(ValueError, match="beta_ks_bits"):
            load_keyset(tmp_path / "bad.npz")
