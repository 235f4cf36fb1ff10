"""Direct tests for key material generation (BSK, KSK, KeySet)."""

import json
import tracemalloc

import numpy as np
import pytest

from repro import TEST_PARAMS
from repro.params import PARAM_SETS, TFHEParams, get_params
from repro.tfhe.ggsw import ggsw_encrypt_blocks
from repro.tfhe.glwe import GlweSecretKey, _key_mask_products, _key_spectrum, glwe_keygen
from repro.tfhe.keys import KeySet, KeySwitchingKey, generate_keyset, make_ksk, transform_bsk
from repro.tfhe.lwe import lwe_keygen
from repro.tfhe.serialization import load_keyset, save_keyset
from repro.tfhe.torus import STREAM_BLOCK_BYTES, u32
from repro.transforms.negacyclic import negacyclic_fft, negacyclic_ifft_folded

from ..transforms._radix2 import transform_engine
from ._keys_golden import GOLDEN_DOC, PARAM_SET_NAMES, SEED, keyset_digests
from ._oracle import ggsw_spectrum, glwe_encrypt, glwe_encrypt_zeros, key_mask_product


@pytest.fixture(scope="module")
def golden_keysets():
    """The golden's keysets (toy and set I, seed 7), generated once."""
    return {
        name: generate_keyset(get_params(name), np.random.default_rng(SEED))
        for name in PARAM_SET_NAMES
    }


def _transform_images(keyset):
    """Every complex array a keyset holds (the BSK table, the "single" cast)."""
    return [v for v in vars(keyset).values()
            if isinstance(v, np.ndarray) and np.iscomplexobj(v)]


class TestKeySetStructure:
    def test_bsk_has_one_ggsw_per_key_bit(self, keyset):
        assert len(keyset.bsk_table) == TEST_PARAMS.n

    def test_bsk_ggsw_shapes(self, keyset):
        p = TEST_PARAMS
        assert keyset.bsk_table.shape == (p.n, (p.k + 1) * p.l_b, p.k + 1, p.N // 2)
        for i in range(3):
            ggsw = keyset.bsk_ggsw(i)
            assert ggsw.rows.shape == ((p.k + 1) * p.l_b, p.k + 1, p.N)
            assert ggsw.beta_bits == p.beta_bits

    def test_ksk_dimensions(self, keyset):
        p = TEST_PARAMS
        assert keyset.ksk.in_dimension == p.k * p.N
        assert keyset.ksk.out_dimension == p.n
        assert keyset.ksk.l_k == p.l_k

    def test_bsk_spectra_cached(self, keyset):
        """The keyset's table is the only cache of the BSK spectra: a
        recovered GGSW transforms back to its table row, bit for bit, and
        recovering it leaves nothing behind on the keyset."""
        before = dict(vars(keyset))
        spectrum = ggsw_spectrum(keyset.bsk_ggsw(1))
        assert np.array_equal(spectrum, keyset.bsk_table[1])
        assert vars(keyset).keys() == before.keys()
        assert all(vars(keyset)[name] is value for name, value in before.items())


class TestSpectrumTableCache:
    def test_second_call_is_a_cache_hit(self, keyset):
        first = keyset.bsk_spectrum_table("double")
        assert first is keyset.bsk_table
        assert keyset.bsk_spectrum_table("double") is first

    @pytest.mark.parametrize("precision", ["single", "half"])
    def test_only_the_double_table_is_served(self, keyset, precision):
        """The benchmark harness asks for ``"double"``; nothing else exists."""
        with pytest.raises(ValueError, match="complex128"):
            keyset.bsk_spectrum_table(precision)

    def test_the_table_is_the_only_bsk_image(self):
        fresh = generate_keyset(TEST_PARAMS, np.random.default_rng(3))
        table = fresh.bsk_table
        assert _transform_images(fresh) == [table]
        assert not any(isinstance(v, list) for v in vars(fresh).values())


class TestSpectrumTableLayout:
    """The per-step MAC reads one contiguous key row after the other."""

    @pytest.mark.parametrize("backend", ["numpy", "radix2"])
    @pytest.mark.parametrize("precision", ["double"])
    def test_table_is_c_contiguous(self, backend, precision):
        with transform_engine(backend):
            fresh = generate_keyset(TEST_PARAMS, np.random.default_rng(3))
            table = fresh.bsk_spectrum_table(precision)
        assert table.flags.c_contiguous

    @pytest.mark.parametrize("mismatch", ["shape", "complex64", "non-contiguous"])
    def test_constructor_rejects_a_mismatched_table(self, keyset, mismatch):
        table = keyset.bsk_table
        transposed = np.ascontiguousarray(table.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
        bad, match = {
            "shape": (np.zeros((2, 2), dtype=np.complex128), "shape"),
            "complex64": (table.astype(np.complex64), "dtype"),
            "non-contiguous": (transposed, "C-contiguous"),
        }[mismatch]
        with pytest.raises(ValueError, match=match):
            KeySet(keyset.params, None, None, bad, keyset.ksk)
        assert KeySet(keyset.params, None, None, table, keyset.ksk).bsk_table is table


class TestKeysGolden:
    """Same keys per seed: digests recorded before keygen was block-streamed."""

    @pytest.mark.parametrize("name", PARAM_SET_NAMES)
    def test_digests_match_the_golden(self, name, golden_keysets):
        with open(GOLDEN_DOC) as fh:
            golden = json.load(fh)
        got, want = keyset_digests(golden_keysets[name]), golden[name]
        if np.__version__ != golden["numpy"]:
            # The table is numpy.fft float output: pinned under the numpy
            # that recorded it, checked against a one-shot build below.
            del got["bsk_spectrum_table_double"], want["bsk_spectrum_table_double"]
        assert got == want


def _one_shot_bsk_rows(params, seed):
    """The whole coefficient-domain BSK keygen draws for ``seed``, in one block."""
    rng = np.random.default_rng(seed)
    lwe_key = lwe_keygen(params.n, rng)
    glwe_key = glwe_keygen(params.k, params.N, rng)
    (rows,) = ggsw_encrypt_blocks(
        lwe_key.bits, glwe_key, params.beta_bits, params.l_b, rng, params.n,
        noise_log2=params.glwe_noise_log2,
    )
    return rows


class TestBlockStreamedKeys:
    """Keygen streams the BSK into its table; no key-sized temporary exists."""

    @pytest.mark.parametrize("precision,cdtype", [("double", np.complex128)])
    def test_setI_table_equals_the_one_shot_transform(self, precision, cdtype, golden_keysets):
        keyset = golden_keysets["I"]
        stacked = _one_shot_bsk_rows(PARAM_SETS["I"], SEED)
        table = keyset.bsk_spectrum_table(precision)
        # 500 GGSWs are 15 blocks of 32 plus 20.
        assert len(stacked) % (STREAM_BLOCK_BYTES // keyset.bsk_table[0].nbytes) != 0
        reference = negacyclic_fft(stacked.view(np.int32)).astype(cdtype)
        assert table.dtype == cdtype and table.flags.c_contiguous
        np.testing.assert_array_equal(table, reference)

    @staticmethod
    def _assert_keygen_peak_is_live_bytes_plus_blocks(params):
        tracemalloc.start()
        keyset = generate_keyset(params, np.random.default_rng(SEED))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        table, ksk = keyset.bsk_table, keyset.ksk
        budget = table.nbytes + ksk.masks.nbytes + ksk.bodies.nbytes + 2 * STREAM_BLOCK_BYTES
        # The table, the KSK and two 2 MB blocks: neither a uint32 BSK held
        # beside them (15.6 MB on set I) nor a dense key matrix (8 MB) fits.
        bsk_words = params.n * (params.k + 1) ** 2 * params.l_b * params.N * 4
        key_matrix = params.k * params.N * params.N * 8
        assert table.nbytes + ksk.masks.nbytes + min(bsk_words, key_matrix) > budget
        assert peak <= budget, (
            f"keygen peaked at {peak / 2**20:.1f} MiB against a "
            f"{budget / 2**20:.1f} MiB budget"
        )

    def test_setI_keygen_peak_is_live_bytes_plus_blocks(self):
        self._assert_keygen_peak_is_live_bytes_plus_blocks(PARAM_SETS["I"])

    def test_setIII_keygen_peak_is_live_bytes_plus_blocks(self):
        self._assert_keygen_peak_is_live_bytes_plus_blocks(PARAM_SETS["III"])

    def test_setI_table_build_peak_is_the_table_plus_blocks(self, golden_keysets):
        """Building the table from a whole coefficient BSK (the load path)
        allocates the table and a block's worth of temporaries, no more."""
        rows = _one_shot_bsk_rows(PARAM_SETS["I"], SEED)
        tracemalloc.start()
        table = transform_bsk(PARAM_SETS["I"], rows)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        np.testing.assert_array_equal(table, golden_keysets["I"].bsk_table)
        # The one-shot build held the stacked BSK, its fold and the spectrum: 2.04x.
        assert peak <= 1.25 * table.nbytes, (
            f"table build peaked at {peak / 2**20:.1f} MiB for a "
            f"{table.nbytes / 2**20:.1f} MiB table"
        )

    def test_saved_and_loaded_keyset_builds_the_same_table(self, keyset, tmp_path):
        save_keyset(tmp_path / "keys.npz", keyset)
        loaded = load_keyset(tmp_path / "keys.npz")
        np.testing.assert_array_equal(
            loaded.bsk_table, keyset.bsk_table
        )


class TestBskRecovery:
    """Rows recovered from the table are the words it was built from."""

    @pytest.mark.parametrize("backend", ["numpy", "radix2"])
    @pytest.mark.parametrize("n_poly", [256, 512, 1024, 2048])
    def test_round_trip_is_exact_at_the_extremes(self, backend, n_poly):
        shape = (3, 4, 2, n_poly)  # three GGSWs of set I's shape (k = 1, l_b = 2)
        cases = {
            "all 0x8000_0000": np.full(shape, 0x8000_0000, dtype=np.uint32),
            "all 0x7FFF_FFFF": np.full(shape, 0x7FFF_FFFF, dtype=np.uint32),
            "random": np.random.default_rng(n_poly).integers(
                0, 1 << 32, size=shape, dtype=np.uint32),
        }
        params = TFHEParams("round-trip", N=n_poly, n=3, k=1, l_b=2, lam=0)
        with transform_engine(backend):
            for name, rows in cases.items():
                table = transform_bsk(params, rows)
                keyset = KeySet(params, None, None, table, _blank_ksk(1, 1, 4))
                for i, want in enumerate(rows):
                    np.testing.assert_array_equal(keyset.bsk_ggsw(i).rows, want, err_msg=name)
                # The margin the rounding has: measured ~2**-18.5 of the 1/2 it may use.
                folded = negacyclic_ifft_folded(table, n_poly)
                worst = max(np.abs(x - np.rint(x)).max() for x in (folded.real, folded.imag))
                assert worst < 2.0**-8, f"{name}: |x - rint x| reached {worst:.3g}"


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
        noise_log2=params.lwe_noise_log2,
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
            np.testing.assert_array_equal(keyset.bsk_ggsw(index).rows, rows)
        # The KSK is drawn after the BSK: equal only if every draw lined up.
        np.testing.assert_array_equal(keyset.ksk.masks, ksk.masks)
        np.testing.assert_array_equal(keyset.ksk.bodies, ksk.bodies)

    @pytest.mark.parametrize("k,n", [(1, 1024), (2, 64), (3, 16)])
    def test_products_equal_the_per_row_function(self, k, n, rng):
        key = glwe_keygen(k, n, rng)
        masks = rng.integers(0, 1 << 32, size=(5, k, n), dtype=np.uint64).astype(np.uint32)
        masks[0] = 0xFFFFFFFF  # the largest sum the exactness bound must cover
        got = _key_mask_products(masks, _key_spectrum(key))
        assert got.dtype == np.int64
        for row, want in zip(got, (key_mask_product(m, key) for m in masks)):
            np.testing.assert_array_equal(row, want)

    @pytest.mark.parametrize("backend", ["numpy", "radix2"])
    @pytest.mark.parametrize("k,n", [(1, 1024), (1, 4096), (2, 2048), (3, 512), (4, 1024)])
    def test_worst_case_words_equal_the_gather(self, backend, k, n):
        """An all-ones key against the largest limbs: the sums the bound covers."""
        key = GlweSecretKey(np.ones((k, n), dtype=np.int64))
        masks = np.random.default_rng(k * n).integers(
            0, 1 << 32, size=(5, k, n), dtype=np.uint32)
        masks[0], masks[1], masks[2] = 0xFFFFFFFF, 0x8000_0000, 0xFFFF_0000
        with transform_engine(backend):
            got = _key_mask_products(masks, _key_spectrum(key))
        for row, want in zip(got, (key_mask_product(m, key) for m in masks)):
            np.testing.assert_array_equal(row, want)

    def test_exactness_bound_is_enforced(self):
        """k*N <= 2**17 keeps every rounded limb product exact (_key_spectrum)."""
        at_bound = GlweSecretKey(np.zeros((2, 1 << 16), dtype=np.int64))
        assert _key_spectrum(at_bound).shape == (2, 1 << 15)
        n = 1 << 18
        key = type("Key", (), {"k": 1, "N": n, "polys": np.zeros((1, n), dtype=np.int64)})()
        with pytest.raises(ValueError, match="exact"):
            _key_spectrum(key)

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
        np.testing.assert_array_equal(a.bsk_table, b.bsk_table)
        np.testing.assert_array_equal(a.ksk.bodies, b.ksk.bodies)

    def test_different_seeds_differ(self):
        a = generate_keyset(TEST_PARAMS, np.random.default_rng(5))
        b = generate_keyset(TEST_PARAMS, np.random.default_rng(6))
        assert not np.array_equal(a.lwe_key.bits, b.lwe_key.bits) or not np.array_equal(
            a.bsk_table, b.bsk_table
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
