"""Failure-injection tests: the scheme must fail loudly and predictably.

A cryptographic library's negative behaviour matters as much as its
happy path: wrong keys must not decrypt, corrupted evaluation keys must
not silently produce plausible plaintexts, and noise overflows must
surface as decode errors - never as exceptions deep in numpy.
"""

import numpy as np
import pytest

from repro import TEST_PARAMS, TfheContext
from repro.tfhe import (
    identity_test_polynomial,
    programmable_bootstrap,
)
from repro.tfhe.bootstrap import blind_rotate_batch, key_switch_batch
from repro.tfhe.decomposition import decompose
from repro.tfhe.glwe import sample_extract_batch
from repro.tfhe.keys import KeySet
from repro.tfhe.lwe import lwe_decrypt_phase, lwe_scalar_mul
from repro.tfhe.torus import decode_message, modswitch, to_torus

P = 8


@pytest.fixture(scope="module")
def other_ctx():
    """An unrelated party with its own keys."""
    return TfheContext.create(TEST_PARAMS, seed=999)


class TestWrongKeys:
    def test_wrong_key_does_not_decrypt(self, ctx, other_ctx):
        """Decrypting under the wrong key yields noise, not the message.

        With random masks the wrong-key phase is uniform; over many
        samples it cannot consistently equal the message.
        """
        hits = 0
        for _ in range(16):
            ct = ctx.encrypt(2, P)
            phase = lwe_decrypt_phase(ct, other_ctx.keyset.lwe_key)
            if int(decode_message(np.asarray(phase), P)[()]) == 2:
                hits += 1
        assert hits < 8  # uniform guessing lands ~2/16

    def test_wrong_bootstrapping_key_garbles(self, ctx, other_ctx):
        """Bootstrapping with another party's BSK must not preserve data."""
        franken = KeySet(
            ctx.params, ctx.keyset.lwe_key, ctx.keyset.glwe_key,
            other_ctx.keyset.bsk_table, ctx.keyset.ksk,
        )
        tp = identity_test_polynomial(ctx.params, P)
        wrong = 0
        for m in range(4):
            out = programmable_bootstrap(ctx.encrypt(m, P), tp, franken)
            if ctx.decrypt(out, P) != m:
                wrong += 1
        assert wrong >= 2


class TestCorruptedKeys:
    def test_corrupted_ksk_breaks_decryption(self, ctx):
        """A KSK whose bodies are all off by 2^28 shifts every key-switched
        body by exactly -2^28 times the sample's digit sum, masks untouched.

        2^28 is one plaintext slot at p = 8, so the shift is a whole number
        of slots: a sample decodes wrongly unless its digit sum is 0 mod 16.
        """
        import copy

        params, keyset = ctx.params, ctx.keyset
        broken = copy.deepcopy(keyset.ksk)
        broken.bodies = broken.bodies + np.uint32(1 << 28)  # blast the bodies
        cts = [ctx.encrypt(m, P) for m in range(4)]
        a = np.stack([ct.a for ct in cts])
        b = np.asarray([ct.b for ct in cts], dtype=np.uint32)
        acc = blind_rotate_batch(
            modswitch(a, 2 * params.N), modswitch(b, 2 * params.N),
            identity_test_polynomial(params, P), keyset)
        ext_a, ext_b = sample_extract_batch(acc)
        clean_a, clean_b = key_switch_batch(ext_a, ext_b, keyset.ksk)
        bad_a, bad_b = key_switch_batch(ext_a, ext_b, broken)
        np.testing.assert_array_equal(bad_a, clean_a)
        digit_sums = decompose(ext_a, broken.beta_ks_bits, broken.l_k).sum(axis=(1, 2))
        np.testing.assert_array_equal(
            bad_b - clean_b, to_torus(-(1 << 28) * digit_sums))

    def test_corrupted_serialized_keys_detected(self, ctx, tmp_path):
        from repro.tfhe.serialization import save_keyset, load_keyset

        path = tmp_path / "keys.npz"
        save_keyset(path, ctx.keyset)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF  # flip bits inside the zip container
        path.write_bytes(bytes(blob))
        with pytest.raises(Exception):
            load_keyset(path)


class TestNoiseOverflow:
    def test_scalar_overflow_breaks_decoding_not_the_code(self, ctx):
        """Multiplying by a huge scalar must decode wrongly, not crash."""
        ct = lwe_scalar_mul(1 << 20, ctx.encrypt(1, P))
        decoded = ctx.decrypt(ct, P)  # runs fine
        assert isinstance(decoded, int)

    def test_message_past_padding_wraps_negacyclically(self, ctx):
        """Encrypting past the padding bit and bootstrapping hits the
        anti-periodic branch: f(m + p/2) = -f(m)."""
        from repro.tfhe.lwe import lwe_add

        # Build an encryption of 5 (> p/2 - 1 = 3) by adding 3 + 2.
        ct = lwe_add(ctx.encrypt(3, P), ctx.encrypt(2, P))
        tp = identity_test_polynomial(ctx.params, P)
        out = programmable_bootstrap(ct, tp, ctx.keyset)
        # identity anti-periodic extension: f(5) = -f(1) = -1 = 7 mod 8.
        assert ctx.decrypt(out, P) == 7
