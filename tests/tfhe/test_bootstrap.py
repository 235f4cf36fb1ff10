"""Integration tests for the full programmable bootstrap (Algorithm 1)."""

import numpy as np
import pytest

from repro.tfhe import (
    LweCiphertext,
    blind_rotate_batch,
    identity_test_polynomial,
    key_switch,
    make_test_polynomial,
    modulus_switch,
    programmable_bootstrap,
    programmable_bootstrap_batch,
)
from repro.tfhe.lwe import LweSecretKey, lwe_decrypt_phase, lwe_encrypt
from repro.tfhe.torus import decode_message, encode_message

from ._oracle import reference_bootstrap

P = 8


def enc(ctx, m, p=P):
    return ctx.encrypt(m, p)


class TestModulusSwitch:
    def test_output_range(self, ctx, rng):
        ct = enc(ctx, 1)
        a_t, b_t = modulus_switch(ct, ctx.params.N)
        assert 0 <= b_t < 2 * ctx.params.N
        assert a_t.min() >= 0 and a_t.max() < 2 * ctx.params.N

    def test_preserves_phase_approximately(self, ctx):
        ct = enc(ctx, 2)
        a_t, b_t = modulus_switch(ct, ctx.params.N)
        key_bits = ctx.keyset.lwe_key.bits
        two_n = 2 * ctx.params.N
        phase_2n = (b_t - int(np.sum(a_t * key_bits))) % two_n
        expected = 2 * two_n // P
        err = min((phase_2n - expected) % two_n, (expected - phase_2n) % two_n)
        assert err <= two_n // (2 * P)


class TestKeySwitch:
    def test_switches_back_to_small_key(self, ctx, rng):
        params = ctx.params
        glwe_key = ctx.keyset.glwe_key
        big_key = LweSecretKey(glwe_key.extracted_lwe_bits())
        m = int(encode_message(3, P)[()])
        big_ct = lwe_encrypt(m, big_key, rng, noise_log2=-25.0)
        small_ct = key_switch(big_ct, ctx.keyset.ksk)
        assert small_ct.n == params.n
        phase = lwe_decrypt_phase(small_ct, ctx.keyset.lwe_key)
        assert decode_message(np.asarray(phase), P)[()] == 3

    def test_dimension_mismatch_rejected(self, ctx):
        from repro.tfhe.lwe import lwe_trivial

        with pytest.raises(ValueError):
            key_switch(lwe_trivial(0, 3), ctx.keyset.ksk)


class TestProgrammableBootstrap:
    @pytest.mark.parametrize("m", range(P // 2))
    def test_identity_bootstrap_all_messages(self, ctx, m):
        tp = identity_test_polynomial(ctx.params, P)
        out = programmable_bootstrap(enc(ctx, m), tp, ctx.keyset)
        assert ctx.decrypt(out, P) == m

    def test_square_lut(self, ctx):
        lut = np.array([(x * x) % P for x in range(P // 2)], dtype=np.int64)
        tp = make_test_polynomial(lut, ctx.params, P)
        out = programmable_bootstrap(enc(ctx, 3), tp, ctx.keyset)
        assert ctx.decrypt(out, P) == (9 % P)

    @pytest.mark.parametrize("engine", ["transform", "fft", "exact"])
    def test_engines_agree_on_decryption(self, ctx, engine):
        tp = identity_test_polynomial(ctx.params, P)
        out = reference_bootstrap(enc(ctx, 2), tp, ctx.keyset, engine)
        assert ctx.decrypt(out, P) == 2

    def test_output_dimension(self, ctx):
        tp = identity_test_polynomial(ctx.params, P)
        out = programmable_bootstrap(enc(ctx, 1), tp, ctx.keyset)
        assert out.n == ctx.params.n

    def test_wrong_dimension_ciphertext_rejected(self, ctx):
        """A short ciphertext used to bootstrap to a wrong phase and a long
        one to die with an IndexError; every entry point inherits the check."""
        tp = identity_test_polynomial(ctx.params, P)
        good, n = enc(ctx, 1), ctx.params.n
        assert ctx.decrypt(programmable_bootstrap_batch([good], tp, ctx.keyset)[0], P) == 1
        for bad_n in (n - 3, n + 2):
            bad = LweCiphertext(np.resize(good.a, bad_n), good.b)
            with pytest.raises(ValueError, match=f"{bad_n}.* {n}"):
                programmable_bootstrap_batch([bad], tp, ctx.keyset)
            with pytest.raises(ValueError, match=f"{bad_n}.* {n}"):
                ctx.gate("and", bad, bad)

    def test_refreshes_noise(self, ctx):
        """Bootstrapping output noise must be independent of input noise."""
        from repro.tfhe.noise import measure_lwe_noise

        tp = identity_test_polynomial(ctx.params, P)
        ct = enc(ctx, 1)
        # Walk the ciphertext close to the decode boundary by adding noise.
        noisy = ct
        for _ in range(3):
            from repro.tfhe.lwe import lwe_add

            noisy = lwe_add(noisy, ctx.encrypt(0, P))
        out = programmable_bootstrap(noisy, tp, ctx.keyset)
        expected = int(encode_message(1, P)[()])
        refreshed = abs(measure_lwe_noise(out, ctx.keyset.lwe_key, expected))
        assert refreshed < 1.0 / (2 * P)

    def test_bootstrap_composes(self, ctx):
        """Output of one bootstrap is a valid input to the next."""
        tp = identity_test_polynomial(ctx.params, P)
        ct = enc(ctx, 3)
        for _ in range(2):
            ct = programmable_bootstrap(ct, tp, ctx.keyset)
        assert ctx.decrypt(ct, P) == 3

    def test_body_and_lut_counts_must_match_the_batch(self, ctx):
        """One body against a batch of masks used to bootstrap every sample
        with that body, and a mismatched LUT stack of height 1 to broadcast:
        both now name the two counts instead of answering."""
        n, two_n = ctx.params.n, 2 * ctx.params.N
        a_tilde = np.arange(4 * n).reshape(4, n) % two_n
        tp = identity_test_polynomial(ctx.params, P)
        for bodies in ([5], [5, 6]):
            with pytest.raises(ValueError, match=f"{len(bodies)} bodies and 4 test polynomials for 4"):
                blind_rotate_batch(a_tilde, bodies, tp, ctx.keyset)
        for rows in (1, 3):
            with pytest.raises(ValueError, match=f"4 bodies and {rows} test polynomials for 4"):
                blind_rotate_batch(a_tilde, [5] * 4, np.stack([tp] * rows), ctx.keyset)
        assert blind_rotate_batch(a_tilde, [5] * 4, np.stack([tp] * 4), ctx.keyset).shape == (
            4, ctx.params.k + 1, ctx.params.N)
