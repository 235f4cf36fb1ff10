"""Tests for batched LWE ciphertext operations."""

import numpy as np
import pytest

from repro.tfhe.batch import LweBatch, bootstrap_batch, decrypt_batch, encrypt_batch
from repro.tfhe.encoding import identity_test_polynomial
from repro.tfhe.torus import encode_message

P = 8
NOISE = -22.0


@pytest.fixture()
def batch_rng():
    return np.random.default_rng(77)


def make_batch(ctx, msgs, batch_rng):
    return encrypt_batch(np.asarray(msgs), P, ctx.keyset.lwe_key, batch_rng,
                         noise_log2=NOISE)


class TestRoundtrip:
    def test_encrypt_decrypt(self, ctx, batch_rng):
        msgs = [0, 1, 2, 3, 2, 1]
        batch = make_batch(ctx, msgs, batch_rng)
        np.testing.assert_array_equal(
            decrypt_batch(batch, P, ctx.keyset.lwe_key), msgs
        )

    def test_matches_single_ciphertext_api(self, ctx, batch_rng):
        batch = make_batch(ctx, [1, 2], batch_rng)
        assert ctx.decrypt(batch[0], P) == 1
        assert ctx.decrypt(batch[1], P) == 2

    def test_rejects_2d_messages(self, ctx, batch_rng):
        with pytest.raises(ValueError):
            encrypt_batch(np.zeros((2, 2)), P, ctx.keyset.lwe_key, batch_rng)


class TestContainer:
    def test_from_to_ciphertexts(self, ctx, batch_rng):
        batch = make_batch(ctx, [0, 3], batch_rng)
        rebuilt = LweBatch.from_ciphertexts(batch.to_ciphertexts())
        np.testing.assert_array_equal(rebuilt.a, batch.a)
        np.testing.assert_array_equal(rebuilt.b, batch.b)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            LweBatch.from_ciphertexts([])

    def test_mixed_dimensions_rejected(self, ctx, batch_rng):
        from repro.tfhe.lwe import lwe_trivial

        with pytest.raises(ValueError):
            LweBatch.from_ciphertexts([lwe_trivial(0, 4), lwe_trivial(0, 8)])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LweBatch(np.zeros((2, 4), np.uint32), np.zeros(3, np.uint32))

    def test_len(self, ctx, batch_rng):
        assert len(make_batch(ctx, [1, 2, 3], batch_rng)) == 3


class TestLinearOps:
    def test_add(self, ctx, batch_rng):
        x = make_batch(ctx, [1, 2], batch_rng)
        y = make_batch(ctx, [2, 1], batch_rng)
        np.testing.assert_array_equal(
            decrypt_batch(x + y, P, ctx.keyset.lwe_key), [3, 3]
        )

    def test_sub(self, ctx, batch_rng):
        x = make_batch(ctx, [3, 2], batch_rng)
        y = make_batch(ctx, [1, 2], batch_rng)
        np.testing.assert_array_equal(
            decrypt_batch(x - y, P, ctx.keyset.lwe_key), [2, 0]
        )

    def test_neg(self, ctx, batch_rng):
        x = make_batch(ctx, [1, 3], batch_rng)
        np.testing.assert_array_equal(
            decrypt_batch(-x, P, ctx.keyset.lwe_key), [P - 1, P - 3]
        )

    def test_scalar_mul_per_ciphertext(self, ctx, batch_rng):
        x = make_batch(ctx, [1, 2], batch_rng)
        out = x.scalar_mul([3, 2])
        np.testing.assert_array_equal(
            decrypt_batch(out, P, ctx.keyset.lwe_key), [3, 4]
        )

    def test_scalar_mul_broadcast(self, ctx, batch_rng):
        x = make_batch(ctx, [1, 2], batch_rng)
        np.testing.assert_array_equal(
            decrypt_batch(x.scalar_mul(2), P, ctx.keyset.lwe_key), [2, 4]
        )

    def test_add_plain(self, ctx, batch_rng):
        x = make_batch(ctx, [1, 2], batch_rng)
        out = x.add_plain(int(encode_message(1, P)[()]))
        np.testing.assert_array_equal(
            decrypt_batch(out, P, ctx.keyset.lwe_key), [2, 3]
        )

    def test_shape_mismatch_rejected(self, ctx, batch_rng):
        x = make_batch(ctx, [1, 2], batch_rng)
        y = make_batch(ctx, [1, 2, 3], batch_rng)
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x.scalar_mul([1, 2, 3])


class TestBatchBootstrap:
    def test_refreshes_every_ciphertext(self, ctx, batch_rng):
        msgs = [0, 1, 2, 3]
        batch = make_batch(ctx, msgs, batch_rng)
        tp = identity_test_polynomial(ctx.params, P)
        out = bootstrap_batch(batch, tp, ctx.keyset)
        np.testing.assert_array_equal(
            decrypt_batch(out, P, ctx.keyset.lwe_key), msgs
        )

    def test_group_size_does_not_change_results(self, ctx, batch_rng):
        msgs = [1, 2, 3]
        batch = make_batch(ctx, msgs, batch_rng)
        tp = identity_test_polynomial(ctx.params, P)
        out = bootstrap_batch(batch, tp, ctx.keyset, group_size=2)
        np.testing.assert_array_equal(
            decrypt_batch(out, P, ctx.keyset.lwe_key), msgs
        )

    def test_trace_accumulates_across_group(self, ctx, batch_rng):
        from repro import observability as obs

        batch = make_batch(ctx, [1, 2], batch_rng)
        tp = identity_test_polynomial(ctx.params, P)
        with obs.telemetry() as (registry, _tracer):
            bootstrap_batch(batch, tp, ctx.keyset, group_size=1)
            products = registry.get("tfhe_external_products_total").value(engine="transform")
        assert products > ctx.params.n  # two bootstraps' worth

    def test_rejects_bad_group_size(self, ctx, batch_rng):
        batch = make_batch(ctx, [1], batch_rng)
        tp = identity_test_polynomial(ctx.params, P)
        with pytest.raises(ValueError):
            bootstrap_batch(batch, tp, ctx.keyset, group_size=0)
