"""Batched bootstrap pipeline: bit-identity, engine differential, reuse accounting.

The batch-first hot path must be a pure reshape of the scalar path: the
same row-ordered spectrum MAC, the same FFT butterflies applied
elementwise along the batch axes.  These tests pin
that down as *bit*-identity (``np.array_equal`` on raw torus words, not
approximate decryption agreement), on the toy sets and on a secure
Table III parameter set, and check the telemetry actually proves the
Input/Output-reuse transform counts the paper claims.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.tfhe.bootstrap as bootstrap_module
from repro import observability as obs
from repro.params import PARAM_SETS, TEST_PARAMS_K2
from repro.tfhe import (
    KeySwitchingKey,
    identity_test_polynomial,
    key_switch_batch,
    make_test_polynomial,
    programmable_bootstrap,
    programmable_bootstrap_batch,
)
from repro.tfhe.decomposition import decompose
from repro.tfhe.ops import TfheContext
from repro.tfhe.torus import STREAM_BLOCK_BYTES, TORUS_DTYPE, to_torus
from repro.transforms.backends import use_backend

from ._oracle import reference_bootstrap

P = 8

#: Both transform engines; ``radix2`` is the oracle.
ENGINES = ("radix2", "numpy")


def _assert_bit_identical(batch_outs, scalar_outs):
    assert len(batch_outs) == len(scalar_outs)
    for got, ref in zip(batch_outs, scalar_outs):
        assert np.array_equal(got.a, ref.a)
        assert got.b == ref.b


class TestBitIdentity:
    def test_batch16_matches_scalar_toy(self, ctx):
        msgs = [m % (P // 2) for m in range(16)]
        cts = [ctx.encrypt(m, P) for m in msgs]
        tp = identity_test_polynomial(ctx.params, P)
        batch = programmable_bootstrap_batch(cts, tp, ctx.keyset)
        scalar = [programmable_bootstrap(ct, tp, ctx.keyset) for ct in cts]
        _assert_bit_identical(batch, scalar)
        for m, out in zip(msgs, batch):
            assert ctx.decrypt(out, P) == m

    def test_per_sample_test_polynomials(self, ctx):
        """A (B, N) test-poly stack applies row r's LUT to sample r."""
        identity = identity_test_polynomial(ctx.params, P)
        square = make_test_polynomial(
            np.array([(x * x) % P for x in range(P // 2)], dtype=np.int64),
            ctx.params, P,
        )
        cts = [ctx.encrypt(3, P), ctx.encrypt(3, P)]
        tps = np.stack([identity, square])
        batch = programmable_bootstrap_batch(cts, tps, ctx.keyset)
        _assert_bit_identical(
            batch,
            [programmable_bootstrap(cts[0], identity, ctx.keyset),
             programmable_bootstrap(cts[1], square, ctx.keyset)],
        )
        assert ctx.decrypt(batch[0], P) == 3
        assert ctx.decrypt(batch[1], P) == 1  # 9 mod 8

    def test_batch_matches_scalar_k2(self):
        """GLWE dimension k=2 exercises the full (component, level) grid."""
        ctx = TfheContext.create(TEST_PARAMS_K2, seed=11)
        msgs = [0, 1, 2, 3, 1]
        cts = [ctx.encrypt(m, P) for m in msgs]
        tp = identity_test_polynomial(ctx.params, P)
        batch = programmable_bootstrap_batch(cts, tp, ctx.keyset)
        _assert_bit_identical(
            batch, [programmable_bootstrap(ct, tp, ctx.keyset) for ct in cts]
        )
        for m, out in zip(msgs, batch):
            assert ctx.decrypt(out, P) == m

    def test_batch_matches_scalar_secure_set(self, ctx_set_one):
        """Bit-identity holds on a secure Table III set, not just toys."""
        ctx = ctx_set_one
        msgs = [0, 2, 3]
        cts = [ctx.encrypt(m, P) for m in msgs]
        tp = identity_test_polynomial(ctx.params, P)
        batch = programmable_bootstrap_batch(cts, tp, ctx.keyset)
        _assert_bit_identical(
            batch, [programmable_bootstrap(ct, tp, ctx.keyset) for ct in cts]
        )
        for m, out in zip(msgs, batch):
            assert ctx.decrypt(out, P) == m

    def test_double_table_matches_lazy_spectra(self, ctx):
        """The block-streamed table is bit-compatible with the lazy per-GGSW
        transform of the rows recovered from it."""
        table = ctx.keyset.bsk_table
        for i in (0, 1, ctx.params.n - 1):
            assert np.array_equal(table[i], ctx.keyset.bsk_ggsw(i).spectrum())


@pytest.fixture(scope="module")
def ctx_set_one():
    return TfheContext.create(PARAM_SETS["I"], seed=1)


class TestEngineDifferential:
    """The single-pass kernel gives the same words on every transform engine.

    In ``complex128`` the float error of any correct FFT stays far below
    the rounding threshold, so whole bootstraps must agree bit for bit
    between the production pocketfft engines and the radix-2 oracle.
    """

    def _run(self, cts, tps, keyset):
        outs = {}
        for engine in ENGINES:
            with use_backend(engine):
                outs[engine] = programmable_bootstrap_batch(cts, tps, keyset)
        return outs

    def _zero_some_digits(self, cts, n_poly):
        """Force ``a~_i == 0`` for part of the batch (the partial-active
        gather path) and for a whole column (the skipped step)."""
        cts[0].a[:4] = 0
        cts[1].a[2:6] = (1 << 32) // (8 * n_poly)  # below half a Z_2N bucket
        for ct in cts:
            ct.a[7] = 0

    @pytest.mark.parametrize("which", ["toy", "setI"])
    def test_bit_identical_across_engines(self, which, ctx, ctx_set_one):
        c = ctx if which == "toy" else ctx_set_one
        msgs = [0, 1, 2, 3, 1]
        cts = [c.encrypt(m, P) for m in msgs]
        self._zero_some_digits(cts, c.params.N)
        identity = identity_test_polynomial(c.params, P)
        square = make_test_polynomial(
            np.array([(x * x) % P for x in range(P // 2)], dtype=np.int64), c.params, P
        )
        tps = np.stack([identity, square, identity, square, identity])
        outs = self._run(cts, tps, c.keyset)
        for engine in ENGINES[1:]:
            _assert_bit_identical(outs[engine], outs[ENGINES[0]])
        # Per-sample LUTs, partial batches and B=1 are views of one kernel.
        with use_backend("numpy"):
            alone = [
                programmable_bootstrap_batch([ct], tp, c.keyset)[0]
                for ct, tp in zip(cts, tps)
            ]
        _assert_bit_identical(outs["numpy"], alone)

    def test_toy_bootstrap_matches_exact_integer_engine(self, ctx):
        """With the float error below 1/2 the rounded transform product *is*
        the integer product, so the fast path must reproduce the O(N^2)
        integer reference bit for bit."""
        ct = ctx.encrypt(3, P)
        ct.a[5] = 0  # one skipped CMux
        tp = identity_test_polynomial(ctx.params, P)
        exact = reference_bootstrap(ct, tp, ctx.keyset, "exact")
        for engine in ENGINES:
            with use_backend(engine):
                _assert_bit_identical(
                    programmable_bootstrap_batch([ct], tp, ctx.keyset), [exact]
                )


class TestTransformReuseCounters:
    @pytest.fixture(autouse=True)
    def clean_telemetry(self):
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def _counter(self, name, **labels):
        metric = obs.REGISTRY.get(name)
        value = metric.value(**labels) if metric is not None else None
        return 0.0 if value is None else value

    def test_fft_counts_prove_transform_reuse(self, ctx):
        """Per blind-rotation step the batch does exactly (k+1)*l_b forward
        and k+1 inverse transforms per sample: the BSK contributes *zero*
        (pre-transformed table, Input reuse) and each output polynomial is
        inverse-transformed once, not once per partial product (Output
        reuse in the POLY-ACC-REG)."""
        p = ctx.params
        cts = [ctx.encrypt(m % (P // 2), P) for m in range(4)]
        tp = identity_test_polynomial(p, P)
        with obs.telemetry():
            outs = programmable_bootstrap_batch(cts, tp, ctx.keyset)
        steps = self._counter("tfhe_blind_rotation_steps_total")
        assert 0 < steps <= len(cts) * p.n
        forward = self._counter("transforms_fft_total", direction="forward")
        inverse = self._counter("transforms_fft_total", direction="inverse")
        # Forward: only the decomposed accumulator digits, never BSK rows.
        assert forward == steps * (p.k + 1) * p.l_b
        # Inverse: one per output polynomial per step...
        assert inverse == steps * (p.k + 1)
        # ...not one per pointwise partial product (what no reuse would cost).
        assert inverse < steps * (p.k + 1) ** 2 * p.l_b
        assert self._counter("tfhe_bootstraps_total") == len(cts)
        for m, out in zip(range(4), outs):
            assert ctx.decrypt(out, P) == m % (P // 2)

    def test_batch_and_scalar_transform_counts_match(self, ctx):
        """Shared kernel: B scalar calls cost exactly what one B-batch costs."""
        cts = [ctx.encrypt(m, P) for m in (1, 2, 3)]
        tp = identity_test_polynomial(ctx.params, P)
        with obs.telemetry():
            programmable_bootstrap_batch(cts, tp, ctx.keyset)
        batched = (
            self._counter("transforms_fft_total", direction="forward"),
            self._counter("transforms_fft_total", direction="inverse"),
        )
        with obs.telemetry():
            for ct in cts:
                programmable_bootstrap(ct, tp, ctx.keyset)
        scalar = (
            self._counter("transforms_fft_total", direction="forward"),
            self._counter("transforms_fft_total", direction="inverse"),
        )
        assert batched == scalar


class TestKeySwitchMemory:
    """The KSK contraction must not materialize the (m, l_k, n) product."""

    def _make_ksk(self, rng, m, l_k, n):
        masks = rng.integers(0, 1 << 32, size=(m, l_k, n), dtype=np.uint64)
        bodies = rng.integers(0, 1 << 32, size=(m, l_k), dtype=np.uint64)
        return KeySwitchingKey(
            masks.astype(TORUS_DTYPE), bodies.astype(TORUS_DTYPE), beta_ks_bits=7
        )

    def test_matches_naive_broadcast_reference(self):
        rng = np.random.default_rng(2)
        m, l_k, n, batch = 32, 3, 12, 4
        ksk = self._make_ksk(rng, m, l_k, n)
        a = rng.integers(0, 1 << 32, size=(batch, m), dtype=np.uint64).astype(TORUS_DTYPE)
        b = rng.integers(0, 1 << 32, size=(batch,), dtype=np.uint64).astype(TORUS_DTYPE)
        out_a, out_b = key_switch_batch(a, b, ksk)
        d64 = decompose(a, ksk.beta_ks_bits, ksk.l_k).transpose(0, 2, 1)
        for r in range(batch):
            # The pre-optimization formula, allocation blowup and all.
            ref_a = to_torus(-(d64[r][:, :, None] * ksk.masks.astype(np.int64)).sum(axis=(0, 1)))
            ref_b = to_torus(np.int64(b[r]) - (d64[r] * ksk.bodies.astype(np.int64)).sum())
            assert np.array_equal(out_a[r], ref_a)
            assert out_b[r] == ref_b

    def test_peak_allocation_regression(self):
        """Set-III shapes at B = 8: one block buffer, no KSK-sized temporary."""
        rng = np.random.default_rng(3)
        m, l_k, n, batch = 2048, 4, 592, 8
        ksk = self._make_ksk(rng, m, l_k, n)
        a = rng.integers(0, 1 << 32, size=(batch, m), dtype=np.uint64).astype(TORUS_DTYPE)
        b = rng.integers(0, 1 << 32, size=(batch,), dtype=np.uint64).astype(TORUS_DTYPE)
        key_switch_batch(a, b, ksk)  # warm caches outside the measured window
        tracemalloc.start()
        key_switch_batch(a, b, ksk)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The design's own budget: the block buffer (twice over, for slack),
        # the int64 digits with their float64 copy, and the output words.
        digit_bytes = batch * m * l_k * 8
        budget = 2 * STREAM_BLOCK_BYTES + 2 * digit_bytes + batch * (n + 1) * 8
        assert budget < ksk.masks.nbytes / 3  # so no KSK-sized temporary fits in it
        assert peak <= budget, (
            f"key_switch_batch peaked at {peak / 2**20:.1f} MiB against a "
            f"{budget / 2**20:.1f} MiB budget; the KSK is {ksk.masks.nbytes / 2**20:.1f} MiB"
        )


def _int64_key_switch(a, b, ksk):
    """The contraction in exact int64 (the pre-GEMM einsum), as reference."""
    d64 = decompose(a, ksk.beta_ks_bits, ksk.l_k).transpose(0, 2, 1)
    mask_acc = -np.einsum("bml,mln->bn", d64, ksk.masks)
    body_acc = np.asarray(b).astype(np.int64) - np.einsum("bml,ml->b", d64, ksk.bodies)
    return to_torus(mask_acc), to_torus(body_acc)


class TestKeySwitchExactness:
    """The float64 GEMM is exact at its bound, not only on random inputs."""

    @pytest.mark.parametrize("name", ["I", "II", "III", "IV"])
    def test_worst_case_operands_on_the_secure_shapes(self, name):
        """Every digit at -beta_ks/2 against every key word at the centred
        extremes: the largest partial sums the exactness bound allows."""
        p = PARAM_SETS[name]
        m, half_beta = p.k * p.N, 1 << (p.beta_ks_bits - 1)
        # The word whose balanced digits are all -beta_ks/2.
        kept = p.beta_ks_bits * p.l_k
        all_low = -half_beta * sum(1 << (p.beta_ks_bits * j) for j in range(p.l_k))
        word = (all_low % (1 << kept)) << (32 - kept)
        a = np.full((8, m), word, dtype=TORUS_DTYPE)
        assert np.all(decompose(a, p.beta_ks_bits, p.l_k) == -half_beta)
        b = np.arange(8, dtype=TORUS_DTYPE)
        ksk = KeySwitchingKey(
            np.empty((m, p.l_k, p.n), dtype=TORUS_DTYPE),
            np.empty((m, p.l_k), dtype=TORUS_DTYPE),
            p.beta_ks_bits,
        )
        for extreme in (0x8000_0000, 0x7FFF_FFFF):
            ksk.masks[...] = extreme
            ksk.bodies[...] = extreme
            for batch in (1, 8):
                got_a, got_b = key_switch_batch(a[:batch], b[:batch], ksk)
                ref_a, ref_b = _int64_key_switch(a[:batch], b[:batch], ksk)
                assert np.array_equal(got_a, ref_a)
                assert np.array_equal(got_b, ref_b)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 9),
        m=st.integers(1, 24),
        l_k=st.integers(1, 4),
        beta_ks_bits=st.integers(1, 8),
        n=st.integers(1, 9),
        block_rows=st.integers(2, 11),
    )
    def test_random_shapes_with_a_remainder_block(
        self, seed, batch, m, l_k, beta_ks_bits, n, block_rows
    ):
        """Row blocks that do not divide kN*l_k: the last block is short."""
        assume((m * l_k) % block_rows)
        rng = np.random.default_rng(seed)
        ksk = KeySwitchingKey(
            rng.integers(0, 1 << 32, size=(m, l_k, n), dtype=TORUS_DTYPE),
            rng.integers(0, 1 << 32, size=(m, l_k), dtype=TORUS_DTYPE),
            beta_ks_bits,
        )
        a = rng.integers(0, 1 << 32, size=(batch, m), dtype=TORUS_DTYPE)
        b = rng.integers(0, 1 << 32, size=(batch,), dtype=TORUS_DTYPE)
        with mock.patch.object(bootstrap_module, "STREAM_BLOCK_BYTES", 8 * n * block_rows):
            got_a, got_b = key_switch_batch(a, b, ksk)
        ref_a, ref_b = _int64_key_switch(a, b, ksk)
        assert np.array_equal(got_a, ref_a)
        assert np.array_equal(got_b, ref_b)
