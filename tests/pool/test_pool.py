"""BootstrapPool: sharded execution, shared spectrum, crash hygiene.

The pool must change *where* samples run, never *what* they compute:
every test here pins pool output against the single-process batched
pipeline, and the telemetry tests prove the zero-setup property (no
worker ever re-runs the BSK pre-transform) from the workers' own
``transforms_fft_total`` counters.
"""

import numpy as np
import pytest

from repro import observability as obs
from repro.pool import BootstrapPool, PoolWorkerLost, leaked_segments
from repro.tfhe.bootstrap import programmable_bootstrap_batch
from repro.tfhe.keys import generate_keyset

BATCH = 8
P = 8


@pytest.fixture(scope="module")
def workload(ctx):
    rng = np.random.default_rng(42)
    msgs = [int(m) for m in rng.integers(0, P // 2, size=BATCH)]
    cts = [ctx.encrypt(m, P) for m in msgs]
    tp = ctx._lut_test_poly(lambda x: x, P)
    return msgs, cts, tp


def _assert_same(expected, actual):
    assert len(expected) == len(actual)
    for e, a in zip(expected, actual):
        np.testing.assert_array_equal(e.a, a.a)
        assert e.b == a.b


class TestBitIdentity:
    def test_two_workers_match_single_process(self, ctx, workload):
        _, cts, tp = workload
        ref = programmable_bootstrap_batch(cts, tp, ctx.keyset)
        with BootstrapPool(ctx.keyset, workers=2) as pool:
            out = pool.bootstrap_batch(cts, tp)
        _assert_same(ref, out)
        assert leaked_segments() == []

    def test_three_workers_uneven_shards(self, ctx, workload):
        _, cts, tp = workload
        ref = programmable_bootstrap_batch(cts, tp, ctx.keyset)
        with BootstrapPool(ctx.keyset, workers=3) as pool:
            out = pool.bootstrap_batch(cts, tp)
        _assert_same(ref, out)

    def test_per_sample_luts(self, ctx, workload):
        _, cts, _ = workload
        tps = np.stack([
            ctx._lut_test_poly(lambda x, r=r: (x + r) % (P // 2), P)
            for r in range(len(cts))
        ])
        ref = programmable_bootstrap_batch(cts, tps, ctx.keyset)
        with BootstrapPool(ctx.keyset, workers=2) as pool:
            out = pool.bootstrap_batch(cts, tps)
        _assert_same(ref, out)

    def test_more_workers_than_samples(self, ctx, workload):
        _, cts, tp = workload
        ref = programmable_bootstrap_batch(cts[:2], tp, ctx.keyset)
        with BootstrapPool(ctx.keyset, workers=4) as pool:
            out = pool.bootstrap_batch(cts[:2], tp)
        _assert_same(ref, out)

    def test_empty_batch(self, ctx, workload):
        _, _, tp = workload
        with BootstrapPool(ctx.keyset, workers=2) as pool:
            assert pool.bootstrap_batch([], tp) == []

    def test_decrypts_correctly(self, ctx, workload):
        msgs, cts, tp = workload
        with BootstrapPool(ctx.keyset, workers=2) as pool:
            out = pool.bootstrap_batch(cts, tp)
        assert [ctx.decrypt(c, P) for c in out] == msgs


class TestSharedSpectrum:
    def test_workers_never_rerun_the_pretransform(self, ctx, workload):
        """Each worker's own fft counters match its shard's steady-state
        cost exactly - the table pre-transform (a much larger count)
        never ran in any worker."""
        _, cts, tp = workload
        shards = np.array_split(np.arange(len(cts)), 2)

        # Cold reference: a keyset generated inside the window pays the
        # BSK pre-transform (keygen builds the table) before shard 0 runs.
        with obs.telemetry() as (registry, _tracer):
            generate_keyset(ctx.params, np.random.default_rng(0))
            programmable_bootstrap_batch(
                [cts[r] for r in shards[0]], tp, ctx.keyset
            )
            cold_forward = registry.get("transforms_fft_total").value(
                direction="forward"
            )

        # Warm reference per shard: the table is cached, only the
        # steady-state per-sample transforms run.
        expected = []
        for rows in shards:
            with obs.telemetry() as (registry, _tracer):
                programmable_bootstrap_batch(
                    [cts[r] for r in rows], tp, ctx.keyset
                )
                fft_total = registry.get("transforms_fft_total")
                expected.append((
                    fft_total.value(direction="forward"),
                    fft_total.value(direction="inverse"),
                ))
        assert cold_forward > expected[0][0]

        with BootstrapPool(ctx.keyset, workers=2) as pool:
            pool.bootstrap_batch(cts, tp)
            stats = pool.worker_stats()

        for i, (fwd, inv) in enumerate(expected):
            worker = stats[f"w{i}"]
            # Exactly the warm per-shard cost, strictly below the cold
            # cost: the workers mapped the driver's table instead of
            # re-running the pre-transform.
            assert worker["fft_forward"] == fwd
            assert worker["fft_inverse"] == inv
            assert worker["fft_forward"] < cold_forward
            assert worker["bootstraps"] == len(shards[i])

    def test_default_pool_lanes_report_their_counters(self, ctx, workload):
        """With no telemetry on in the driver, every lane still counts its
        own shard: the stats in its result messages are real."""
        _, cts, tp = workload
        assert not obs.is_enabled()
        with BootstrapPool(ctx.keyset, workers=2) as pool:
            pool.bootstrap_batch(cts, tp)
            stats = pool.worker_stats()
        shards = np.array_split(np.arange(len(cts)), 2)
        for i, rows in enumerate(shards):
            lane = stats[f"w{i}"]
            assert lane["bootstraps"] == len(rows) > 0
            assert lane["fft_forward"] > 0 and lane["fft_inverse"] > 0
        assert not obs.is_enabled()  # the lanes' registry is their own

    def test_driver_keeps_one_image_while_the_pool_is_open(self, ctx):
        private = ctx.keyset.bsk_table
        with BootstrapPool(ctx.keyset, workers=1) as pool:
            adopted = ctx.keyset.bsk_table
            # The keyset reads the segment; its private copy is released.
            assert adopted is pool._shared.array and adopted is not private
            np.testing.assert_array_equal(adopted, private)
        # Closing hands the keyset a private copy: the table is its only BSK.
        after = ctx.keyset.bsk_table
        assert after is not adopted and after.flags.writeable
        np.testing.assert_array_equal(after, private)

    def test_unknown_backend_fails_with_available_list(self, ctx):
        with pytest.raises(ValueError, match="available backends"):
            BootstrapPool(ctx.keyset, workers=2, backend="not-a-backend")

    def test_pool_runs_radix2_backend(self, ctx, workload):
        _, cts, tp = workload
        ref = programmable_bootstrap_batch(cts, tp, ctx.keyset)
        with BootstrapPool(ctx.keyset, workers=2, backend="radix2") as pool:
            assert pool.backend == "radix2"
            out = pool.bootstrap_batch(cts, tp)
        _assert_same(ref, out)


class TestLifecycleHygiene:
    def test_no_segment_leak_on_clean_shutdown(self, ctx, workload):
        _, cts, tp = workload
        before = leaked_segments()
        with BootstrapPool(ctx.keyset, workers=2) as pool:
            pool.bootstrap_batch(cts, tp)
            assert len(leaked_segments()) == len(before) + 1
        assert leaked_segments() == before

    def test_sigkill_drill_unlinks_segment(self, ctx, workload):
        """A lane SIGKILLed mid-run is detected and the shared segment is
        still unlinked."""
        _, cts, tp = workload
        before = leaked_segments()
        pool = BootstrapPool(ctx.keyset, workers=2, kill_after_jobs={1: 1})
        pool.start()
        pool.bootstrap_batch(cts, tp)  # lane 1 completes, flushes, dies
        with pytest.raises(PoolWorkerLost) as info:
            pool.bootstrap_batch(cts, tp)
        assert info.value.worker_id == "w1"
        assert leaked_segments() == before
        pool.close()  # idempotent after the crash path already closed

    def test_start_after_close_rejected(self, ctx):
        pool = BootstrapPool(ctx.keyset, workers=1)
        pool.start()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.start()

    def test_invalid_configuration_rejected(self, ctx):
        with pytest.raises(ValueError, match="workers"):
            BootstrapPool(ctx.keyset, workers=0)
