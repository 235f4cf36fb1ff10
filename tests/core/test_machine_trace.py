"""Tests for the functional machine and the pipeline trace."""

import numpy as np
import pytest

from repro.core.accelerator import MorphlingConfig
from repro.core.machine import MorphlingMachine
from repro.core.trace import render_timeline, trace_blind_rotation
from repro.core.xpu import XpuModel
from repro.params import TEST_PARAMS, get_params
from repro.tfhe import (
    TfheContext,
    identity_test_polynomial,
    make_test_polynomial,
    programmable_bootstrap,
    programmable_bootstrap_batch,
)

P = 8


class TestMorphlingMachine:
    """Architecture-equals-algorithm verification."""

    @pytest.fixture(scope="class")
    def machine(self, ctx):
        return MorphlingMachine(MorphlingConfig(), ctx.keyset)

    def test_single_bootstrap_decrypts_correctly(self, ctx, machine):
        tp = identity_test_polynomial(ctx.params, P)
        out = machine.bootstrap(ctx.encrypt(2, P), tp)
        assert ctx.decrypt(out, P) == 2

    def test_batch_bootstrap_all_rows(self, ctx, machine):
        """All four VPE rows bootstrap together, sharing each BSK_i."""
        tp = identity_test_polynomial(ctx.params, P)
        msgs = [0, 1, 2, 3]
        outs = machine.bootstrap_batch([ctx.encrypt(m, P) for m in msgs], tp)
        assert [ctx.decrypt(o, P) for o in outs] == msgs

    def test_matches_reference_bootstrap(self, ctx, machine):
        """The machine and the scheme's golden model agree on LUT results."""
        lut = np.array([3, 2, 1, 0], dtype=np.int64)
        tp = make_test_polynomial(lut, ctx.params, P)
        ct = ctx.encrypt(1, P)
        via_machine = machine.bootstrap(ct, tp)
        via_reference = programmable_bootstrap(ct, tp, ctx.keyset)
        assert ctx.decrypt(via_machine, P) == ctx.decrypt(via_reference, P) == 2

    def test_equals_the_batch_pipeline_word_for_word(self):
        """The machine reads BSK_i as a row of the keyset's table: same words
        as the scheme pipeline, and no second transform-domain image."""
        ctx = TfheContext.create(TEST_PARAMS, seed=5)
        machine = MorphlingMachine(MorphlingConfig(), ctx.keyset)
        tp = identity_test_polynomial(ctx.params, P)
        cts = [ctx.encrypt(m, P) for m in (3, 0, 2, 1)]
        cts[1].a[:5] = 0  # a row that skips some CMuxes
        via_machine = machine.bootstrap_batch(cts, tp)
        via_pipeline = programmable_bootstrap_batch(cts, tp, ctx.keyset)
        for got, want in zip(via_machine, via_pipeline):
            assert np.array_equal(got.a, want.a) and got.b == want.b
        images = [v for v in vars(ctx.keyset).values()
                  if isinstance(v, np.ndarray) and np.iscomplexobj(v)]
        assert len(images) == 1 and images[0] is ctx.keyset.bsk_table

    def test_rejects_oversized_batch(self, ctx, machine):
        tp = identity_test_polynomial(ctx.params, P)
        cts = [ctx.encrypt(0, P)] * 5
        with pytest.raises(ValueError):
            machine.bootstrap_batch(cts, tp)

    def test_rejects_wide_k_on_narrow_array(self, ctx):
        with pytest.raises(ValueError):
            MorphlingMachine(MorphlingConfig(vpe_cols=1), ctx.keyset)


class TestPipelineTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return trace_blind_rotation(MorphlingConfig(), get_params("I"), iterations=8)

    def test_steady_state_matches_analytic_model(self, trace):
        analytic = XpuModel(MorphlingConfig(), get_params("I")).iteration_cycles()
        assert trace.steady_state_interval() == pytest.approx(analytic)

    def test_stages_never_overlap_on_one_unit(self, trace):
        from repro.core.trace import STAGES

        for stage in STAGES:
            spans = sorted(trace.stage_spans(stage), key=lambda s: s.start)
            for prev, cur in zip(spans, spans[1:]):
                assert cur.start >= prev.end

    def test_dataflow_order_within_iteration(self, trace):
        """Rotation -> decomposition -> FFT -> VPE -> IFFT per iteration."""
        from repro.core.trace import STAGES

        for i in range(trace.iterations):
            spans = {s.stage: s for s in trace.spans if s.iteration == i}
            for up, down in zip(STAGES, STAGES[1:]):
                assert spans[down].start >= spans[up].end

    def test_occupancy_identifies_bottleneck(self, trace):
        occ = trace.occupancy()
        assert trace.bottleneck() == max(occ, key=occ.get)
        assert all(0 < v <= 1 for v in occ.values())

    def test_unknown_stage_rejected(self, trace):
        with pytest.raises(KeyError):
            trace.stage_spans("alu")

    def test_needs_enough_iterations(self):
        short = trace_blind_rotation(MorphlingConfig(), get_params("I"), iterations=2)
        with pytest.raises(ValueError):
            short.steady_state_interval()

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            trace_blind_rotation(MorphlingConfig(), get_params("I"), iterations=0)

    def test_render_timeline(self, trace):
        art = render_timeline(trace)
        assert "rotation" in art
        assert "inverse_fft" in art
        assert "|" in art

    def test_no_reuse_trace_is_transform_bound(self):
        trace = trace_blind_rotation(
            MorphlingConfig.no_reuse(), get_params("C"), iterations=6
        )
        assert trace.bottleneck() in ("forward_fft", "inverse_fft")
