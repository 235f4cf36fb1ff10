"""Tests for the pipeline trace of blind rotation."""

import pytest

from repro.core.accelerator import MorphlingConfig
from repro.core.trace import render_timeline, trace_blind_rotation
from repro.core.xpu import XpuModel
from repro.params import get_params


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
