"""Tests for schedule-span recording and the ASCII Gantt rendering."""

import pytest

from repro.core.accelerator import MorphlingConfig
from repro.core.scheduler import HwScheduler, LayerDemand, SwScheduler, render_schedule
from repro.params import get_params


class TestScheduleRendering:
    def test_render_requires_spans(self):
        cfg, p = MorphlingConfig(), get_params("I")
        stream = SwScheduler(cfg, p).schedule([LayerDemand("a", 64)])
        plain = HwScheduler(cfg, p).execute(stream)
        with pytest.raises(ValueError):
            render_schedule(plain)

    def test_render_empty_program_is_the_time_axis(self):
        from repro.core.isa import InstructionStream

        cfg, p = MorphlingConfig(), get_params("I")
        result = HwScheduler(cfg, p).execute(InstructionStream(), record_spans=True)
        assert result.spans == []
        art = render_schedule(result, width=20)
        assert art == f"{'time':8s} |0{' ' * 18}|0.00 ms"

    def test_render_shows_all_engines(self):
        cfg, p = MorphlingConfig(), get_params("I")
        stream = SwScheduler(cfg, p).schedule([LayerDemand("a", 128)])
        result = HwScheduler(cfg, p).execute(stream, record_spans=True)
        art = render_schedule(result)
        assert "xpu" in art
        assert "dma_xpu" in art
        assert "ms" in art  # the time ruler

    def test_spans_respect_dependencies(self):
        cfg, p = MorphlingConfig(), get_params("I")
        stream = SwScheduler(cfg, p).schedule([LayerDemand("a", 64)])
        result = HwScheduler(cfg, p).execute(stream, record_spans=True)
        by_op = {}
        for engine, op, group, start, end in result.spans:
            by_op.setdefault(op, []).append((start, end))
        # The blind rotation cannot start before the BSK load finishes.
        br_start = by_op["blind_rotate"][0][0]
        bsk_end = by_op["load_bsk"][0][1]
        assert br_start >= bsk_end - 1e-12
        # Key switching follows sample extraction.
        assert by_op["key_switch"][0][0] >= by_op["sample_extract"][0][1] - 1e-12
