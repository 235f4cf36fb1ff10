"""Tests for buffer capacity arithmetic and the shifter stall model."""

from repro.core.accelerator import MorphlingConfig
from repro.core.buffers import (
    acc_stream_capacity,
    buffer_budget,
    shifter_stall_cycles,
)
from repro.params import get_params

MIB = 1024 * 1024


class TestStreamCapacity:
    def test_default_set_i_gives_four_streams(self):
        assert acc_stream_capacity(MorphlingConfig(), get_params("I")) == 4

    def test_set_iii_gives_two_streams(self):
        assert acc_stream_capacity(MorphlingConfig(), get_params("III")) == 2

    def test_capped_at_max(self):
        cfg = MorphlingConfig(private_a1_bytes=64 * MIB)
        assert acc_stream_capacity(cfg, get_params("I")) == cfg.max_acc_streams

    def test_small_buffer_gives_zero(self):
        cfg = MorphlingConfig(private_a1_bytes=64 * 1024)
        assert acc_stream_capacity(cfg, get_params("III")) == 0

    def test_monotone_in_buffer_size(self):
        p = get_params("I")
        caps = [
            acc_stream_capacity(MorphlingConfig(private_a1_bytes=s * MIB), p)
            for s in (1, 2, 4, 8)
        ]
        assert caps == sorted(caps)

    def test_more_xpus_need_more_buffer(self):
        p = get_params("I")
        four = acc_stream_capacity(MorphlingConfig(num_xpus=4), p)
        eight = acc_stream_capacity(MorphlingConfig(num_xpus=8), p)
        assert eight <= four


class TestBufferBudget:
    def test_default_workloads_fit(self):
        cfg = MorphlingConfig()
        for name in ["I", "II", "III", "IV", "B", "C"]:
            budget = buffer_budget(cfg, get_params(name))
            assert budget.fits(cfg), name

    def test_budget_scales_with_streams(self):
        cfg = MorphlingConfig()
        p = get_params("I")
        one = buffer_budget(cfg, p, streams=1)
        two = buffer_budget(cfg, p, streams=2)
        assert two.private_a1 > one.private_a1
        assert two.private_a2 == one.private_a2  # A2 holds BSK_i, not streams


class TestShifterStalls:
    def test_double_pointer_has_no_stalls(self):
        cfg = MorphlingConfig(rotator="double_pointer")
        assert shifter_stall_cycles(get_params("I"), cfg) == 0.0

    def test_shifter_stalls_positive(self):
        cfg = MorphlingConfig(rotator="shifter")
        assert shifter_stall_cycles(get_params("I"), cfg) > 0

    def test_shifter_stalls_grow_with_n(self):
        cfg = MorphlingConfig(rotator="shifter")
        assert shifter_stall_cycles(get_params("III"), cfg) > shifter_stall_cycles(
            get_params("I"), cfg
        )
