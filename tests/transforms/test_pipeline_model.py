"""Tests for the pipelined-FFT hardware timing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transforms.pipeline_model import PipelinedFFTModel


class TestConstruction:
    def test_rejects_non_power_of_two_size(self):
        with pytest.raises(ValueError):
            PipelinedFFTModel(poly_size=100)

    def test_rejects_bad_lanes(self):
        with pytest.raises(ValueError):
            PipelinedFFTModel(poly_size=1024, lanes=3)


class TestMorphlingConfiguration:
    """The paper's unit: N-poly via N/2-point FFT, 8 lanes, merge-split."""

    def test_n1024_pass_is_64_cycles(self):
        unit = PipelinedFFTModel(poly_size=1024)
        assert unit.points == 512
        assert unit.cycles_per_pass == 64

    def test_n2048_pass_is_128_cycles(self):
        assert PipelinedFFTModel(poly_size=2048).cycles_per_pass == 128

    def test_merge_split_halves_per_poly_cost(self):
        with_ms = PipelinedFFTModel(poly_size=1024, merge_split=True)
        without = PipelinedFFTModel(poly_size=1024, merge_split=False)
        assert with_ms.cycles_per_polynomial == without.cycles_per_polynomial / 2

    def test_stage_count_n1024(self):
        # 512-point FFT -> 9 butterfly stages.
        assert PipelinedFFTModel(poly_size=1024).stages == 9


class TestPassAccounting:
    def test_passes_round_up(self):
        unit = PipelinedFFTModel(poly_size=256, merge_split=True)
        assert unit.passes_for(0) == 0
        assert unit.passes_for(1) == 1
        assert unit.passes_for(2) == 1
        assert unit.passes_for(3) == 2

    def test_no_merge_split_one_pass_each(self):
        unit = PipelinedFFTModel(poly_size=256, merge_split=False)
        assert unit.passes_for(3) == 3

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            PipelinedFFTModel(poly_size=256).passes_for(-1)

    def test_cycles_for_matches_pass_count(self):
        unit = PipelinedFFTModel(poly_size=512)
        assert unit.cycles_for(4) == unit.passes_for(4) * unit.cycles_per_pass


class TestProperties:
    @given(st.sampled_from([64, 256, 1024, 4096]), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_throughput_consistency(self, size, count):
        unit = PipelinedFFTModel(poly_size=size)
        cycles = unit.cycles_for(count)
        # Amortized throughput can never beat the steady-state rate.
        if count:
            assert count / cycles <= unit.throughput_polys_per_cycle() + 1e-12

    @given(st.sampled_from([64, 256, 1024, 4096]))
    @settings(max_examples=10, deadline=None)
    def test_fill_latency_grows_with_size(self, size):
        small = PipelinedFFTModel(poly_size=size)
        big = PipelinedFFTModel(poly_size=size * 2)
        assert big.fill_latency > small.fill_latency

    def test_fill_latency_positive(self):
        assert PipelinedFFTModel(poly_size=64).fill_latency > 0
