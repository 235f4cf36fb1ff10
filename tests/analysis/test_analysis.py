"""Tests for the Fig. 1 accounting: op counts, memory, intensity."""

import pytest

from repro.experiments.fig1 import (
    bootstrap_intensity,
    count_bootstrap_operations,
    transform_real_mults,
)
from repro.memory import bootstrap_memory
from repro.params import FIG1_PARAMS, get_params


class TestTransformCost:
    def test_n1024(self):
        # 512-pt FFT: 256*9 complex butterfly mults + 512 twist, x4 real.
        assert transform_real_mults(1024) == 4 * (256 * 9 + 512)

    def test_scales_superlinearly(self):
        assert transform_real_mults(2048) > 2 * transform_real_mults(1024)


class TestFig1OperationShares:
    """Paper: I/FFT ~88 %, KS ~1.9 %, other ~1 %."""

    @pytest.fixture(scope="class")
    def shares(self):
        return count_bootstrap_operations(FIG1_PARAMS).shares()

    def test_fft_share_near_88_percent(self, shares):
        assert shares["ifft_fft"] == pytest.approx(0.88, abs=0.03)

    def test_key_switch_share_near_2_percent(self, shares):
        assert shares["key_switch"] == pytest.approx(0.019, abs=0.01)

    def test_other_below_1_percent(self, shares):
        assert shares["other"] < 0.01

    def test_shares_sum_to_one(self, shares):
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_blind_rotation_dominates(self):
        ops = count_bootstrap_operations(FIG1_PARAMS)
        assert ops.blind_rotation_ops / ops.total > 0.95


class TestFig1Memory:
    def test_bsk_dominates(self):
        mem = bootstrap_memory(FIG1_PARAMS)
        assert mem.bsk_bytes > mem.ksk_bytes > mem.acc_bytes

    def test_ksk_near_paper(self):
        # paper: 33.8 MB
        mem = bootstrap_memory(FIG1_PARAMS)
        assert mem.ksk_bytes / 1e6 == pytest.approx(33.8, rel=0.08)

    def test_bsk_packed_size(self):
        # paper reports 101.4 MB for an expanded layout; our packed
        # 32+32-bit transform image is 70.9 MB (documented substitution).
        mem = bootstrap_memory(FIG1_PARAMS)
        assert mem.bsk_bytes / 1e6 == pytest.approx(70.9, rel=0.02)

    def test_total_includes_everything(self):
        mem = bootstrap_memory(FIG1_PARAMS)
        assert mem.total_bytes > mem.bsk_bytes + mem.ksk_bytes


class TestIntensity:
    def test_blind_rotation_is_compute_bound(self):
        """Section III: BR has the highest ops/byte; KS is memory-bound."""
        intensity = bootstrap_intensity(FIG1_PARAMS)
        assert intensity.compute_bound_stage() == "blind_rotation"
        assert intensity.blind_rotation > 10 * intensity.key_switch

    @pytest.mark.parametrize("pset", ["I", "II", "III", "IV", "B", "C"])
    def test_holds_across_parameter_sets(self, pset):
        intensity = bootstrap_intensity(get_params(pset))
        assert intensity.compute_bound_stage() == "blind_rotation"
