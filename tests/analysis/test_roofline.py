"""Tests for the roofline analysis behind ``repro obs profile``."""

import pytest

from repro.observability.profile import attainable_rate, machine_balance, workload_points
from repro.core.accelerator import MorphlingConfig
from repro.params import get_params


class TestBalance:
    def test_xpu_balance_above_vpu(self):
        """The XPUs pack far more compute per byte of channel bandwidth."""
        balance = machine_balance(MorphlingConfig())
        assert balance["xpu"] > balance["vpu"]

    def test_balance_scales_with_bandwidth(self):
        thin = machine_balance(MorphlingConfig(hbm_bandwidth_gbs=155.0))
        fat = machine_balance(MorphlingConfig(hbm_bandwidth_gbs=620.0))
        assert thin["xpu"] == pytest.approx(4 * fat["xpu"])


class TestWorkloadPoints:
    def test_raw_key_switch_is_memory_bound(self):
        """Section III: KS without reuse is bandwidth work."""
        points = {p.name: p for p in workload_points(MorphlingConfig(), get_params("I"))}
        assert not points["key_switch"].compute_bound

    def test_reuse_moves_both_stages_compute_bound(self):
        """Section IV-C: the 64x reuse factors cross the balance points."""
        points = {
            p.name: p
            for p in workload_points(
                MorphlingConfig(), get_params("I"), bsk_reuse=64, ksk_reuse=64
            )
        }
        assert points["blind_rotation"].compute_bound
        assert points["key_switch"].compute_bound

    def test_intensity_scales_with_reuse(self):
        lo = workload_points(MorphlingConfig(), get_params("I"), bsk_reuse=1)[0]
        hi = workload_points(MorphlingConfig(), get_params("I"), bsk_reuse=64)[0]
        assert hi.ops_per_byte == pytest.approx(64 * lo.ops_per_byte)


class TestAttainableRate:
    def test_bandwidth_region_linear(self):
        cfg = MorphlingConfig()
        r1 = attainable_rate(cfg, 1.0)
        r2 = attainable_rate(cfg, 2.0)
        assert r2 == pytest.approx(2 * r1)

    def test_saturates_at_peak(self):
        cfg = MorphlingConfig()
        assert attainable_rate(cfg, 1e9) == attainable_rate(cfg, 1e12)

    def test_vpu_has_more_bandwidth_in_memory_region(self):
        # 6 of 8 channels go to the VPU, so at low intensity it attains more.
        cfg = MorphlingConfig()
        assert attainable_rate(cfg, 1.0, unit="vpu") > attainable_rate(cfg, 1.0, unit="xpu")

    def test_validation(self):
        with pytest.raises(ValueError):
            attainable_rate(MorphlingConfig(), -1.0)
        with pytest.raises(ValueError):
            attainable_rate(MorphlingConfig(), 1.0, unit="gpu")
