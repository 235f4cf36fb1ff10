"""Tests for the full-accelerator performance simulator.

The headline regression: Table V latencies and throughputs for sets I-IV
must come out within a few percent of the paper.
"""

import pytest

from repro.core.accelerator import MorphlingConfig
from repro.core.simulator import MorphlingSimulator, simulate_bootstrap
from repro.params import get_params

PAPER_TABLE_V = {
    "I": (0.11, 147615),
    "II": (0.20, 78692),
    "III": (0.38, 41850),
    "IV": (0.16, 98933),
}


class TestTableVRegression:
    @pytest.mark.parametrize("pset", sorted(PAPER_TABLE_V))
    def test_latency_matches_paper(self, pset):
        paper_latency_ms, _ = PAPER_TABLE_V[pset]
        r = simulate_bootstrap(MorphlingConfig(), get_params(pset))
        assert r.bootstrap_latency_ms == pytest.approx(paper_latency_ms, rel=0.08)

    @pytest.mark.parametrize("pset", sorted(PAPER_TABLE_V))
    def test_throughput_matches_paper(self, pset):
        _, paper_thr = PAPER_TABLE_V[pset]
        r = simulate_bootstrap(MorphlingConfig(), get_params(pset))
        assert r.throughput_bs == pytest.approx(paper_thr, rel=0.08)

    @pytest.mark.parametrize("pset", sorted(PAPER_TABLE_V))
    def test_default_build_is_compute_bound(self, pset):
        r = simulate_bootstrap(MorphlingConfig(), get_params(pset))
        assert r.bottleneck == "xpu_compute"


class TestLatencyFractions:
    @pytest.mark.parametrize("pset", ["I", "II", "III"])
    def test_xpu_dominates(self, pset):
        """Fig. 7-a: XPU accounts for 88-93% (ours 87-92%)."""
        r = simulate_bootstrap(MorphlingConfig(), get_params(pset))
        assert r.latency_fractions()["xpu_blind_rotation"] > 0.85

    def test_set_iv_is_the_weakest_xpu_share(self):
        """Set IV (l_b = 1) has the cheapest blind rotation, so key
        switching takes its largest share there; MS stays negligible."""
        fr = simulate_bootstrap(MorphlingConfig(), get_params("IV")).latency_fractions()
        assert fr["xpu_blind_rotation"] > 0.70
        assert fr["vpu_key_switch"] > 20 * fr["vpu_modulus_switch"]

    def test_fractions_sum_to_one(self):
        fr = simulate_bootstrap(MorphlingConfig(), get_params("I")).latency_fractions()
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_key_switch_is_biggest_vpu_stage(self):
        fr = simulate_bootstrap(MorphlingConfig(), get_params("I")).latency_fractions()
        assert fr["vpu_key_switch"] > fr["vpu_modulus_switch"]
        assert fr["vpu_key_switch"] > fr["vpu_sample_extract"]

    @pytest.mark.parametrize("clock_ghz", [0.6, 1.0, 2.4])
    def test_fractions_clock_invariant(self, clock_ghz):
        """Regression: the VPU terms used to be divided by a hard-coded
        1 GHz clock while the XPU term carried real seconds at
        ``clock_ghz``, skewing the shares at any non-1 GHz clock.  Both
        sides are pure cycle ratios, so the fractions must not move with
        the clock at all."""
        p = get_params("I")
        base = simulate_bootstrap(MorphlingConfig(clock_ghz=1.0), p)
        scaled = simulate_bootstrap(MorphlingConfig(clock_ghz=clock_ghz), p)
        for key, value in base.latency_fractions().items():
            assert scaled.latency_fractions()[key] == pytest.approx(value)

    def test_fractions_match_cycle_arithmetic_at_default_clock(self):
        """Cross-check against first principles at the 1.2 GHz default."""
        r = simulate_bootstrap(MorphlingConfig(), get_params("I"))
        clock_hz = r.clock_ghz * 1e9
        xpu_cycles = r.xpu_busy_s * clock_hz
        vpu = r.vpu_stages
        total = xpu_cycles + r.group_size * vpu.total
        fr = r.latency_fractions()
        assert fr["xpu_blind_rotation"] == pytest.approx(xpu_cycles / total)
        assert fr["vpu_key_switch"] == pytest.approx(
            r.group_size * vpu.key_switch / total
        )


class TestResourceSensitivity:
    def test_halved_a1_becomes_bandwidth_bound(self):
        """Fig. 8-a: below the 4 MB knee, set III goes BSK-bandwidth-bound."""
        cfg = MorphlingConfig(private_a1_bytes=2 * 1024 * 1024)
        r = simulate_bootstrap(cfg, get_params("III"))
        assert r.bottleneck == "bsk_bandwidth"
        full = simulate_bootstrap(MorphlingConfig(), get_params("III"))
        assert r.throughput_bs < full.throughput_bs

    def test_tiny_a1_still_degrades(self):
        cfg = MorphlingConfig(private_a1_bytes=512 * 1024)
        r = simulate_bootstrap(cfg, get_params("III"))
        full = simulate_bootstrap(MorphlingConfig(), get_params("III"))
        assert r.throughput_bs < full.throughput_bs

    def test_throughput_monotone_in_a1(self):
        thr = [
            simulate_bootstrap(
                MorphlingConfig(private_a1_bytes=mb * 1024 * 1024), get_params("III")
            ).throughput_bs
            for mb in (1, 2, 4, 8)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(thr, thr[1:]))

    def test_xpu_scaling_linear_to_four(self):
        p = get_params("III")
        thr = {
            n: simulate_bootstrap(MorphlingConfig(num_xpus=n), p).throughput_bs
            for n in (1, 2, 4)
        }
        assert thr[2] == pytest.approx(2 * thr[1], rel=0.05)
        assert thr[4] == pytest.approx(4 * thr[1], rel=0.05)

    def test_xpu_scaling_degrades_past_four(self):
        """Fig. 8-b: with fixed A1/bandwidth, the fifth XPU *hurts* (set III):
        residency drops to one stream and BSK bandwidth becomes the limit."""
        p = get_params("III")
        four = simulate_bootstrap(MorphlingConfig(num_xpus=4), p)
        five = simulate_bootstrap(MorphlingConfig(num_xpus=5), p)
        assert five.throughput_bs < four.throughput_bs
        assert five.bottleneck == "bsk_bandwidth"

    def test_more_bandwidth_unlocks_more_xpus(self):
        p = get_params("I")
        base = MorphlingConfig(num_xpus=8, private_a1_bytes=8 * 1024 * 1024)
        fat = base.with_overrides(hbm_bandwidth_gbs=620.0)
        assert (
            simulate_bootstrap(fat, p).throughput_bs
            >= simulate_bootstrap(base, p).throughput_bs
        )

    def test_vpu_channels_keep_key_switch_off_the_critical_path(self):
        """Section IV-C: six of the eight channels feed the KSK; handing
        them to the XPU would starve key switching."""
        p = get_params("I")
        r = simulate_bootstrap(MorphlingConfig(), p)
        assert r.ksk_transfer_s < r.xpu_busy_s
        starved = MorphlingConfig(xpu_hbm_channels=7, vpu_hbm_channels=1)
        assert simulate_bootstrap(starved, p).ksk_transfer_s > 3 * r.ksk_transfer_s

    def test_zero_capacity_stall_degrades_not_crashes(self):
        cfg = MorphlingConfig(private_a1_bytes=64 * 1024)
        r = simulate_bootstrap(cfg, get_params("III"))
        assert r.acc_streams == 1
        assert r.throughput_bs > 0


class TestReportContents:
    def test_reuse_factors_default(self):
        r = simulate_bootstrap(MorphlingConfig(), get_params("I"))
        assert r.bsk_reuse == 64
        assert r.ksk_reuse == r.group_size == 64

    def test_traffic_positive(self):
        r = simulate_bootstrap(MorphlingConfig(), get_params("I"))
        assert r.traffic.bsk_bytes > 0
        assert r.traffic.total_bytes > r.traffic.bsk_bytes

    def test_simulator_class_matches_wrapper(self):
        cfg, p = MorphlingConfig(), get_params("II")
        a = MorphlingSimulator(cfg, p).run()
        b = simulate_bootstrap(cfg, p)
        assert a.throughput_bs == b.throughput_bs
