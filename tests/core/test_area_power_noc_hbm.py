"""Tests for the area/power, NoC, and HBM models."""

import pytest

from repro.core.accelerator import MorphlingConfig
from repro.core.area_power import TABLE_IV_PAPER, AreaPowerModel, ComponentCost
from repro.core.hbm import HbmModel
from repro.core.noc import NocModel
from repro.core.xpu import XpuModel
from repro.params import get_params


class TestComponentCost:
    def test_arithmetic(self):
        c = ComponentCost(1.0, 2.0)
        assert (2 * c).area_mm2 == 2.0
        assert (c + c).power_w == 4.0


class TestTableIVRegression:
    @pytest.fixture()
    def model(self):
        return AreaPowerModel(MorphlingConfig())

    def test_total_area_matches_paper(self, model):
        assert model.total().area_mm2 == pytest.approx(
            TABLE_IV_PAPER["total"].area_mm2, rel=0.01
        )

    def test_total_power_matches_paper(self, model):
        assert model.total().power_w == pytest.approx(
            TABLE_IV_PAPER["total"].power_w, rel=0.01
        )

    def test_xpu_block_matches_paper(self, model):
        assert model.xpu_cost().area_mm2 == pytest.approx(
            TABLE_IV_PAPER["xpu"].area_mm2, rel=0.01
        )

    @pytest.mark.parametrize(
        "row,paper_area",
        [("VPU", 0.22), ("NoC", 0.21), ("HBM2e PHY", 14.90),
         ("Private-A1 Buffer (4 MB)", 8.31), ("Shared Buffer (1 MB)", 2.02)],
    )
    def test_breakdown_rows(self, model, row, paper_area):
        assert model.breakdown()[row].area_mm2 == pytest.approx(paper_area, rel=0.01)

    def test_area_scales_with_xpus(self):
        small = AreaPowerModel(MorphlingConfig(num_xpus=2)).total().area_mm2
        big = AreaPowerModel(MorphlingConfig(num_xpus=8)).total().area_mm2
        assert big > small

    def test_doubling_xpus_adds_four_blocks_and_their_noc_ports(self, model):
        grown = AreaPowerModel(MorphlingConfig(num_xpus=8)).total().area_mm2
        expected = 4 * model.xpu_cost().area_mm2 + model.noc_cost().area_mm2
        assert grown - model.total().area_mm2 == pytest.approx(expected, abs=1e-9)

    def test_area_scales_with_buffers(self):
        mib = 1024 * 1024
        small = AreaPowerModel(MorphlingConfig(private_a1_bytes=2 * mib)).total()
        big = AreaPowerModel(MorphlingConfig(private_a1_bytes=8 * mib)).total()
        assert big.area_mm2 > small.area_mm2
        assert big.power_w > small.power_w


class TestNoc:
    def test_expected_links(self):
        noc = NocModel(MorphlingConfig())
        names = {l.name for l in noc.links}
        assert "private_a2_to_xpu" in names
        assert noc.link("private_a2_to_xpu").topology == "multicast"
        assert not noc.link("private_a2_to_xpu").bidirectional

    def test_unknown_link_rejected(self):
        with pytest.raises(KeyError):
            NocModel(MorphlingConfig()).link("nope")

    def test_flows_fit_noc_budget(self):
        """The paper: the NoC supports 4.8 TB/s chip-wide."""
        cfg = MorphlingConfig()
        for pset in ["I", "II", "III", "IV"]:
            p = get_params(pset)
            iteration = XpuModel(cfg, p).iteration_cycles()
            util = NocModel(cfg).total_utilization(p, iteration)
            assert 0 < util < 1.0, pset

    def test_invalid_iteration_rejected(self):
        with pytest.raises(ValueError):
            NocModel(MorphlingConfig()).steady_state_flows_gbs(get_params("I"), 0)


class TestHbm:
    def test_reuse_divides_bsk_traffic(self):
        hbm = HbmModel(MorphlingConfig())
        p = get_params("I")
        t1 = hbm.per_bootstrap_traffic(p, bsk_reuse=1, ksk_reuse=64)
        t64 = hbm.per_bootstrap_traffic(p, bsk_reuse=64, ksk_reuse=64)
        assert t1.bsk_bytes == pytest.approx(64 * t64.bsk_bytes)

    def test_rejects_bad_reuse(self):
        hbm = HbmModel(MorphlingConfig())
        with pytest.raises(ValueError):
            hbm.per_bootstrap_traffic(get_params("I"), 0, 1)

    def test_channel_split_respected(self):
        hbm = HbmModel(MorphlingConfig())
        gb = 1e9
        assert hbm.xpu_transfer_seconds(77.5 * gb) == pytest.approx(1.0)
        assert hbm.vpu_transfer_seconds(232.5 * gb) == pytest.approx(1.0)

    def test_sustainable_rate_monotone_in_reuse(self):
        hbm = HbmModel(MorphlingConfig())
        p = get_params("I")
        r4 = hbm.sustainable_bootstrap_rate(p, 4, 64)
        r16 = hbm.sustainable_bootstrap_rate(p, 16, 64)
        r64 = hbm.sustainable_bootstrap_rate(p, 64, 64)
        assert r64 > r16
        assert r64 > 15 * r4  # near-linear in the BSK reuse factor

    def test_default_memory_feeds_compute(self):
        """With full reuse the memory system outruns the XPUs (set I)."""
        cfg = MorphlingConfig()
        hbm = HbmModel(cfg)
        rate = hbm.sustainable_bootstrap_rate(get_params("I"), 64, 64)
        assert rate > 147_000
