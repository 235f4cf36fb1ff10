"""Tests for the Morphling configuration object."""

import pytest

from repro.core.accelerator import MorphlingConfig
from repro.core.reuse import ReuseType


class TestDefaults:
    def test_paper_configuration(self):
        cfg = MorphlingConfig()
        assert cfg.num_xpus == 4
        assert cfg.vpe_rows == cfg.vpe_cols == 4
        assert cfg.bootstrap_cores == 16
        assert cfg.total_transform_units == 24  # the paper's "24 I/FFTs"
        assert cfg.vpu_lanes == 128
        assert cfg.clock_ghz == pytest.approx(1.2)

    def test_channel_split(self):
        cfg = MorphlingConfig()
        assert cfg.xpu_bandwidth_gbs == pytest.approx(310 * 2 / 8)
        assert cfg.vpu_bandwidth_gbs == pytest.approx(310 * 6 / 8)

    def test_named_variants(self):
        assert MorphlingConfig.no_reuse().reuse is ReuseType.NO_REUSE
        assert MorphlingConfig.input_reuse().reuse is ReuseType.INPUT_REUSE
        assert MorphlingConfig.morphling().reuse is ReuseType.INPUT_OUTPUT_REUSE
        assert not MorphlingConfig.no_reuse().merge_split


class TestValidation:
    def test_rejects_zero_xpus(self):
        with pytest.raises(ValueError):
            MorphlingConfig(num_xpus=0)

    def test_rejects_bad_rotator(self):
        with pytest.raises(ValueError):
            MorphlingConfig(rotator="barrel")

    def test_rejects_channel_oversubscription(self):
        with pytest.raises(ValueError):
            MorphlingConfig(xpu_hbm_channels=5, vpu_hbm_channels=5)

    def test_rejects_nonpositive_clock(self):
        with pytest.raises(ValueError):
            MorphlingConfig(clock_ghz=0)

    def test_rejects_empty_array(self):
        with pytest.raises(ValueError):
            MorphlingConfig(vpe_rows=0)

    @pytest.mark.parametrize("field", ["vpu_lane_groups", "vpu_lanes_per_group"])
    def test_rejects_empty_vpu(self, field):
        # Used to pass construction and die in the HW-scheduler with a
        # bare ZeroDivisionError (while the occupancy model clamped to 1).
        with pytest.raises(ValueError):
            MorphlingConfig(**{field: 0})


class TestOverrides:
    def test_with_overrides_copies(self):
        cfg = MorphlingConfig()
        bigger = cfg.with_overrides(num_xpus=8)
        assert bigger.num_xpus == 8
        assert cfg.num_xpus == 4
        assert bigger.vpe_rows == cfg.vpe_rows

    def test_overrides_are_validated(self):
        with pytest.raises(ValueError):
            MorphlingConfig().with_overrides(num_xpus=-1)
