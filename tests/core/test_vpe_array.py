"""Tests for the systolic VPE-array mapping."""

from repro.core.accelerator import MorphlingConfig
from repro.core.vpe_array import map_external_product
from repro.params import get_params


class TestMapping:
    def test_k1_uses_level_split(self):
        mapping = map_external_product(MorphlingConfig(), get_params("I"))
        # k+1 = 2 < 4 columns, but (k+1)*l_b = 4 >= 4: spare columns split levels.
        assert mapping.cols_used == 4
        assert mapping.column_passes == 1

    def test_k3_fills_columns(self):
        mapping = map_external_product(MorphlingConfig(), get_params("C"))
        assert mapping.cols_used == 4
        assert mapping.column_passes == 1

    def test_wide_k_needs_multiple_passes(self):
        cfg = MorphlingConfig(vpe_cols=2)
        mapping = map_external_product(cfg, get_params("C"))  # k+1 = 4 > 2
        assert mapping.column_passes == 2

    def test_utilization_bounded(self):
        for pset in ["I", "B", "C"]:
            m = map_external_product(MorphlingConfig(), get_params(pset))
            assert 0 < m.utilization <= 1.0

