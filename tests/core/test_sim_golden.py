"""The scheduler's and simulator's numbers are pinned bit-exactly
(``tests/core/golden/sim_apps.json``), and the cost table is per
instance."""

import json

from repro.core import HwScheduler, MorphlingConfig, SwScheduler
from repro.core.scheduler import LayerDemand
from repro.params import get_params

from ._sim_golden import GOLDEN_DOC, build_document


def test_table_vi_results_match_the_golden():
    with open(GOLDEN_DOC) as fh:
        golden = json.load(fh)
    document = build_document()
    assert sorted(document) == sorted(golden)
    for key, want in golden.items():
        assert document[key] == want, key


def test_cost_table_is_per_instance():
    """Schedulers alive at once price from their own (config, params):
    each long-lived instance agrees with a freshly built twin after the
    others have run, and a faster clock or smaller set prices lower."""
    layers = [LayerDemand("l0", bootstraps=100, linear_macs=4096)]
    base_cfg = MorphlingConfig.morphling()
    fast_cfg = MorphlingConfig.morphling(clock_ghz=2.4)
    design_points = [(base_cfg, get_params("III")), (fast_cfg, get_params("III")),
                     (base_cfg, get_params("I"))]
    schedulers = [HwScheduler(cfg, params) for cfg, params in design_points]
    streams = [SwScheduler(cfg, params).schedule(layers) for cfg, params in design_points]
    results = [s.execute(stream) for s, stream in zip(schedulers, streams)]
    for (cfg, params), stream, result in zip(design_points, streams, results):
        twin = HwScheduler(cfg, params).execute(stream)
        assert result.total_seconds == twin.total_seconds
        assert result.engine_busy_seconds == twin.engine_busy_seconds
    base, fast, small = results
    assert fast.engine_busy_seconds["xpu"] < base.engine_busy_seconds["xpu"]
    assert fast.engine_busy_seconds["dma_xpu"] == base.engine_busy_seconds["dma_xpu"]
    assert small.total_seconds < base.total_seconds
