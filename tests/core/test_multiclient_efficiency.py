"""Tests for multi-client scheduling and the derived efficiency metrics."""

import numpy as np
import pytest

from repro.core.accelerator import MorphlingConfig
from repro.core.area_power import AreaPowerModel
from repro.core.isa import DmaOp, XpuOp
from repro.core.scheduler import HwScheduler, LayerDemand, SwScheduler
from repro.core.simulator import simulate_bootstrap
from repro.params import get_params


@pytest.fixture()
def sched():
    return SwScheduler(MorphlingConfig(), get_params("I"))


@pytest.fixture()
def hw():
    return HwScheduler(MorphlingConfig(), get_params("I"))


class TestMultiClientScheduling:
    def test_clients_never_share_groups(self, sched):
        stream = sched.schedule_clients({
            "alice": [LayerDemand("a", 32)],
            "bob": [LayerDemand("b", 32)],
        })
        cols = stream.columns()
        groups_by_br = {}
        for row in np.flatnonzero(cols.code == XpuOp.BLIND_ROTATE.code).tolist():
            groups_by_br.setdefault(int(cols.group[row]), int(cols.count[row]))
        # Two separate half-filled groups, not one merged full group.
        assert len(groups_by_br) == 2
        assert all(count == 32 for count in groups_by_br.values())

    def test_single_client_matches_plain_schedule(self, sched, hw):
        plain = sched.schedule([LayerDemand("a", 128)])
        multi = sched.schedule_clients({"only": [LayerDemand("a", 128)]})
        assert hw.execute(multi).total_seconds == pytest.approx(
            hw.execute(plain).total_seconds
        )

    def test_multi_tenancy_costs_key_traffic(self, sched):
        """Two clients double the evaluation-key loads for the same PBS count."""
        one = sched.schedule([LayerDemand("a", 64)])
        two = sched.schedule_clients({
            "alice": [LayerDemand("a", 32)],
            "bob": [LayerDemand("b", 32)],
        })
        bsk_loads = lambda s: int((s.columns().code == DmaOp.LOAD_BSK.code).sum())
        assert bsk_loads(two) == 2 * bsk_loads(one)

    def test_multi_tenancy_padding_slows_execution(self, sched, hw):
        # 40 + 40 ciphertexts need 3 + 3 = 6 bootstrap waves split across
        # clients, vs 5 waves when one client owns all 80.
        one = hw.execute(sched.schedule([LayerDemand("a", 80)]))
        two = hw.execute(sched.schedule_clients({
            "alice": [LayerDemand("a", 40)],
            "bob": [LayerDemand("b", 40)],
        }))
        assert two.total_seconds > one.total_seconds
        assert two.padding_waste > one.padding_waste

    def test_dependencies_stay_within_client(self, sched):
        stream = sched.schedule_clients({
            "alice": [LayerDemand("a1", 16), LayerDemand("a2", 16)],
            "bob": [LayerDemand("b1", 16)],
        })
        cols = stream.columns()
        assert (cols.deps < cols.owner).all()  # a DAG in emission order
        bob = cols.group >= 2  # alice's two layers take groups 0 and 1
        assert (bob[cols.deps] == bob[cols.owner]).all()

    def test_empty_clients_rejected(self, sched):
        with pytest.raises(ValueError):
            sched.schedule_clients({})


class TestEfficiencyMetrics:
    def test_energy_per_bootstrap(self):
        model = AreaPowerModel(MorphlingConfig())
        sim = simulate_bootstrap(MorphlingConfig(), get_params("I"))
        mj = model.energy_per_bootstrap_mj(sim.throughput_bs)
        # 53 W at ~147.5k BS/s -> ~0.36 mJ; beats Strix's 1.03 mJ.
        assert mj == pytest.approx(0.36, abs=0.03)
        assert mj < 1.03

    def test_throughput_density_beats_strix(self):
        model = AreaPowerModel(MorphlingConfig())
        sim = simulate_bootstrap(MorphlingConfig(), get_params("I"))
        density = model.throughput_per_mm2(sim.throughput_bs)
        assert density > 74696 / 141.37  # Strix's published density

    def test_validation(self):
        model = AreaPowerModel(MorphlingConfig())
        with pytest.raises(ValueError):
            model.energy_per_bootstrap_mj(0)
        with pytest.raises(ValueError):
            model.throughput_per_mm2(-1)
