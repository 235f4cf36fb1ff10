"""The bottleneck profile's counter sections and their Chrome counter tracks.

``collect_profile`` derives every per-stage, per-channel, per-link and
per-buffer figure from the XPU / VPU / HBM / NoC / buffer models; these
tests hold those figures to the models and to the simulator report, and
``profile_trace_events`` to the ``ph: "C"`` track shape Perfetto draws.
"""

import pytest

from repro.core.accelerator import MorphlingConfig
from repro.observability import profile_trace_events
from repro.observability.profile import collect_profile
from repro.params import get_params


class TestSimulatorCounters:
    def test_simulator_populates_every_counter_kind(self):
        cfg = MorphlingConfig()
        profile = collect_profile(cfg, get_params("I"), what_ifs=False)
        assert profile.xpu_stage_cycles["rotation"] > 0
        assert profile.vpu_stage_cycles["key_switch"] > 0
        for ch in range(cfg.xpu_hbm_channels + cfg.vpu_hbm_channels):
            assert profile.hbm_channel_bytes[f"hbm/channel/{ch}"] > 0
        assert profile.noc_hops["private_a1_to_xpu"] > 0
        assert profile.rotator_ops["rotator/rotations"] > 0
        assert profile.buffer_watermarks["shared"] > 0
        # The bottleneck stage paces the pipeline: its occupancy approaches
        # 1.0 (the per-iteration overhead cycles keep it just below).
        assert 0.9 < max(profile.xpu_occupancy.values()) <= 1.0
        assert profile.simulation.group_size >= 1

    def test_two_identical_runs_identical_snapshots(self):
        profiles = [collect_profile(MorphlingConfig(), get_params("III"), what_ifs=False)
                    for _ in range(2)]
        assert profiles[0] == profiles[1]

    def test_xpu_byte_counters_match_traffic_model(self):
        cfg = MorphlingConfig()
        profile = collect_profile(cfg, get_params("I"), what_ifs=False)
        report = profile.simulation
        xpu_total = sum(
            profile.hbm_channel_bytes[f"hbm/channel/{ch}"]
            for ch in range(cfg.xpu_hbm_channels)
        )
        expected = report.traffic.xpu_bytes * report.group_size
        assert xpu_total == pytest.approx(expected, rel=1e-9)


class TestCounterTrackEvents:
    def test_sample_and_event_shapes(self):
        profile = collect_profile(MorphlingConfig(), get_params("I"), what_ifs=False)
        events = profile_trace_events(profile)
        assert {e["ph"] for e in events} == {"C"}
        names = [e["name"] for e in events]
        assert names == sorted(names)
        shared = [e for e in events if e["name"] == "buffer/shared"]
        # One sample at the group's start and one at its end, in microseconds.
        assert [e["ts"] for e in shared] == [
            0.0, pytest.approx(profile.simulation.group_time_s * 1e6)]
        assert {e["args"]["value"] for e in shared} == {profile.buffer_watermarks["shared"]}
        assert len(events) == 2 * (len(profile.buffer_watermarks)
                                   + len(profile.hbm_channel_utilization)
                                   + len(profile.xpu_occupancy))
