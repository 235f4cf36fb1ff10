"""Tests for the bottleneck-attribution profiler (repro.observability.profile)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.profile import collect_profile, what_if_catalog
from repro.core.accelerator import MorphlingConfig
from repro.core.simulator import simulate_bootstrap
from repro import observability as obs
from repro.observability import SCHEMA_VERSION, json_document, to_jsonable
from repro.params import get_params


@pytest.fixture(scope="module")
def profile():
    return collect_profile(MorphlingConfig(), get_params("I"))


class TestProfileShape:
    def test_schema_version_and_identity(self, profile):
        assert not hasattr(profile, "schema_version")  # the CLI envelope's
        assert profile.simulation.config_name == "morphling"
        assert profile.simulation.params_name == "I"
        assert profile.simulation.clock_ghz == pytest.approx(1.2)

    def test_bottleneck_utilization_is_one(self, profile):
        assert profile.utilization[profile.simulation.bottleneck] == pytest.approx(1.0)
        for resource, util in profile.utilization.items():
            assert 0.0 < util <= 1.0 + 1e-9, resource

    def test_counter_sections_populated(self, profile):
        assert set(profile.xpu_stage_cycles) >= {
            "rotation", "decomposition", "forward_fft",
            "vpe_stream", "inverse_fft", "bsk_stream",
        }
        assert set(profile.vpu_stage_cycles) == {
            "modulus_switch", "sample_extract", "key_switch",
        }
        cfg = MorphlingConfig()
        assert len(profile.hbm_channel_bytes) == (
            cfg.xpu_hbm_channels + cfg.vpu_hbm_channels
        )
        assert len(profile.hbm_channel_utilization) == len(profile.hbm_channel_bytes)
        assert set(profile.buffer_watermarks) == {
            "private_a1", "private_a2", "private_b", "shared",
        }
        assert profile.noc_hops["private_a1_to_xpu"] > 0
        assert profile.rotator_ops["rotator/rotations"] > 0

    def test_latency_fractions_sum_to_one(self, profile):
        assert sum(profile.latency_fractions.values()) == pytest.approx(1.0)

    def test_roofline_sections(self, profile):
        assert set(profile.roofline_balance) == {"xpu", "vpu"}
        names = {p.name for p in profile.roofline_points}
        assert names == {"blind_rotation", "key_switch"}

    def test_jsonable_and_renderable(self, profile):
        payload = to_jsonable(profile)
        text = json.dumps(json_document(payload), sort_keys=True)
        assert f'"schema_version": {SCHEMA_VERSION}' in text
        assert text.count("schema_version") == 1
        rendered = profile.render_text()
        assert "bottleneck" in rendered
        assert "what-if" in rendered

    def test_collect_does_not_leave_counters_enabled(self, profile):
        assert not obs.is_enabled()


class TestWhatIfs:
    def test_catalog_covers_key_resources(self):
        names = {name for name, _, _ in what_if_catalog(MorphlingConfig())}
        assert {"xpu_hbm_2x", "vpu_hbm_2x", "fft_units_2x",
                "vpu_macs_2x", "clock_1p5x", "a1_2x"} <= names

    def test_hbm_what_ifs_isolate_one_channel_group(self):
        cfg = MorphlingConfig()
        for name, _desc, ov in what_if_catalog(cfg):
            perturbed = cfg.with_overrides(**ov)
            if name == "xpu_hbm_2x":
                assert perturbed.xpu_bandwidth_gbs == pytest.approx(
                    2 * cfg.xpu_bandwidth_gbs
                )
                assert perturbed.vpu_bandwidth_gbs == pytest.approx(
                    cfg.vpu_bandwidth_gbs
                )
            if name == "vpu_hbm_2x":
                assert perturbed.vpu_bandwidth_gbs == pytest.approx(
                    2 * cfg.vpu_bandwidth_gbs
                )
                assert perturbed.xpu_bandwidth_gbs == pytest.approx(
                    cfg.xpu_bandwidth_gbs
                )

    @settings(max_examples=8, deadline=None)
    @given(
        config_name=st.sampled_from(["morphling", "no-reuse", "input-reuse"]),
        param_set=st.sampled_from(["I", "II", "III", "IV"]),
    )
    def test_what_if_speedups_match_actual_reruns(self, config_name, param_set):
        """The acceptance property: every reported what-if speedup equals
        actually re-running the simulator with the perturbed config."""
        factories = {
            "morphling": MorphlingConfig.morphling,
            "no-reuse": MorphlingConfig.no_reuse,
            "input-reuse": MorphlingConfig.input_reuse,
        }
        config = factories[config_name]()
        params = get_params(param_set)
        prof = collect_profile(config, params)
        baseline = simulate_bootstrap(config, params)
        assert prof.simulation.throughput_bs == pytest.approx(baseline.throughput_bs)
        for wi in prof.what_ifs:
            rerun = simulate_bootstrap(
                config.with_overrides(**wi.overrides), params
            )
            assert wi.throughput_bs == pytest.approx(rerun.throughput_bs)
            assert wi.speedup == pytest.approx(
                rerun.throughput_bs / baseline.throughput_bs
            )
            assert wi.bottleneck_after == rerun.bottleneck

    def test_no_what_if_flag(self):
        prof = collect_profile(
            MorphlingConfig(), get_params("I"), what_ifs=False
        )
        assert prof.what_ifs == []

    def test_what_ifs_do_not_contaminate_digest(self):
        with_wi = collect_profile(MorphlingConfig(), get_params("I"))
        without = collect_profile(
            MorphlingConfig(), get_params("I"), what_ifs=False
        )
        assert with_wi.simulation == without.simulation
        assert with_wi.xpu_stage_cycles == without.xpu_stage_cycles
        assert with_wi.hbm_channel_bytes == without.hbm_channel_bytes
