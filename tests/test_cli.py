"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.param_set == "I"
        assert args.xpus == 4

    def test_unknown_set_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--set", "Z"])

    @pytest.mark.parametrize("argv", [["top"], ["slo"], ["record"],
                                      ["replay", "f.json"], ["fleet", "d"],
                                      ["pool", "--telemetry", "d"]])
    def test_serving_telemetry_surface_is_gone(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_simulate(self, capsys):
        assert main(["simulate", "--set", "I"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "147," in out  # the Table V set I number

    def test_simulate_reuse_override(self, capsys):
        assert main(["simulate", "--set", "B", "--reuse", "none",
                     "--no-merge-split"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "Total" in out
        assert "74.6" in out

    def test_experiments_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out
        assert "fig8b" in out

    def test_experiments_single(self, capsys):
        assert main(["experiments", "--id", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "46,752" in out or "46752" in out

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "--id", "fig99"]) == 2

    def test_workload(self, capsys):
        assert main(["workload", "xgboost"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_demo(self, capsys):
        assert main(["demo", "--message", "1"]) == 0
        out = capsys.readouterr().out
        assert "decrypted 1" in out

    def test_demo_bad_message(self, capsys):
        assert main(["demo", "--message", "7"]) == 2


class TestTraceCommand:
    def test_trace_renders(self, capsys):
        assert main(["trace", "--set", "II", "--iterations", "4"]) == 0
        out = capsys.readouterr().out
        assert "rotation" in out
        assert "steady state" in out

    def test_trace_reuse_override(self, capsys):
        assert main(["trace", "--reuse", "none", "--no-merge-split"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out

    def test_trace_chrome_export(self, capsys, tmp_path):
        path = tmp_path / "pipeline.json"
        assert main(["trace", "--iterations", "4", "--chrome", str(path)]) == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 4 * 5  # iterations x pipeline stages
        assert all({"name", "ts", "dur", "pid", "tid"} <= set(e)
                   for e in complete)


class TestJsonReports:
    def test_simulate_json_uses_shared_serializer(self, capsys):
        assert main(["simulate", "--set", "I", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["group_size"] == 64
        assert report["bottleneck"] == "xpu_compute"
        assert report["traffic"]["bsk_bytes"] > 0

    def test_metrics_json_snapshot(self, capsys):
        assert main(["metrics", "--set", "I", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        metrics = doc["metrics"]
        values = {
            name: {tuple(sorted(v["labels"].items())): v["value"]
                   for v in metric["values"]}
            for name, metric in metrics.items()
            if metric["type"] == "counter"
        }
        assert values["sim_bootstraps_total"][()] == 64
        assert values["hbm_bytes_total"][(("channel", "xpu"),)] > 0
        assert values["sim_transforms_total"][(("direction", "forward"),)] > 0


class TestProfileCommand:
    def test_text_report(self, capsys):
        assert main(["profile", "--set", "I"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out
        assert "xpu_compute" in out
        assert "what-if" in out
        assert "counters digest" in out

    def test_named_config_variants(self, capsys):
        assert main(["profile", "--config", "no-reuse", "--set", "III",
                     "--no-what-if"]) == 0
        out = capsys.readouterr().out
        assert "no-reuse @ set III" in out
        assert "what-if" not in out

    def test_json_schema_versioned(self, capsys):
        assert main(["profile", "--set", "I", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert doc["bottleneck"] == "xpu_compute"
        assert doc["utilization"]["xpu_compute"] == pytest.approx(1.0)
        assert len(doc["counters_digest"]) == 64
        names = {wi["name"] for wi in doc["what_ifs"]}
        assert "xpu_hbm_2x" in names
        for wi in doc["what_ifs"]:
            assert wi["speedup"] == pytest.approx(
                wi["throughput_bs"] / wi["baseline_throughput_bs"]
            )

    def test_chrome_counter_tracks(self, capsys, tmp_path):
        path = tmp_path / "counters.json"
        assert main(["profile", "--set", "I", "--no-what-if",
                     "--chrome", str(path)]) == 0
        assert "wrote counter tracks" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        tracks = {e["name"] for e in events if e["ph"] == "C"}
        assert "buffer/shared" in tracks
        assert any(t.startswith("xpu/occupancy/") for t in tracks)

    def test_counters_left_disabled_after_run(self):
        from repro import observability as obs

        assert main(["profile", "--set", "I", "--no-what-if"]) == 0
        assert not obs.COUNTERS.enabled


class TestMetricsCommand:
    def test_prometheus_text_default(self, capsys):
        assert main(["metrics", "--set", "I"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE sim_bootstraps_total counter" in out
        assert "sim_bootstraps_total 64" in out
        assert 'hbm_bytes_total{channel="xpu"}' in out

    def test_functional_fires_tfhe_counters(self, capsys):
        assert main(["metrics", "--set", "I", "--functional"]) == 0
        out = capsys.readouterr().out
        assert "tfhe_bootstraps_total 1" in out
        assert 'transforms_fft_total{direction="forward"}' in out

    def test_chrome_span_export(self, capsys, tmp_path):
        path = tmp_path / "spans.json"
        assert main(["metrics", "--chrome", str(path)]) == 0
        doc = json.loads(path.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "xpu_compute" in names

    def test_telemetry_left_disabled_after_run(self):
        from repro import observability as obs

        assert main(["metrics", "--set", "I"]) == 0
        assert not obs.is_enabled()


class TestNoiseCommand:
    def test_gates_workload_predicted_only(self, capsys):
        assert main(["noise", "--workload", "gates"]) == 0
        out = capsys.readouterr().out
        assert "noise telemetry" in out
        assert "programmable_bootstrap" in out
        assert "unmeasured" in out  # no debug key without --measure
        assert "within 2^-20 budget: yes" in out

    def test_adder_workload_measured(self, capsys):
        assert main(["noise", "--workload", "adder", "--measure"]) == 0
        out = capsys.readouterr().out
        assert "'carry': 1" in out  # 3 + 1 = 4 -> carry set
        assert "ok" in out and "DRIFT" not in out
        assert "log2(p_fail)" in out

    def test_fail_prob_only_skips_the_drift_table(self, capsys):
        assert main(["noise", "--workload", "gates", "--fail-prob"]) == 0
        out = capsys.readouterr().out
        assert "op class" not in out
        assert "decision points" in out

    def test_json_snapshot(self, capsys):
        assert main(["noise", "--workload", "gates", "--measure",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["functional_ok"] is True
        assert doc["noise"]["measured"] is True
        assert doc["noise"]["records"]
        assert all(d["within_envelope"] for d in doc["drift"])
        assert doc["failure"]["total_log2_prob"] <= -20.0
        assert doc["within_budget"] is True

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_blown_budget_fails_in_both_modes(self, capsys, monkeypatch, json_flag):
        from repro.analysis import failprob

        blown = failprob.WorkloadFailureReport(
            schema_version=failprob.FAILPROB_SCHEMA_VERSION, points=(),
            total_log2_prob=failprob.DEFAULT_LOG2_BUDGET + 10.0,
        )
        monkeypatch.setattr(failprob, "estimate_failure_probability",
                            lambda tracker: blown)
        assert main(["noise", "--workload", "gates"] + json_flag) == 1
        out = capsys.readouterr().out
        if json_flag:
            doc = json.loads(out)
            assert doc["functional_ok"] is True
            assert doc["within_budget"] is False
        else:
            assert "within 2^-20 budget: NO" in out

    def test_chrome_waterfall_export(self, capsys, tmp_path):
        path = tmp_path / "noise.json"
        assert main(["noise", "--workload", "gates", "--chrome",
                     str(path)]) == 0
        assert "noise waterfall" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert any(e.get("cat") == "noise" and e["ph"] == "X" for e in events)
        assert any(e["ph"] in ("s", "f") for e in events)  # provenance flows

    def test_tracker_left_disabled_after_run(self):
        from repro import observability as obs

        assert main(["noise", "--workload", "gates"]) == 0
        assert not obs.NOISE.enabled
        assert not obs.NOISE.measuring


class TestWorkloadNoise:
    def test_noise_appends_failure_report(self, capsys):
        assert main(["workload", "xgboost", "--noise"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "log2(p_fail)" in out
        assert "within 2^-20 budget: yes" in out

    def test_json_with_noise_carries_failure_block(self, capsys):
        assert main(["workload", "xgboost", "--noise", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"] == "XG-Boost"
        assert doc["failure"]["within_budget"] is True
        assert doc["failure"]["bootstraps"] == doc["bootstraps"]
        assert doc["failure"]["total_log2_prob"] <= -20.0

    def test_json_without_noise_unchanged(self, capsys):
        assert main(["workload", "xgboost", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "failure" not in doc
        assert doc["speedup"] > 1


class TestProfileNoise:
    def test_noise_appends_failure_report(self, capsys):
        assert main(["profile", "--set", "I", "--no-what-if",
                     "--noise"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out
        assert "log2(p_fail)" in out

    def test_json_shape_with_noise(self, capsys):
        assert main(["profile", "--set", "I", "--no-what-if", "--noise",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"profile", "failure"}
        assert doc["profile"]["schema_version"] >= 1
        assert doc["failure"]["params"] == "I"

    def test_json_shape_without_noise_unchanged(self, capsys):
        assert main(["profile", "--set", "I", "--no-what-if", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "profile" not in doc  # profile fields stay at top level
        assert "schema_version" in doc


class TestTraceMerge:
    def test_merged_chrome_trace_has_process_groups(self, capsys, tmp_path):
        path = tmp_path / "merged.json"
        assert main(["trace", "--iterations", "3", "--chrome", str(path),
                     "--merge"]) == 0
        assert "merged Chrome trace" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["otherData"]["merged"] is True
        events = doc["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e.get("name") == "process_name"}
        assert names == {"counters", "pipeline"}
        pids = {e["pid"] for e in events}
        assert len(pids) == 2  # one process group per section


class TestPoolCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["pool"])
        assert args.param_set == "test"
        assert args.workers == "1,2,4"
        assert args.batch == 16
        assert args.backend is None

    def test_precision_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pool", "--precision", "single"])

    def test_pool_scaling_table(self, capsys):
        assert main(["pool", "--workers", "1,2", "--batch", "4",
                     "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "workers" in out
        assert "bootstraps/s" in out
        assert "single-process" in out

    def test_pool_json(self, capsys):
        assert main(["pool", "--workers", "1", "--batch", "4",
                     "--rounds", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["param_set"] == "test"
        assert doc["backend"] == "numpy"
        assert doc["batch"] == 4
        assert [e["workers"] for e in doc["entries"]] == [1]
        assert doc["entries"][0]["bootstraps_per_s"] > 0

    def test_pool_radix2_backend_stamped(self, capsys):
        assert main(["pool", "--workers", "1", "--batch", "4",
                     "--rounds", "1", "--backend", "radix2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["backend"] == "radix2"

    def test_pool_unknown_backend_exit_2(self, capsys):
        assert main(["pool", "--workers", "1", "--batch", "4",
                     "--backend", "warp-drive"]) == 2
        err = capsys.readouterr().err
        assert "warp-drive" in err
        assert "numpy" in err

    def test_pool_invalid_workers_exit_2(self, capsys):
        assert main(["pool", "--workers", "zero,none"]) == 2
        assert "workers" in capsys.readouterr().err
