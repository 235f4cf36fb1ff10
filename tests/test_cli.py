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
                                      ["pool", "--telemetry", "d"], ["pool"]])
    def test_serving_telemetry_surface_is_gone(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("verb", ["metrics", "trace", "profile", "noise"])
    def test_observability_verbs_live_under_obs(self, verb):
        with pytest.raises(SystemExit):
            build_parser().parse_args([verb])
        assert build_parser().parse_args(["obs", verb]).verb == verb


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
        assert main(["obs", "trace", "--set", "II", "--iterations", "4"]) == 0
        out = capsys.readouterr().out
        assert "rotation" in out
        assert "steady state" in out

    def test_trace_reuse_override(self, capsys):
        assert main(["obs", "trace", "--reuse", "none", "--no-merge-split"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out

    def test_trace_chrome_export(self, capsys, tmp_path):
        path = tmp_path / "pipeline.json"
        assert main(["obs", "trace", "--iterations", "4", "--chrome", str(path)]) == 0
        assert "wrote Chrome trace" in capsys.readouterr().err
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
        assert main(["obs", "metrics", "--set", "I", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["param_set"], doc["batch"]) == ("I", 4)
        metrics = doc["metrics"]
        assert {metric["type"] for metric in metrics.values()} == {"counter"}
        values = {
            name: {tuple(sorted(v["labels"].items())): v["value"]
                   for v in metric["values"]}
            for name, metric in metrics.items()
        }
        assert values["tfhe_bootstraps_total"][()] == 4
        assert values["tfhe_key_switches_total"][()] == 4
        assert 0 < values["tfhe_blind_rotation_steps_total"][()] <= 4 * 500
        assert values["transforms_fft_total"][(("direction", "forward"),)] > 0
        assert not any(name.startswith(("sim_", "sched_", "hbm_")) for name in metrics)
        (span,) = doc["spans"]
        assert span["name"] == "programmable_bootstrap_batch"
        assert span["args"]["batch"] == 4


class TestProfileCommand:
    def test_text_report(self, capsys):
        assert main(["obs", "profile", "--set", "I"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out
        assert "xpu_compute" in out
        assert "what-if" in out
        assert "roofline" in out

    def test_named_config_variants(self, capsys):
        assert main(["obs", "profile", "--config", "no-reuse", "--set", "III",
                     "--no-what-if"]) == 0
        out = capsys.readouterr().out
        assert "no-reuse @ set III" in out
        assert "what-if" not in out

    def test_json_schema_versioned(self, capsys):
        from repro.observability import SCHEMA_VERSION

        assert main(["obs", "profile", "--set", "I", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["simulation"]["bottleneck"] == "xpu_compute"
        assert doc["utilization"]["xpu_compute"] == pytest.approx(1.0)
        assert "counters_digest" not in doc
        names = {wi["name"] for wi in doc["what_ifs"]}
        assert "xpu_hbm_2x" in names
        for wi in doc["what_ifs"]:
            assert wi["speedup"] == pytest.approx(
                wi["throughput_bs"] / wi["baseline_throughput_bs"]
            )

    def test_chrome_counter_tracks(self, capsys, tmp_path):
        path = tmp_path / "counters.json"
        assert main(["obs", "profile", "--set", "I", "--no-what-if",
                     "--chrome", str(path)]) == 0
        assert "wrote Chrome trace" in capsys.readouterr().err
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        tracks = {e["name"] for e in events if e["ph"] == "C"}
        assert "buffer/shared" in tracks
        assert any(t.startswith("xpu/occupancy/") for t in tracks)

    def test_counters_left_disabled_after_run(self):
        from repro import observability as obs

        assert main(["obs", "profile", "--set", "I", "--no-what-if"]) == 0
        assert not obs.is_enabled()


class TestMetricsCommand:
    def test_prometheus_text_default(self, capsys):
        assert main(["obs", "metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE tfhe_bootstraps_total counter" in out
        assert "tfhe_bootstraps_total 4" in out
        assert "# span programmable_bootstrap_batch" in out
        assert "_bucket" not in out

    def test_functional_fires_tfhe_counters(self, capsys):
        """The test set's one batch of 4: every step runs l_b (k + 1) = 6
        forward and k + 1 = 2 inverse transforms per sample it moves."""
        assert main(["obs", "metrics", "--set", "test"]) == 0
        out = capsys.readouterr().out
        steps = next(int(line.split()[1]) for line in out.splitlines()
                     if line.startswith("tfhe_blind_rotation_steps_total "))
        assert 0 < steps <= 4 * 16
        assert f'transforms_fft_total{{direction="forward"}} {6 * steps}' in out
        assert f'transforms_fft_total{{direction="inverse"}} {2 * steps}' in out

    def test_model_options_are_gone(self):
        for argv in (["--xpus", "2"], ["--a1-kib", "64"], ["--reuse", "none"],
                     ["--no-merge-split"], ["--functional"], ["--set", "fig1"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["obs", "metrics", *argv])

    def test_chrome_span_export(self, capsys, tmp_path):
        path = tmp_path / "spans.json"
        assert main(["obs", "metrics", "--chrome", str(path)]) == 0
        doc = json.loads(path.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "programmable_bootstrap_batch" in names
        assert doc["otherData"] == {"param_set": "test", "batch": 4}

    def test_telemetry_left_disabled_after_run(self):
        from repro import observability as obs

        assert main(["obs", "metrics"]) == 0
        assert not obs.is_enabled()


class TestNoiseCommand:
    def test_gates_workload_predicted_only(self, capsys):
        assert main(["obs", "noise", "--workload", "gates"]) == 0
        out = capsys.readouterr().out
        assert "noise telemetry" in out
        assert "programmable_bootstrap" in out
        assert "unmeasured" in out  # no debug key without --measure
        assert "within 2^-20 budget: yes" in out

    def test_adder_workload_measured(self, capsys):
        assert main(["obs", "noise", "--workload", "adder", "--measure"]) == 0
        out = capsys.readouterr().out
        assert "'carry': 1" in out  # 3 + 1 = 4 -> carry set
        assert "ok" in out and "DRIFT" not in out
        assert "log2(p_fail)" in out

    def test_fail_prob_only_skips_the_drift_table(self, capsys):
        assert main(["obs", "noise", "--workload", "gates", "--fail-prob"]) == 0
        out = capsys.readouterr().out
        assert "op class" not in out
        assert "decision points" in out

    def test_json_snapshot(self, capsys):
        assert main(["obs", "noise", "--workload", "gates", "--measure",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["functional_ok"] is True
        assert doc["noise"]["measured"] is True
        assert doc["noise"]["records"]
        assert all(d["within_envelope"] for d in doc["drift"])
        assert doc["failure"]["total_log2_prob"] <= -20.0
        assert doc["failure"]["within_budget"] is True

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_blown_budget_fails_in_both_modes(self, capsys, monkeypatch, json_flag):
        from repro.observability import failprob
        from repro.tfhe.noise import DEFAULT_LOG2_BUDGET

        blown = failprob.WorkloadFailureReport(
            points=(), total_log2_prob=DEFAULT_LOG2_BUDGET + 10.0,
        )
        monkeypatch.setattr(failprob, "estimate_failure_probability",
                            lambda tracker: blown)
        assert main(["obs", "noise", "--workload", "gates"] + json_flag) == 1
        out = capsys.readouterr().out
        if json_flag:
            doc = json.loads(out)
            assert doc["functional_ok"] is True
            assert doc["failure"]["within_budget"] is False
        else:
            assert "within 2^-20 budget: NO" in out

    def test_chrome_waterfall_export(self, capsys, tmp_path):
        path = tmp_path / "noise.json"
        assert main(["obs", "noise", "--workload", "gates", "--chrome",
                     str(path)]) == 0
        assert "wrote Chrome trace" in capsys.readouterr().err
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert any(e.get("cat") == "noise" and e["ph"] == "X" for e in events)
        assert any(e["ph"] in ("s", "f") for e in events)  # provenance flows

    def test_tracker_left_disabled_after_run(self):
        from repro import observability as obs

        assert main(["obs", "noise", "--workload", "gates"]) == 0
        assert not obs.NOISE.enabled
        assert not obs.NOISE.measuring


class TestWorkloadNoise:
    def test_noise_appends_failure_report(self, capsys):
        assert main(["workload", "xgboost", "--set", "I", "--noise"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "log2(p_fail)" in out
        assert "within 2^-20 budget: yes" in out

    def test_json_with_noise_carries_failure_block(self, capsys):
        assert main(["workload", "xgboost", "--set", "I", "--noise",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"] == "XG-Boost"
        assert doc["failure"]["within_budget"] is True
        assert doc["failure"]["bootstraps"] == doc["bootstraps"]
        assert doc["failure"]["total_log2_prob"] <= -20.0

    def test_set_three_breaches_the_budget_as_ver008_warns(self, capsys):
        from repro.verify.cli import shipped_targets, verify_target

        target = next(t for t in shipped_targets() if t.name == "xgboost@III")
        ver008 = verify_target(target, noise_budget=True).attachments["noise_budget"]
        assert main(["workload", "xgboost", "--set", "III", "--noise"]) == 1
        out = capsys.readouterr().out
        assert "within 2^-20 budget: NO" in out
        assert f"log2(p_fail) <= {ver008.total_log2_prob:.1f}" in out

    @pytest.mark.parametrize("param_set", ["I", "III", "IV"])
    @pytest.mark.parametrize("app", ["xgboost", "deepcnn-20", "vgg9"])
    def test_failure_block_is_the_ver008_report(self, capsys, app, param_set):
        from repro.apps import deepcnn_workload, vgg9_workload, xgboost_workload
        from repro.core.accelerator import MorphlingConfig
        from repro.core.scheduler import SwScheduler
        from repro.observability import json_document
        from repro.params import get_params
        from repro.verify.cli import report_document, shipped_targets, verify_target
        from repro.verify.noisepass import static_noise_report

        factory = {"xgboost": xgboost_workload, "vgg9": vgg9_workload,
                   "deepcnn-20": lambda: deepcnn_workload(20)}[app]
        params = get_params(param_set)
        stream = SwScheduler(MorphlingConfig(), params).schedule(
            list(factory().layers))
        main(["workload", app, "--set", param_set, "--noise", "--json"])
        failure = json.loads(capsys.readouterr().out)["failure"]
        assert failure == static_noise_report(stream, params).to_jsonable()
        shipped = {t.name: t for t in shipped_targets()}
        name = f"{app}@{param_set}"
        if name in shipped:  # the attachment ``repro verify --json`` ships
            doc = json_document(report_document(
                [verify_target(shipped[name], noise_budget=True)]))
            assert failure == doc["reports"][0]["noise_budget"]

    def test_json_without_noise_unchanged(self, capsys):
        assert main(["workload", "xgboost", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "failure" not in doc
        assert doc["speedup"] > 1


class TestProfileNoise:
    def test_noise_appends_failure_report(self, capsys):
        assert main(["obs", "profile", "--set", "I", "--no-what-if",
                     "--noise"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out
        assert "log2(p_fail)" in out

    def test_json_shape_with_noise(self, capsys):
        assert main(["obs", "profile", "--set", "I", "--no-what-if", "--noise",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"schema_version", "simulation", "failure"} <= set(doc)
        assert doc["schema_version"] >= 1
        assert "schema_version" not in doc["failure"]
        assert doc["failure"]["params"] == "I"

    def test_json_shape_without_noise_unchanged(self, capsys):
        assert main(["obs", "profile", "--set", "I", "--no-what-if", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "failure" not in doc  # profile fields stay at top level
        assert "schema_version" in doc


class TestTraceMerge:
    def test_merged_chrome_trace_has_process_groups(self, capsys, tmp_path):
        path = tmp_path / "merged.json"
        assert main(["obs", "trace", "--iterations", "3", "--chrome", str(path),
                     "--merge"]) == 0
        assert "wrote Chrome trace" in capsys.readouterr().err
        doc = json.loads(path.read_text())
        assert doc["otherData"]["merged"] is True
        events = doc["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e.get("name") == "process_name"}
        assert names == {"counters", "pipeline"}
        pids = {e["pid"] for e in events}
        assert len(pids) == 2  # one process group per section
