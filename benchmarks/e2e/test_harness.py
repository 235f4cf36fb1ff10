"""Self-tests of the benchmark harness (not part of tier-1).

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HARNESS = Path(__file__).resolve().parent
ROOT = HARNESS.parents[1]
sys.path[:0] = [str(HARNESS), str(ROOT / "src")]

import compare  # noqa: E402
import pbs  # noqa: E402
import simapps  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_harness(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def last_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# BENCHMARK.json against the driver's contract
# ---------------------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # The driver makes 4 + 22 x workloads runs in 3420 s; seconds of set-up
    # and start-up per run as measured on the 2-CPU box, rounded up.
    overhead_s = {"pbs-setI-b8": 18, "pbs-setI-b1": 15, "pbs-toy-b16": 3, "sim-apps": 6}
    assert sum(23 * (SPEC["run_seconds"] + overhead_s[w["name"]])
               for w in SPEC["workloads"]) < 3420


# ---------------------------------------------------------------------------
# One command per workload emits every declared metric
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_toy_run_emits_every_declared_metric(trace, key, tmp_path):
    out = tmp_path / "runs.jsonl"
    start = time.perf_counter()
    proc = run_harness("--workload", "pbs-toy-b16", "--seed", "5", "--seconds", "1",
                       "--trace", trace, "--out", str(out))
    assert time.perf_counter() - start < 10
    result = last_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {n: e["unit"] for n, e in result["metrics"].items()} == declared
    assert all(np.isfinite(e["value"]) for e in result["metrics"].values())
    document = json.loads(out.read_text())
    assert document["workload"] == "pbs-toy-b16" and document["info"]["backend"] == "numpy"
    assert document["info"]["fingerprint"]["nproc"] >= 1
    if trace == "0":
        assert all(e["value"] > 0 for e in result["metrics"].values())
    else:
        metrics = result["metrics"]
        assert document["info"]["traced_identical"] and not document["info"]["probe_errors"]
        # The workload stresses the layers it was chosen for and no others.
        assert metrics["transforms.fft_fwd_ms"]["value"] > 0
        assert metrics["bootstrap.blind_rotate_share"]["value"] > 90
        assert metrics["core.sw_schedule_ms"]["value"] == 0


def test_sim_apps_traced_run_bypasses_the_substrate():
    result = last_line(run_harness("--workload", "sim-apps", "--seed", "5",
                                   "--seconds", "1", "--trace", "1"))
    metrics = result["metrics"]
    assert result["correct"] and set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["core.sw_schedule_ms"]["value"] > 0
    assert metrics["verify.program_ms"]["value"] > 0
    assert all(e["value"] == 0 for n, e in metrics.items()
               if n.split(".")[0] in ("keys", "bootstrap", "transforms", "ggsw", "backends"))


def test_harness_error_exits_nonzero_without_a_result(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark's paths."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HARNESS, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_harness("--workload", "pbs-toy-b16", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# Inputs come from the seed; outputs are really checked
# ---------------------------------------------------------------------------
def prepared_toy_run(seed: int) -> pbs.PbsRun:
    run = pbs.PbsRun("pbs-toy-b16", seed)
    run.setups = 1
    run.prepare(0.0)
    return run


def test_input_digest_follows_the_seed():
    assert prepared_toy_run(7).input_digest == prepared_toy_run(7).input_digest
    assert prepared_toy_run(7).input_digest != prepared_toy_run(8).input_digest
    assert simapps.SimRun("sim-apps", 7).input_digest == simapps.SimRun("sim-apps", 7).input_digest
    assert simapps.SimRun("sim-apps", 7).input_digest != simapps.SimRun("sim-apps", 8).input_digest


def test_wrong_lut_fails_every_output():
    run = prepared_toy_run(3)
    msgs, cts = pbs.make_inputs(run.keyset, 16, run.rng)
    outputs = pbs.programmable_bootstrap_batch(cts, run.test_poly, run.keyset)
    failed, errors = pbs.check_outputs(msgs, outputs, run.keyset.lwe_key, pbs.LUT)
    assert failed == 0 and errors.size == 16 and np.abs(errors).max() < 2.0 ** -8
    wrong = (pbs.LUT + 1) % 4
    assert pbs.check_outputs(msgs, outputs, run.keyset.lwe_key, wrong)[0] == 16
    assert pbs.check_outputs(msgs, None, run.keyset.lwe_key, pbs.LUT)[0] == 16


def test_sim_digest_ignores_the_sweep_order():
    config = simapps.MorphlingConfig.morphling()
    params = simapps.get_params(simapps.APP_SET)
    apps = simapps.build_apps()
    ops_a, stats_a = simapps.sweep(config, params, apps, [0, 1, 2, 3, 4])
    ops_b, stats_b = simapps.sweep(config, params, apps, [4, 2, 0, 3, 1])
    assert ops_a == ops_b > 0
    assert simapps.sim_digest(stats_a) == simapps.sim_digest(stats_b)
    assert simapps.sweep_ok(stats_b, simapps.sim_digest(stats_a))
    assert 0 < simapps.sim_err_pct(stats_a) < 25
    stats_b["VGG-9"] = (float("inf"),) + stats_b["VGG-9"][1:]
    assert not simapps.sweep_ok(stats_b, simapps.sim_digest(stats_a))


# ---------------------------------------------------------------------------
# compare.py verdicts on hand-made pairs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("a,b,better,expected", [
    ([100, 101, 99, 100], [100, 102, 98, 101], "lower", "same"),
    ([100, 101, 99, 100], [125, 126, 124, 125], "lower", "worse"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "lower", "better"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "higher", "worse"),
    ([100, 140, 70, 100], [105, 60, 150, 104], "lower", "unresolved"),
    ([100, 140, 70, 100], [30, 35, 25, 32], "lower", "better"),
    ([100], [104], "lower", "same"),
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, bound=0.10) == expected


def fake_run(workload: str, value: float, **info) -> dict:
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    return {"workload": workload, "trace": 0, "correct": True, "failed": 0,
            "metrics": metrics, "info": info}


def test_compare_flags_and_exit_code(capsys):
    a = [fake_run("sim-apps", v, sim_digest="x") for v in (100, 101, 99)]
    same = [fake_run("sim-apps", v, sim_digest="x") for v in (100, 102, 98)]
    assert compare.compare(a, same, SPEC) == 0
    assert "FLAG" not in capsys.readouterr().out
    moved = [fake_run("sim-apps", v, sim_digest="y") for v in (100, 102, 98)]
    assert compare.compare(a, moved, SPEC) == 0
    assert "FLAG sim-apps: sim_digest differs" in capsys.readouterr().out
    slower = [fake_run("sim-apps", v, sim_digest="x") for v in (200, 202, 198)]
    assert compare.compare(a, slower, SPEC) == 1
    failing = [dict(run, failed=1) for run in same]
    assert compare.compare(a, failing, SPEC) == 1
