"""The ``sim-apps`` workload: host time of the simulator half of the repo.

One request is a sweep: the five Table VI applications through
``run_workload(..., verify=True)`` on set III (SW-scheduler -> program
verifier -> HW-scheduler), then ``simulate_bootstrap`` on sets I-IV.  The
TFHE substrate does no work here, so a substrate change predicts no
movement, and a simulator speed-up must leave ``sim_digest`` identical.
Simulated time and host time are different things: ``ops_per_s`` and
``request_min_ms`` are host time, ``accuracy_bits`` is about simulated
time.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.apps import deepcnn_workload, vgg9_workload, xgboost_workload
from repro.core import MorphlingConfig, run_workload, simulate_bootstrap
from repro.params import get_params

from common import Probes, Spans, Workload, closed_loop, digest, pred_shares, time_calls

APP_SET = "III"
BOOTSTRAP_SETS = ("I", "II", "III", "IV")
SETUPS = 3

#: The paper's published Morphling column: seconds per application
#: (Table VI) and single-bootstrap latency in seconds (Table V).  Kept
#: here, not imported, so the yardstick cannot move with the code it
#: measures.
PAPER_APP_SECONDS = {
    "XG-Boost": 0.06, "DeepCNN-20": 0.34, "DeepCNN-50": 0.84,
    "DeepCNN-100": 1.72, "VGG-9": 0.675,
}
PAPER_LATENCY_SECONDS = {"I": 0.11e-3, "II": 0.20e-3, "III": 0.38e-3, "IV": 0.16e-3}

#: Metric-name suffix of each application's simulated seconds.
APP_KEYS = {
    "XG-Boost": "xgboost", "DeepCNN-20": "deepcnn20", "DeepCNN-50": "deepcnn50",
    "DeepCNN-100": "deepcnn100", "VGG-9": "vgg9",
}

#: Sweep orders generated per run; a run cycles through them.
ORDERS = 64


def build_apps() -> list:
    return [xgboost_workload(), deepcnn_workload(20), deepcnn_workload(50),
            deepcnn_workload(100), vgg9_workload()]


def sweep(config, params, apps: Sequence, order: Sequence[int]) -> Tuple[int, Dict[str, tuple]]:
    """One request.  Returns the instructions simulated and every
    simulated statistic, keyed by application or parameter-set name."""
    stats: Dict[str, tuple] = {}
    instructions = 0
    for index in order:
        app = apps[index]
        result = run_workload(config, params, list(app.layers), verify=True)
        instructions += result.instructions
        stats[app.name] = (
            result.total_seconds, result.instructions, result.groups,
            result.padding_waste, sorted(result.engine_busy_seconds.items()),
        )
    for name in BOOTSTRAP_SETS:
        report = simulate_bootstrap(config, get_params(name))
        stats[f"set-{name}"] = (
            report.bootstrap_latency_s, report.throughput_bs, report.bottleneck,
            report.group_size, sorted(report.latency_fractions().items()),
        )
    return instructions, stats


def sim_digest(stats: Dict[str, tuple]) -> str:
    """Order-independent digest of every simulated statistic of a sweep."""
    return digest(sorted(stats.items()))


def sim_err_pct(stats: Dict[str, tuple]) -> float:
    """Mean absolute error of simulated seconds against the paper, in %."""
    errors = [abs(stats[app][0] / want - 1.0) for app, want in PAPER_APP_SECONDS.items()]
    errors += [abs(stats[f"set-{s}"][0] / want - 1.0)
               for s, want in PAPER_LATENCY_SECONDS.items()]
    return float(np.mean(errors)) * 100.0


def sweep_ok(stats: Dict[str, tuple], want_digest: str) -> bool:
    """Finite positive makespans, and nothing simulated differently from
    the warm-up sweep: the simulator is deterministic."""
    return (
        all(math.isfinite(stats[app][0]) and stats[app][0] > 0 for app in PAPER_APP_SECONDS)
        and sim_digest(stats) == want_digest
    )


class SimRun(Workload):
    def __init__(self, _name: str, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.orders = [rng.permutation(5).tolist() for _ in range(ORDERS)]
        self.input_digest = digest(self.orders)
        self.requests = self.failed_requests = 0
        self.call_errors: List[str] = []

    def prepare(self, import_s: float) -> None:
        """Descriptors plus one warm-up sweep, ``SETUPS`` times; the fastest."""
        runs = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            self.config = MorphlingConfig.morphling()
            self.params = get_params(APP_SET)
            self.apps = build_apps()
            self.ops_per_request, self.reference = sweep(
                self.config, self.params, self.apps, range(5))
            runs.append(time.perf_counter() - start)
        self.setup_s = import_s + min(runs)
        self.reference_digest = sim_digest(self.reference)

    def request(self, index: int) -> float:
        order = self.orders[index % ORDERS]
        stats = None
        start = time.perf_counter()
        try:
            _, stats = sweep(self.config, self.params, self.apps, order)
        except Exception as exc:  # boundary: a failed sweep is failed operations
            self.call_errors.append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        self.requests += 1
        if stats is None or not sweep_ok(stats, self.reference_digest):
            self.failed_requests += 1
        return elapsed

    def outcome(self) -> Tuple[int, int]:
        return (self.requests * self.ops_per_request,
                self.failed_requests * self.ops_per_request)

    def accuracy_bits(self) -> float:
        """``-log2`` of the mean relative error of simulated seconds
        against the paper: bits of agreement with the published numbers."""
        return -math.log2(sim_err_pct(self.reference) / 100.0)

    def info(self) -> dict:
        return {
            "param_set": APP_SET,
            "input_digest": self.input_digest,
            "sim_digest": self.reference_digest,
            "sim_err_pct": sim_err_pct(self.reference),
            "instructions_per_sweep": self.ops_per_request,
            "setups": SETUPS,
            "call_errors": self.call_errors[:5],
        }

    # ------------------------------------------------------------------
    def layer_probes(self, probes: Probes, spans: Spans, seconds: float) -> bool:
        self.traced_identical = True
        probes.run("layer_split", lambda: self._layer_split(spans, seconds))
        probes.run("simulate_bootstrap", self._simulate_bootstrap)
        values = probes.values
        values["core.instructions"] = float(self.ops_per_request)
        for app, key in APP_KEYS.items():
            values[f"core.sim_s.{key}"] = self.reference[app][0]
        return self.traced_identical

    def _layer_split(self, spans: Spans, seconds: float) -> Dict[str, float]:
        """Drive SW-scheduler and HW-scheduler under spans, app by app.

        The traced sweep does the work of ``run_workload(verify=True)``
        and must simulate the same makespans; the verifier's cost is the
        verified execution minus a replay of the same streams unverified.
        """
        from repro.core import HwScheduler, SwScheduler

        streams: Dict[str, object] = {}

        def request(index: int) -> float:
            with spans.span("request"):
                for app_index in self.orders[index % ORDERS]:
                    app = self.apps[app_index]
                    with spans.span("core.sw_schedule"):
                        stream = SwScheduler(self.config, self.params).schedule(list(app.layers))
                    with spans.span("core.hw_execute_verified"):
                        result = HwScheduler(self.config, self.params).execute(stream, verify=True)
                    streams[app.name] = stream
                    self.traced_identical &= result.total_seconds == self.reference[app.name][0]
                with spans.span("core.simulate_bootstrap"):
                    for name in BOOTSTRAP_SETS:
                        simulate_bootstrap(self.config, get_params(name))
            return 0.0

        closed_loop(request, seconds)

        def unverified() -> None:
            for stream in streams.values():
                HwScheduler(self.config, self.params).execute(stream, verify=False)

        hw_ms = time_calls(unverified, reps=5) * 1e3
        return {
            "core.sw_schedule_ms": spans.per_request_ms("core.sw_schedule"),
            "core.hw_execute_ms": hw_ms,
            "verify.program_ms": spans.per_request_ms("core.hw_execute_verified") - hw_ms,
        }

    def _simulate_bootstrap(self) -> Dict[str, float]:
        params = [get_params(name) for name in BOOTSTRAP_SETS]

        def call() -> None:
            for p in params:
                simulate_bootstrap(self.config, p)

        per_call_us = time_calls(call) / len(params) * 1e6
        report = simulate_bootstrap(self.config, self.params)
        return {"core.simulate_bootstrap_us": per_call_us, **pred_shares(report)}
