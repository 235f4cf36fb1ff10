"""Shared deterministic scenario behind the bus golden test.

The golden file pins the JSONL event schema: any change to field order,
field names, or serialization is a schema change and must come with an
``EVENT_SCHEMA_VERSION`` bump and a regenerated golden (see
``regenerate()`` below).  The scenario publishes one event of every kind
on a bus with an injected deterministic clock, so reruns are
byte-identical.
"""

import itertools
import os

from repro.observability.bus import JsonlEventLog, TelemetryBus

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_JSONL = os.path.join(GOLDEN_DIR, "events.jsonl")


def fake_clock():
    """Deterministic clock: 0.0, 0.5, 1.0, ... seconds per call."""
    counter = itertools.count()
    return lambda: next(counter) * 0.5


def make_bus():
    return TelemetryBus(enabled=True, clock=fake_clock())


def run_scenario(bus):
    """Publish one event of every kind, with representative fields."""
    bus.publish("metric", "tfhe_bootstraps_total", value=1.0,
                metric="counter", labels={"stage": "br"})
    bus.publish("span", "programmable_bootstrap", value=12.5,
                ts_us=0.0, dur_us=12.5, category="tfhe", track="main",
                args={"batch": 2})
    bus.publish("counter", "xpu/stage/rotation", value=256.0, unit="cycles")
    bus.publish("sample", "buffer/shared", value=0.75, t_sim_s=1e-05)
    bus.publish("stage", "blind_rotate", track="machine/stages")
    bus.publish("noise", "programmable_bootstrap", value=-12.3,
                op_id=7, label="s0", predicted_std_log2=-12.3,
                measured=0.00021, sigma=1.4)
    bus.publish("failure_point", "bootstrap_decision", value=0.125,
                op_id=7, variance=1e-06, label="s0")
    bus.publish("batch", "machine/bootstrap_batch", value=48.0, capacity=64)
    bus.publish("snapshot", "sim/report", value=1250000.0,
                bottleneck="bsk_bandwidth", group_size=64)
    bus.publish("workload", "XG-Boost", value=2510.0, layers=3,
                linear_macs=21600)
    bus.publish("request", "sched/request", value=0.0042, count=64,
                group=0, config="morphling", params="III")


def regenerate():
    """Rewrite the golden file (run after an intentional schema bump)."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    bus = make_bus()
    with JsonlEventLog(GOLDEN_JSONL, bus=bus):
        run_scenario(bus)


if __name__ == "__main__":
    regenerate()
    print(f"regenerated {GOLDEN_JSONL}")
