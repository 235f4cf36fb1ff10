"""Tests for the span tracer and the Prometheus/JSON/Chrome exporters."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.accelerator import MorphlingConfig
from repro.core.trace import trace_blind_rotation
from repro.observability import (
    MetricsRegistry,
    Tracer,
    chrome_trace_events,
    pipeline_trace_events,
    render_prometheus,
    to_jsonable,
    traced,
    write_chrome_trace,
)
from repro.params import get_params


class TestTracer:
    def test_span_records_when_enabled(self):
        tr = Tracer(enabled=True)
        with tr.span("work", category="test", detail=42):
            pass
        (span,) = tr.spans()
        assert span.name == "work"
        assert span.category == "test"
        assert span.args == {"detail": 42}
        assert span.dur_us >= 0

    def test_span_noop_when_disabled(self):
        tr = Tracer(enabled=False)
        with tr.span("work"):
            pass
        assert len(tr) == 0

    def test_add_span_simulated_time(self):
        tr = Tracer(enabled=True)
        tr.add_span("xpu", ts_us=10.0, dur_us=5.0, track="sim/xpu")
        (span,) = tr.spans()
        assert span.ts_us == 10.0
        assert span.end_us == 15.0
        assert span.track == "sim/xpu"

    def test_reset_clears(self):
        tr = Tracer(enabled=True)
        tr.add_span("x", 0, 1)
        tr.reset()
        assert len(tr) == 0

    def test_traced_decorator(self):
        tr = Tracer(enabled=True)

        @traced(name="named", category="deco", tracer=tr)
        def fn(x):
            return x + 1

        assert fn(1) == 2
        (span,) = tr.spans()
        assert span.name == "named"

    def test_traced_decorator_disabled_passthrough(self):
        tr = Tracer(enabled=False)

        @traced(tracer=tr)
        def fn():
            return "ok"

        assert fn() == "ok"
        assert len(tr) == 0


class TestToJsonable:
    def test_dataclass_numpy_enum_roundtrip(self):
        from repro.core.reuse import ReuseType

        @dataclass
        class Inner:
            arr: object
            scalar: object

        payload = {
            "inner": Inner(np.arange(3), np.float64(1.5)),
            "reuse": ReuseType.NO_REUSE,
            ("tuple", "key"): [1, (2, 3)],
        }
        out = to_jsonable(payload)
        assert json.loads(json.dumps(out)) == {
            "inner": {"arr": [0, 1, 2], "scalar": 1.5},
            "reuse": "no-reuse",
            "('tuple', 'key')": [1, [2, 3]],
        }

    def test_simulation_report_serializes(self):
        from repro.core.simulator import simulate_bootstrap

        report = simulate_bootstrap(MorphlingConfig(), get_params("I"))
        out = to_jsonable(report)
        assert out["group_size"] == 64
        json.dumps(out)  # must be valid JSON types throughout


class TestPrometheus:
    def test_counter_exposition(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("c_total", "counts things").inc(3, kind="a")
        reg.counter("g_total").inc(1.5)
        text = render_prometheus(reg.snapshot())
        assert "# HELP c_total counts things" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{kind="a"} 3' in text
        assert "# HELP g_total" not in text
        assert "g_total 1.5" in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""


class TestChromeTrace:
    def test_tracer_spans_to_events(self):
        tr = Tracer(enabled=True)
        tr.add_span("a", 0, 10, track="t1")
        tr.add_span("b", 5, 2, track="t2", args={"k": 1})
        events = chrome_trace_events(tr.spans())
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in meta} == {"t1", "t2"}
        assert len(complete) == 2
        assert complete[1]["args"] == {"k": 1}
        # the two spans land on different tid rows
        assert complete[0]["tid"] != complete[1]["tid"]

    def test_pipeline_trace_events(self):
        trace = trace_blind_rotation(MorphlingConfig(), get_params("I"),
                                     iterations=3)
        events = pipeline_trace_events(trace)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3 * 5  # iterations x stages
        assert all(e["dur"] > 0 for e in complete)
        # microsecond timestamps: cycles / (GHz * 1e3)
        cfg = MorphlingConfig()
        first = min(complete, key=lambda e: e["ts"])
        assert first["ts"] == pytest.approx(0.0)
        assert max(e["ts"] + e["dur"] for e in complete) == pytest.approx(
            trace.total_cycles() / (cfg.clock_ghz * 1e3)
        )

    def test_write_chrome_trace_loads_as_json(self, tmp_path):
        tr = Tracer(enabled=True)
        tr.add_span("a", 0, 10)
        path = tmp_path / "trace.json"
        write_chrome_trace(path, chrome_trace_events(tr.spans()),
                           metadata={"run": "test"})
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["otherData"] == {"run": "test"}
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        for e in doc["traceEvents"]:
            assert {"ph", "pid", "tid"} <= set(e)
