"""Tests for the metrics registry: counters, gauges, histograms, labels."""

import math
import threading

import pytest

from repro.observability.registry import TIME_BUCKETS, MetricsRegistry


@pytest.fixture()
def reg():
    return MetricsRegistry(enabled=True)


class TestCounter:
    def test_inc_and_value(self, reg):
        c = reg.counter("events_total", "help text")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labels_make_separate_series(self, reg):
        c = reg.counter("ops_total")
        c.inc(direction="forward")
        c.inc(3, direction="inverse")
        assert c.value(direction="forward") == 1
        assert c.value(direction="inverse") == 3
        assert c.value(direction="sideways") is None

    def test_negative_increment_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.counter("mono_total").inc(-1)

    def test_disabled_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("off_total")
        c.inc(100)
        assert c.value() is None

    def test_reenabling_resumes(self):
        reg = MetricsRegistry()
        c = reg.counter("toggle_total")
        c.inc()
        reg.enable()
        c.inc()
        assert c.value() == 1


class TestGauge:
    def test_set_inc_dec(self, reg):
        g = reg.gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12

    def test_labelled(self, reg):
        g = reg.gauge("occupancy")
        g.set(0.5, stage="fft")
        assert g.value(stage="fft") == 0.5


class TestHistogram:
    def test_observe_and_snapshot(self, reg):
        h = reg.histogram("sizes", buckets=(10, 100, 1000))
        h.observe(5)
        h.observe(50, count=3)
        h.observe(5000)
        snap = h.snapshot()
        (series,) = snap["values"]
        assert series["count"] == 5
        assert series["sum"] == 5 + 150 + 5000
        # cumulative buckets; the 5000 observation overflows every bound
        assert series["buckets"] == {10.0: 1, 100.0: 4, 1000.0: 4}

    def test_batch_observation_weights_count(self, reg):
        h = reg.histogram("batched", buckets=(8,))
        h.observe(4, count=10)
        (series,) = h.snapshot()["values"]
        assert series["count"] == 10
        assert series["sum"] == 40

    def test_empty_buckets_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.histogram("broken", buckets=())


class TestRegistry:
    def test_registration_is_idempotent(self, reg):
        a = reg.counter("same_total")
        b = reg.counter("same_total")
        assert a is b

    def test_type_conflict_rejected(self, reg):
        reg.counter("name_clash")
        with pytest.raises(ValueError):
            reg.gauge("name_clash")

    def test_snapshot_shape(self, reg):
        reg.counter("a_total", "first").inc(2, kind="x")
        reg.gauge("b").set(7)
        snap = reg.snapshot()
        assert snap["a_total"]["type"] == "counter"
        assert snap["a_total"]["help"] == "first"
        assert snap["a_total"]["values"] == [
            {"labels": {"kind": "x"}, "value": 2.0}
        ]
        assert snap["b"]["values"] == [{"labels": {}, "value": 7.0}]

    def test_reset_zeroes_but_keeps_registrations(self, reg):
        c = reg.counter("kept_total")
        c.inc(9)
        reg.reset()
        assert c.value() is None
        assert "kept_total" in reg.names()

    def test_concurrent_increments_are_not_lost(self, reg):
        c = reg.counter("race_total")

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 8000


class TestTimeBuckets:
    def test_time_buckets_ladder_spans_microseconds_to_kiloseconds(self):
        assert TIME_BUCKETS[0] == pytest.approx(1e-6)
        assert TIME_BUCKETS[-1] == pytest.approx(1e3)
        ratios = [b / a for a, b in zip(TIME_BUCKETS, TIME_BUCKETS[1:])]
        # Log-spaced: every step is the same half-decade multiplier
        # (bounds are rounded to 12 decimals, so compare loosely).
        assert all(r == pytest.approx(math.sqrt(10.0), rel=1e-3) for r in ratios)

    def test_tracer_spans_feed_time_bucket_histogram(self):
        from repro import observability as obs

        obs.REGISTRY.enable()
        obs.TRACER.enable()
        try:
            with obs.TRACER.span("time_bucket_test_span", category="test"):
                pass
            snap = obs.REGISTRY.snapshot()["tracer_span_seconds"]
            series = [v for v in snap["values"]
                      if v["labels"].get("category") == "test"]
            assert series and series[0]["count"] >= 1
            assert tuple(series[0]["buckets"]) == TIME_BUCKETS
        finally:
            obs.disable()
            obs.REGISTRY.reset()
            obs.TRACER.reset()

    @pytest.mark.parametrize("module, name", [
        ("repro.tfhe.bootstrap", "tfhe_bootstrap_latency_seconds"),
        ("repro.core.simulator", "sim_bootstrap_latency_seconds"),
        ("repro.core.scheduler", "sched_request_latency_seconds"),
    ])
    def test_latency_metrics_are_time_bucket_histograms(self, module, name):
        import importlib

        from repro import observability as obs

        importlib.import_module(module)
        metric = obs.REGISTRY.get(name)
        assert metric.kind == "histogram"
        assert metric.buckets == TIME_BUCKETS
