"""Process-wide metrics registry: counters, gauges and histograms.

The registry is the accounting half of :mod:`repro.observability`.  Hot
paths (the blind-rotation loop, the FFT engines, the HBM model) register
their metrics once at import time and then update them through a single
``enabled`` check, so the instrumented code costs one attribute read and
one branch per site when telemetry is off.

Design points:

- *labels*: every update may carry keyword labels (``direction="forward"``)
  producing one time series per label set, Prometheus style;
- *thread safety*: each metric guards its series map with a lock; reads
  (:meth:`MetricsRegistry.snapshot`) take the same locks, so snapshots
  are consistent per metric;
- *zero overhead when disabled*: ``update -> if not registry.enabled:
  return`` is the whole disabled path (verified by
  ``benchmarks/bench_observability_overhead.py``);
- *snapshot/reset*: :meth:`MetricsRegistry.snapshot` returns plain dicts
  ready for the JSON/Prometheus exporters; :meth:`MetricsRegistry.reset`
  zeroes values but keeps registrations.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple, Type

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "TIME_BUCKETS",
]

#: Default histogram buckets: powers of four covering transform sizes
#: (tens) through simulated byte volumes (billions).
DEFAULT_BUCKETS = tuple(float(4**e) for e in range(1, 16))

#: Log-spaced *seconds* ladder for time-valued histograms: half-decade
#: steps from 1 microsecond to 1000 seconds.  The powers-of-four
#: :data:`DEFAULT_BUCKETS` ladder starts at 4 (seconds!), so every
#: latency used to collapse into its first bucket; time-valued call
#: sites must pass this ladder instead.
TIME_BUCKETS = tuple(
    round(10.0 ** (e / 2.0), 12) for e in range(-12, 7)
)


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Canonical hashable key for a label set."""
    return tuple(sorted(labels.items()))


class _Metric:
    """Shared machinery: name, help text, per-label-set series."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = ""):
        self.registry = registry
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[tuple, Any] = {}

    # -- subclass hooks -------------------------------------------------
    def _zero(self) -> Any:
        return 0.0

    def _series_snapshot(self, value: Any) -> dict:
        return {"value": value}

    # -- shared API -----------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self._series.clear()

    def snapshot(self) -> dict:
        """Plain-dict view: ``{"type", "help", "values": [...]}``."""
        with self._lock:
            values = [
                dict(labels=dict(key), **self._series_snapshot(value))
                for key, value in sorted(self._series.items())
            ]
        return {"type": self.kind, "help": self.help, "values": values}

    def value(self, **labels: Any) -> Any:
        """Current value for one label set (None if never updated)."""
        with self._lock:
            return self._series.get(_label_key(labels))


class Counter(_Metric):
    """Monotonically increasing count (events, bytes, operations)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount


class Gauge(_Metric):
    """Point-in-time value (group size, residency, occupancy)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)


class Histogram(_Metric):
    """Distribution with cumulative buckets (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(registry, name, help)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")

    def _series_snapshot(self, value: Any) -> dict:
        count, total, per_bucket = value
        cumulative = {}
        running = 0
        for bound, n in zip(self.buckets, per_bucket):
            running += n
            cumulative[bound] = running
        return {"count": count, "sum": total, "buckets": cumulative}

    def observe(self, value: float, count: int = 1, **labels: Any) -> None:
        """Record ``count`` observations of ``value`` (batch-friendly)."""
        if not self.registry.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [0, 0.0, [0] * len(self.buckets)]
                self._series[key] = series
            series[0] += count
            series[1] += value * count
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series[2][i] += count
                    break


class MetricsRegistry:
    """Named collection of metrics with one shared on/off switch.

    Registration is idempotent: asking for an existing name returns the
    existing metric (so module-level registration and tests compose), but
    re-registering under a different type raises.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # -- registration ---------------------------------------------------
    def _register(self, cls: Type[_Metric], name: str, help: str,
                  **kwargs: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(self, name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, buckets=buckets)

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every metric's series; registrations survive."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    # -- reads ----------------------------------------------------------
    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """Point-in-time view of every metric, exporter-ready."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.snapshot() for name, metric in metrics}
