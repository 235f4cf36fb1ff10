"""Process-wide metrics registry: labelled counters of executed work.

The registry is the accounting half of :mod:`repro.observability`.  Hot
paths of the functional substrate (the bootstrap pipeline, the
negacyclic transform) register their counters once at import time and
then update them through a single ``enabled`` check, so the
instrumented code costs one attribute read and one branch per site when
telemetry is off.  The models (simulator, schedulers, HBM) publish
nothing here: their numbers are the reports they return.

Design points:

- *labels*: every update may carry keyword labels (``direction="forward"``)
  producing one time series per label set, Prometheus style;
- *thread safety*: each counter guards its series map with a lock; reads
  (:meth:`MetricsRegistry.snapshot`) take the same locks, so snapshots
  are consistent per counter;
- *zero overhead when disabled*: ``update -> if not registry.enabled:
  return`` is the whole disabled path (verified by
  ``benchmarks/bench_observability_overhead.py``);
- *snapshot/reset*: :meth:`MetricsRegistry.snapshot` returns plain dicts
  ready for the JSON/Prometheus exporters; :meth:`MetricsRegistry.reset`
  zeroes values but keeps registrations.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Counter", "MetricsRegistry"]


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Canonical hashable key for a label set."""
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing count of executed work, per label set."""

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = ""):
        self.registry = registry
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def reset(self) -> None:
        with self._lock:
            self._series.clear()

    def snapshot(self) -> dict:
        """Plain-dict view: ``{"type", "help", "values": [...]}``."""
        with self._lock:
            values = [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ]
        return {"type": "counter", "help": self.help, "values": values}

    def value(self, **labels: Any) -> Optional[float]:
        """Current value for one label set (None if never updated)."""
        with self._lock:
            return self._series.get(_label_key(labels))


class MetricsRegistry:
    """Named collection of counters with one shared on/off switch.

    Registration is idempotent: asking for an existing name returns the
    existing counter, so module-level registration and tests compose.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: Dict[str, Counter] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = Counter(self, name, help)
            return metric

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every counter's series; registrations survive."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    # -- reads ----------------------------------------------------------
    def get(self, name: str) -> Optional[Counter]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """Point-in-time view of every counter, exporter-ready."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.snapshot() for name, metric in metrics}
