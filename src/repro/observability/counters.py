"""Hardware performance-counter subsystem.

Real accelerators expose a perf-counter block next to every engine: free
running cycle/byte/op counters plus a handful of sampled registers
(buffer fill levels, queue depths) that a debug bus reads out over time.
This module is that block for the Morphling models.  It complements the
:mod:`~repro.observability.registry` (aggregate, Prometheus-shaped
series) with the four value kinds a bottleneck profiler needs:

- **cycles** per resource (``xpu/stage/rotation``, ``vpu/stage/key_switch``):
  busy-cycle accumulators, the utilization numerators;
- **bytes** per channel (``hbm/channel/3``): traffic accumulators at
  single-HBM-channel granularity, the bandwidth numerators;
- **ops** per unit (``rotator/rotations``, ``noc/hops/xpu_to_shared``):
  event counts with no time dimension of their own;
- **samples**: ``(simulated time, value)`` pairs per track
  (``buffer/shared`` occupancy, per-stage pipeline occupancy), the
  time-resolved view; high-water marks are derived from these.

A fifth kind, **events**, records *ordered* discrete happenings on a
named track (``events_on(track)`` returns them in recording order).

Discipline is identical to the registry: one process-wide singleton
(:data:`COUNTERS`), off by default, every recording call is a single
``enabled`` read-and-branch when disabled, and nothing is allocated on
the disabled path (``benchmarks/bench_observability_overhead.py`` holds
the models to that with a ``tracemalloc`` guard).  Snapshots are plain
dicts with deterministically sorted keys; :meth:`PerfCounters.digest`
hashes the canonical JSON form, so two identical simulator runs produce
byte-identical digests - the property the benchmark-regression harness
keys on.
"""

from __future__ import annotations

import hashlib
import json
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["PerfCounters", "COUNTERS", "counting"]


class PerfCounters:
    """Bank of modelled hardware performance counters.

    All mutating methods are no-ops while ``enabled`` is False; reads
    work regardless.  Recording is thread-safe (one lock, coarse -
    counter updates are far off the contended path).
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._cycles: Dict[str, float] = {}
        self._bytes: Dict[str, float] = {}
        self._ops: Dict[str, float] = {}
        self._samples: Dict[str, List[Tuple[float, float]]] = {}
        self._events: List[Tuple[str, str]] = []

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Clear every recorded value (the enabled flag is untouched)."""
        with self._lock:
            self._cycles.clear()
            self._bytes.clear()
            self._ops.clear()
            self._samples.clear()
            self._events.clear()

    # -- recording ------------------------------------------------------
    def add_cycles(self, resource: str, cycles: float) -> None:
        """Accumulate busy cycles on ``resource``."""
        if not self.enabled:
            return
        if cycles < 0:
            raise ValueError(f"cycle counter {resource} cannot decrease")
        with self._lock:
            self._cycles[resource] = self._cycles.get(resource, 0.0) + cycles

    def add_bytes(self, channel: str, nbytes: float) -> None:
        """Accumulate bytes moved over ``channel``."""
        if not self.enabled:
            return
        if nbytes < 0:
            raise ValueError(f"byte counter {channel} cannot decrease")
        with self._lock:
            self._bytes[channel] = self._bytes.get(channel, 0.0) + nbytes

    def add_ops(self, name: str, count: float = 1.0) -> None:
        """Accumulate ``count`` operations on counter ``name``."""
        if not self.enabled:
            return
        if count < 0:
            raise ValueError(f"op counter {name} cannot decrease")
        with self._lock:
            self._ops[name] = self._ops.get(name, 0.0) + count

    def sample(self, track: str, t_s: float, value: float) -> None:
        """Record one time-resolved sample: ``value`` at simulated ``t_s``."""
        if not self.enabled:
            return
        with self._lock:
            self._samples.setdefault(track, []).append((float(t_s), float(value)))

    def event(self, track: str, name: str) -> None:
        """Record one ordered discrete event on ``track``."""
        if not self.enabled:
            return
        with self._lock:
            self._events.append((track, name))

    # -- reads ----------------------------------------------------------
    def cycles(self, resource: str) -> float:
        with self._lock:
            return self._cycles.get(resource, 0.0)

    def bytes_moved(self, channel: str) -> float:
        with self._lock:
            return self._bytes.get(channel, 0.0)

    def ops(self, name: str) -> float:
        with self._lock:
            return self._ops.get(name, 0.0)

    def samples_on(self, track: str) -> List[Tuple[float, float]]:
        """Copy of the ``(t_s, value)`` samples recorded on ``track``."""
        with self._lock:
            samples = self._samples.get(track)
            return list(samples) if samples else []

    def watermark(self, track: str) -> float:
        """High-water mark of a sampled track (0.0 if never sampled)."""
        with self._lock:
            samples = self._samples.get(track)
            return max((v for _, v in samples), default=0.0) if samples else 0.0

    def events_on(self, track: str) -> List[str]:
        """Event names recorded on ``track``, in recording order."""
        with self._lock:
            return [name for t, name in self._events if t == track]

    def tracks(self) -> List[str]:
        """Sorted names of every sampled track."""
        with self._lock:
            return sorted(self._samples)

    def snapshot(self) -> dict:
        """Deterministic plain-dict view of everything recorded.

        Keys are sorted; sample lists keep recording order (simulated
        time already orders them within a run); high-water marks are
        included per track so consumers need not recompute them.
        """
        with self._lock:
            return {
                "cycles": dict(sorted(self._cycles.items())),
                "bytes": dict(sorted(self._bytes.items())),
                "ops": dict(sorted(self._ops.items())),
                "samples": {
                    track: [[t, v] for t, v in values]
                    for track, values in sorted(self._samples.items())
                },
                "watermarks": {
                    track: max((v for _, v in values), default=0.0)
                    for track, values in sorted(self._samples.items())
                },
                "events": [[track, name] for track, name in self._events],
            }

    def digest(self) -> str:
        """SHA-256 of the canonical JSON snapshot (regression fingerprint)."""
        payload = json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        """Number of distinct counters/tracks holding data."""
        with self._lock:
            return (len(self._cycles) + len(self._bytes) + len(self._ops)
                    + len(self._samples) + (1 if self._events else 0))


#: Process-wide perf-counter bank (disabled until enabled explicitly or
#: via :func:`repro.observability.enable` / :func:`counting`).
COUNTERS = PerfCounters()


@contextmanager
def counting(clear: bool = True,
             counters: Optional[PerfCounters] = None) -> Iterator[PerfCounters]:
    """Enable just the perf counters for a ``with`` block.

    Unlike :func:`repro.observability.telemetry` this leaves the metrics
    registry and tracer alone - the profiler uses it to collect counter
    snapshots without paying for span buffers.  With ``clear`` (default)
    the bank is reset on entry so the block observes only itself.
    """
    bank = counters if counters is not None else COUNTERS
    prior = bank.enabled
    if clear:
        bank.reset()
    bank.enable()
    try:
        yield bank
    finally:
        bank.enabled = prior
