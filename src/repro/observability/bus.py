"""Unified telemetry bus: one typed event stream for every subsystem.

The metrics registry, the span tracer, the perf-counter bank and the
noise tracker each keep their own buffer and their own export path,
which is fine for post-hoc analysis but gives no single stream of what
happened in order.  This module is that stream.

A :class:`TelemetryBus` carries :class:`TelemetryEvent` values - small
frozen records ``(seq, t_s, kind, name, value, fields)`` - from
*publishers* to *subscribers*:

- the four systems publish as a side effect of recording (a counter
  increment becomes a ``"metric"`` event, a span a ``"span"`` event, a
  perf-counter sample a ``"sample"`` event, a noise record a ``"noise"``
  event), so every instrumented site feeds the bus with **zero new call
  sites**;
- the hot paths publish a handful of direct events: batched bootstraps
  (``"batch"``), request latencies (``"request"``), simulator and
  scheduler result summaries (``"snapshot"``), machine stage boundaries
  (``"stage"``) and workload descriptors (``"workload"``);
- subscribers are plain callables, such as the :class:`JsonlEventLog`
  structured log writer.

Discipline matches the rest of the package: one process-wide singleton
(:data:`BUS`), off by default, and the disabled path is a single
``enabled`` read-and-branch with **zero allocation**
(``benchmarks/bench_observability_overhead.py`` proves it with a
``tracemalloc`` guard).  Publishing happens synchronously on the caller's
thread; subscriber lists are copy-on-write tuples so ``publish`` never
takes a lock around user code.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_KINDS",
    "TelemetryEvent",
    "TelemetryBus",
    "BUS",
    "JsonlEventLog",
    "event_to_jsonable",
    "read_jsonl_events",
]

#: Bump on any incompatible change to the JSONL event shape.  v3 dropped
#: the cross-process identity fields (``worker``, ``trace_id``,
#: ``span_id``, ``parent_id``) and the ``"heartbeat"`` / ``"anomaly"``
#: kinds that v2 had added.
EVENT_SCHEMA_VERSION = 3

#: The closed set of event kinds the bus carries.  Publishers may only
#: use these; consumers switch on them.
EVENT_KINDS = (
    "metric",         # registry counter/gauge/histogram update
    "span",           # tracer span (wall-clock or simulated time)
    "counter",        # perf-counter cycles/bytes/ops accumulation
    "sample",         # perf-counter time-resolved (t, value) sample
    "stage",          # ordered discrete event (machine/stages, ...)
    "noise",          # one noise-tracker provenance record
    "failure_point",  # one noise-tracker rounding-decision record
    "batch",          # one batched-bootstrap dispatch (size, precision)
    "snapshot",       # end-of-run summary (simulator/scheduler reports)
    "workload",       # workload descriptor announced before a run
    "request",        # one request-latency sample (value=s, count-weighted)
)


@dataclass(frozen=True)
class TelemetryEvent:
    """One typed event on the bus.

    ``t_s`` is seconds since the bus epoch (wall clock by default; tests
    inject a deterministic clock).  ``value`` is the event's one headline
    number when it has one (span duration, sample value, batch size);
    everything else rides in ``fields``.
    """

    seq: int
    t_s: float
    kind: str
    name: str
    value: Optional[float] = None
    fields: Dict[str, Any] = field(default_factory=dict)


def event_to_jsonable(event: TelemetryEvent) -> Dict[str, Any]:
    """Stable-field-order plain dict for one event.

    The order is part of the JSONL contract (golden-tested): ``v, seq,
    t_s, kind, name, value, fields`` - with ``fields`` keys sorted - so
    logs diff cleanly and line-level consumers can parse positionally.
    """
    from .export import to_jsonable

    return {
        "v": EVENT_SCHEMA_VERSION,
        "seq": event.seq,
        "t_s": event.t_s,
        "kind": event.kind,
        "name": event.name,
        "value": event.value,
        "fields": {k: to_jsonable(event.fields[k]) for k in sorted(event.fields)},
    }


Subscriber = Callable[[TelemetryEvent], None]


class TelemetryBus:
    """In-process pub/sub spine for telemetry events.

    All publishing methods are no-ops while ``enabled`` is False - the
    whole disabled path is one attribute read and branch, nothing is
    allocated.  Subscribers run synchronously on the publishing thread in
    subscription order; a subscriber must therefore be cheap and must
    never publish back into the bus.
    """

    def __init__(self, enabled: bool = False,
                 clock: Optional[Callable[[], float]] = None):
        self.enabled = enabled
        self._clock = clock if clock is not None else time.perf_counter
        self._epoch = self._clock()
        self._lock = threading.Lock()
        self._seq = 0
        self._subscribers: Tuple[Subscriber, ...] = ()

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Restart the sequence counter and the clock epoch.

        Subscribers stay attached (they are wiring, not data); each keeps
        its own buffer to clear.
        """
        with self._lock:
            self._seq = 0
            self._epoch = self._clock()

    # -- subscriptions ----------------------------------------------------
    def subscribe(self, fn: Subscriber) -> Subscriber:
        """Attach ``fn``; it receives every subsequent published event."""
        with self._lock:
            if fn not in self._subscribers:
                self._subscribers = self._subscribers + (fn,)
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        # Equality, not identity: a bound method (`log._on_event`) is a
        # fresh object on every attribute access, but compares equal.
        with self._lock:
            self._subscribers = tuple(s for s in self._subscribers if s != fn)

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    # -- clock ------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the bus epoch (the ``t_s`` of a new event)."""
        return self._clock() - self._epoch

    # -- publishing -------------------------------------------------------
    def publish(self, kind: str, name: str, value: Optional[float] = None,
                **fields: Any) -> Optional[TelemetryEvent]:
        """Publish one event; returns it, or None when the bus is off.

        ``kind`` must come from :data:`EVENT_KINDS`.  Keyword arguments
        become the event's ``fields``.
        """
        if not self.enabled:
            return None
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}; expected one "
                             f"of {', '.join(EVENT_KINDS)}")
        with self._lock:
            seq = self._seq
            self._seq += 1
        event = TelemetryEvent(
            seq=seq,
            t_s=self._clock() - self._epoch,
            kind=kind,
            name=name,
            value=None if value is None else float(value),
            fields=fields,
        )
        for subscriber in self._subscribers:
            subscriber(event)
        return event


#: Process-wide telemetry bus (disabled until enabled explicitly or via
#: :func:`repro.observability.enable`).
BUS = TelemetryBus()


class JsonlEventLog:
    """Bus subscriber writing one JSON line per event (schema-versioned).

    Every line is self-describing: it opens with ``"v"`` (the event
    schema version) and keeps the stable field order of
    :func:`event_to_jsonable`.  The first line is a header record
    (``"kind": "jsonl_header"``) naming the schema version once more so a
    consumer can reject a whole file cheaply.

    Use as a context manager around a run::

        with obs.telemetry(), JsonlEventLog("run.jsonl") as log:
            run_workload(...)
        # one line per event

    The log registers an ``atexit`` flush so an interpreter shutdown
    never strands buffered lines.  The hook is pid-guarded: a fork child
    inheriting this object will not flush the parent's file handle.
    """

    def __init__(self, target: Union[str, IO[str]], bus: Optional[TelemetryBus] = None):
        self._bus = bus if bus is not None else BUS
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w")
            self._owns_fh = True
        else:
            self._fh = target
            self._owns_fh = False
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._closed = False
        self.lines_written = 0
        header = {
            "v": EVENT_SCHEMA_VERSION,
            "kind": "jsonl_header",
            "producer": "repro.observability.bus",
        }
        self._fh.write(json.dumps(header, separators=(", ", ": ")) + "\n")
        self._bus.subscribe(self._on_event)
        atexit.register(self._atexit_flush)

    def _on_event(self, event: TelemetryEvent) -> None:
        line = json.dumps(event_to_jsonable(event), separators=(", ", ": "),
                          default=str)
        with self._lock:
            self._fh.write(line + "\n")
            self.lines_written += 1

    def flush(self) -> None:
        """Flush buffered lines to the underlying file."""
        with self._lock:
            if not self._closed:
                self._fh.flush()

    def _atexit_flush(self) -> None:
        if self._closed or os.getpid() != self._pid:
            return
        try:
            self.flush()
        except (OSError, ValueError):
            pass  # interpreter teardown; the file may already be gone

    def close(self) -> None:
        """Detach from the bus and flush/close the underlying file."""
        self._bus.unsubscribe(self._on_event)
        if self._closed:
            return
        with self._lock:
            self._closed = True
            self._fh.flush()
            if self._owns_fh:
                self._fh.close()
        try:
            atexit.unregister(self._atexit_flush)
        except Exception:
            pass

    def __enter__(self) -> "JsonlEventLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def read_jsonl_events(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL event log back into plain dicts (header skipped)."""
    events: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "jsonl_header":
                continue
            events.append(record)
    return events
