"""Span-based structured tracer.

The tracer is the timeline half of :mod:`repro.observability`: it records
named spans - ``(name, category, start, duration, track, args)`` - that
the exporters (:mod:`repro.observability.export`) turn into Chrome
trace-event JSON for Perfetto / ``chrome://tracing``.

Two clock domains coexist:

- *wall-clock spans* from :meth:`Tracer.span` (a context manager) or the
  :func:`traced` decorator, timed with ``time.perf_counter`` relative to
  the tracer's epoch - used around real work such as a functional
  bootstrap;
- *simulated-time spans* from :meth:`Tracer.add_span`, where the caller
  supplies start/duration in microseconds of modelled time - used by the
  performance simulator and the HW-scheduler, whose events never happen
  in wall time at all.

Both kinds land in the same buffer; the ``track`` field (rendered as a
thread in trace viewers) keeps engines, pipeline stages and wall-clock
code on separate rows.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional

__all__ = ["Span", "Tracer", "traced"]

#: Lazily registered wall-clock span-duration histogram (TIME_BUCKETS
#: seconds ladder).  Lazy because the process registry singleton lives in
#: the package ``__init__`` which imports this module.
_SPAN_SECONDS: Optional[Any] = None


def _span_seconds_metric() -> Any:
    global _SPAN_SECONDS
    if _SPAN_SECONDS is None:
        from . import REGISTRY
        from .registry import TIME_BUCKETS

        _SPAN_SECONDS = REGISTRY.histogram(
            "tracer_span_seconds",
            "Wall-clock span durations recorded by the tracer, by category",
            buckets=TIME_BUCKETS,
        )
    return _SPAN_SECONDS


@dataclass(frozen=True)
class Span:
    """One completed span on the trace timeline (times in microseconds)."""

    name: str
    ts_us: float
    dur_us: float
    category: str = ""
    track: str = "main"
    args: dict = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.ts_us + self.dur_us


class Tracer:
    """Append-only span buffer with an on/off switch.

    Like the metrics registry, the disabled path is a single attribute
    read and branch; nothing is allocated and ``perf_counter`` is never
    called.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._epoch = time.perf_counter()

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self._epoch = time.perf_counter()

    # -- recording ------------------------------------------------------
    @contextmanager
    def span(self, name: str, category: str = "", track: str = "main",
             **args: Any) -> Iterator[Optional["Tracer"]]:
        """Context manager timing a wall-clock span (no-op when disabled)."""
        if not self.enabled:
            yield None
            return
        start = time.perf_counter()
        try:
            yield self
        finally:
            end = time.perf_counter()
            self.add_span(
                name,
                ts_us=(start - self._epoch) * 1e6,
                dur_us=(end - start) * 1e6,
                category=category,
                track=track,
                args=args,
            )
            # Wall-clock spans also land on the seconds-ladder histogram
            # (TIME_BUCKETS); simulated-time add_span callers do not.
            _span_seconds_metric().observe(
                end - start, category=category or "uncategorized"
            )

    def add_span(
        self,
        name: str,
        ts_us: float,
        dur_us: float,
        category: str = "",
        track: str = "sim",
        args: Optional[dict] = None,
    ) -> None:
        """Record a span with explicit timestamps (simulated-time friendly)."""
        if not self.enabled:
            return
        span = Span(name, float(ts_us), float(dur_us), category, track,
                    dict(args or {}))
        with self._lock:
            self._spans.append(span)

    # -- reads ----------------------------------------------------------
    def spans(self) -> List[Span]:
        """Copy of all recorded spans, in recording order."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


def traced(name: Optional[str] = None, category: str = "", track: str = "main",
           tracer: Optional[Tracer] = None) -> Callable[[Callable], Callable]:
    """Decorator recording one span per call on the (global) tracer.

    ``@traced()`` uses the function's qualified name; pass ``name=`` to
    override and ``tracer=`` to target a non-global tracer (tests).
    """

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            active = tracer if tracer is not None else _global_tracer()
            if not active.enabled:
                return fn(*args, **kwargs)
            with active.span(span_name, category=category, track=track):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def _global_tracer() -> Tracer:
    from . import TRACER

    return TRACER
