"""Span-based structured tracer.

The tracer is the timeline half of :mod:`repro.observability`: it records
named spans - ``(name, category, start, duration, track, args)`` - that
the exporters (:mod:`repro.observability.export`) turn into Chrome
trace-event JSON for Perfetto / ``chrome://tracing``.

Spans time executed work: :meth:`Tracer.span` (a context manager) or the
:func:`traced` decorator measure ``time.perf_counter`` relative to the
tracer's epoch, around real work such as a functional bootstrap.
:meth:`Tracer.add_span` records a span whose start and duration the
caller supplies.  The models' timelines (the HW-scheduler's
``execute(record_spans=True)``, the XPU pipeline trace, the profile's
counter tracks) are values they return and render themselves; they are
not recorded here.  The ``track`` field (rendered as a thread in trace
viewers) keeps separate rows apart.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional

__all__ = ["Span", "Tracer", "traced"]

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

    def add_span(
        self,
        name: str,
        ts_us: float,
        dur_us: float,
        category: str = "",
        track: str = "main",
        args: Optional[dict] = None,
    ) -> None:
        """Record a span with explicit timestamps (microseconds)."""
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
