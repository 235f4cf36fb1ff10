"""Unified telemetry: metrics registry, span tracer, noise tracker and
exporters.

This package is the instrumentation substrate every layer shares.  The
process-wide singletons are

- :data:`REGISTRY` - the :class:`~repro.observability.registry.MetricsRegistry`
  the substrate's hot paths register their counters of executed work on;
- :data:`TRACER` - the :class:`~repro.observability.tracer.Tracer`
  collecting wall-clock spans of executed work;
- :data:`NOISE` - the per-ciphertext noise tracker.

Each signal has exactly one of these three stores, and the three share
one switch.  The models (simulator, schedulers, HBM) publish nothing
here: their numbers are the reports they return.  Telemetry is **off by
default**: every instrumented site guards itself with one ``enabled``
check, so the uninstrumented code path is restored when disabled (see
``benchmarks/bench_observability_overhead.py``).
Turn it on around a region of interest::

    from repro import observability as obs

    with obs.telemetry():
        ctx.bootstrap(ctx.encrypt(1))
        print(obs.render_prometheus(obs.REGISTRY.snapshot()))

or globally with :func:`enable` / :func:`disable`.  Exporters turn what
was recorded into Prometheus text, JSON, or a Chrome trace-event file
that opens in Perfetto (see ``docs/observability.md``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Tuple

from .export import (
    SCHEMA_VERSION,
    chrome_trace_events,
    json_document,
    merged_trace_events,
    noise_trace_events,
    pipeline_trace_events,
    profile_trace_events,
    render_prometheus,
    to_jsonable,
    write_chrome_trace,
)
from .noise import (
    NOISE,
    FailurePoint,
    NoiseRecord,
    NoiseTracker,
    OpClassDrift,
    drift_report,
    noise_tracking,
)
from .registry import Counter, MetricsRegistry
from .tracer import Span, Tracer, traced

__all__ = [
    "REGISTRY",
    "TRACER",
    "NOISE",
    "MetricsRegistry",
    "Counter",
    "Tracer",
    "Span",
    "traced",
    "NoiseTracker",
    "NoiseRecord",
    "FailurePoint",
    "OpClassDrift",
    "noise_tracking",
    "drift_report",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "telemetry",
    "SCHEMA_VERSION",
    "json_document",
    "to_jsonable",
    "render_prometheus",
    "chrome_trace_events",
    "noise_trace_events",
    "pipeline_trace_events",
    "profile_trace_events",
    "merged_trace_events",
    "write_chrome_trace",
]

#: Process-wide metrics registry (disabled until :func:`enable`).
REGISTRY = MetricsRegistry()

#: Process-wide span tracer (disabled until :func:`enable`).
TRACER = Tracer()


def enable() -> None:
    """Switch every telemetry system on (registry, tracer and noise
    tracker)."""
    REGISTRY.enable()
    TRACER.enable()
    NOISE.enable()


def disable() -> None:
    """Switch every telemetry system off."""
    REGISTRY.disable()
    TRACER.disable()
    NOISE.disable()


def is_enabled() -> bool:
    return REGISTRY.enabled or TRACER.enabled or NOISE.enabled


def reset() -> None:
    """Clear all recorded metrics, spans and noise records."""
    REGISTRY.reset()
    TRACER.reset()
    NOISE.reset()


@contextmanager
def telemetry(clear: bool = True) -> Iterator[Tuple[MetricsRegistry, Tracer]]:
    """Enable telemetry for a ``with`` block, restoring the prior state.

    With ``clear`` (the default) every system is reset on entry so the
    block observes only its own activity.
    """
    prior = (REGISTRY.enabled, TRACER.enabled, NOISE.enabled)
    if clear:
        reset()
    enable()
    try:
        yield REGISTRY, TRACER
    finally:
        REGISTRY.enabled, TRACER.enabled, NOISE.enabled = prior
