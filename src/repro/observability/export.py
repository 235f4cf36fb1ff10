"""Exporters: Prometheus text, JSON snapshots, Chrome trace-event JSON.

Three consumers, one data model:

- :func:`render_prometheus` turns a registry snapshot into the text
  exposition format a Prometheus scrape endpoint would serve;
- :func:`to_jsonable` is the single serializer behind every ``--json``
  CLI surface: it converts dataclasses (``SimulationReport``,
  ``IterationBreakdown``...), numpy scalars/arrays, enums and nested
  containers into plain JSON types, and :func:`json_document` wraps the
  result in the one versioned envelope every printed document shares;
- the ``*_trace_events`` family renders spans - recorded by the tracer
  or replayed from a :class:`~repro.core.trace.PipelineTrace` - as
  Chrome trace-event dicts (``ph: "X"`` complete events plus ``ph: "M"``
  thread-name metadata), which :func:`write_chrome_trace` wraps into a
  file that loads directly in Perfetto or ``chrome://tracing``.

The trace-event converters only duck-type their inputs (``.spans``,
``.config.clock_ghz``), keeping this module import-free of the core
layer.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
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


# ---------------------------------------------------------------------------
# JSON serialization (shared by CLI --json and the snapshot exporter)
# ---------------------------------------------------------------------------
def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serializable plain types.

    An object with its own ``to_jsonable()`` (the verify and noise
    reports) is serialized through it.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, enum.Enum):
        return obj.value
    own = getattr(obj, "to_jsonable", None)
    if callable(own) and not isinstance(obj, type):  # a report's own shape
        return to_jsonable(own())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {_key(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    # numpy scalars and arrays, without importing numpy here
    item = getattr(obj, "item", None)
    if callable(item) and getattr(obj, "shape", None) == ():
        return to_jsonable(obj.item())
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):
        return to_jsonable(tolist())
    return str(obj)


#: Version of the envelope every JSON document the CLI prints shares: a
#: top-level ``schema_version`` beside the command's own fields, and no
#: version inside nested sections.  Any change to field names or nesting
#: bumps it and regenerates the verify golden (``tests/verify/_golden.py``).
SCHEMA_VERSION = 3


def json_document(payload: Any) -> Dict[str, Any]:
    """``payload``'s fields under the one top-level ``schema_version``."""
    return {"schema_version": SCHEMA_VERSION, **to_jsonable(payload)}


def _key(k: Any) -> str:
    if isinstance(k, enum.Enum):
        return str(k.value)
    return str(k)


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` (counters) in text
    exposition format."""
    lines: List[str] = []
    for name, metric in snapshot.items():
        if metric["help"]:
            lines.append(f"# HELP {name} {metric['help']}")
        lines.append(f"# TYPE {name} {metric['type']}")
        for series in metric["values"]:
            lines.append(
                f"{name}{_format_labels(series['labels'])} "
                f"{_format_value(series['value'])}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Chrome trace events
# ---------------------------------------------------------------------------
_PID = 0  # single logical process; tracks map to tids


def _track_ids(tracks: Iterable[str]) -> Dict[str, int]:
    return {track: tid for tid, track in enumerate(sorted(tracks))}


def _thread_metadata(track_ids: Dict[str, int]) -> List[dict]:
    return [
        {
            "ph": "M",
            "pid": _PID,
            "tid": tid,
            "name": "thread_name",
            "args": {"name": track},
        }
        for track, tid in sorted(track_ids.items(), key=lambda kv: kv[1])
    ]


def chrome_trace_events(spans: Iterable[Any]) -> List[dict]:
    """Convert tracer :class:`~repro.observability.tracer.Span` objects.

    Produces ``ph: "X"`` (complete) events preceded by thread-name
    metadata so each span's ``track`` renders as its own named row.
    """
    spans = list(spans)
    track_ids = _track_ids({s.track for s in spans})
    events = _thread_metadata(track_ids)
    for s in spans:
        events.append(
            {
                "name": s.name,
                "cat": s.category or "span",
                "ph": "X",
                "ts": s.ts_us,
                "dur": s.dur_us,
                "pid": _PID,
                "tid": track_ids[s.track],
                "args": to_jsonable(s.args),
            }
        )
    return events


def pipeline_trace_events(trace: Any, clock_ghz: Optional[float] = None) -> List[dict]:
    """Render a :class:`~repro.core.trace.PipelineTrace` as trace events.

    Stage spans are in cycles; ``clock_ghz`` (defaulting to the traced
    config's clock) converts them to microseconds so the viewer's time
    axis is real time.  One row per pipeline stage, iteration number in
    the args.
    """
    if clock_ghz is None:
        clock_ghz = trace.config.clock_ghz
    us_per_cycle = 1e-3 / clock_ghz
    track_ids = _track_ids({s.stage for s in trace.spans})
    events = _thread_metadata(track_ids)
    for s in trace.spans:
        events.append(
            {
                "name": f"{s.stage} i{s.iteration}",
                "cat": "xpu_pipeline",
                "ph": "X",
                "ts": s.start * us_per_cycle,
                "dur": s.duration * us_per_cycle,
                "pid": _PID,
                "tid": track_ids[s.stage],
                "args": {"iteration": s.iteration, "cycles": s.duration},
            }
        )
    return events


def profile_trace_events(profile: Any) -> List[dict]:
    """Render a bottleneck profile's levels as Chrome counter tracks.

    ``profile`` is a :class:`~repro.observability.profile.BootstrapProfile`.
    Each buffer high-water mark, HBM channel utilization and XPU stage
    occupancy holds for the whole steady-state group, so it becomes a
    ``ph: "C"`` series (a Perfetto step-line row, in sorted track order)
    with one sample at the group's start and one at its end.
    """
    levels = {f"buffer/{name}": v for name, v in profile.buffer_watermarks.items()}
    levels.update({f"{ch}/utilization": v
                   for ch, v in profile.hbm_channel_utilization.items()})
    levels.update({f"xpu/occupancy/{stage}": v
                   for stage, v in profile.xpu_occupancy.items()})
    end_us = profile.simulation.group_time_s * 1e6
    return [
        {"name": track, "cat": "perf_counter", "ph": "C", "ts": ts,
         "pid": _PID, "args": {"value": float(value)}}
        for track, value in sorted(levels.items()) for ts in (0.0, end_us)
    ]


def noise_trace_events(tracker: Any) -> List[dict]:
    """Render a noise-tracker snapshot as a Chrome-trace noise waterfall.

    ``tracker`` is a :class:`~repro.observability.noise.NoiseTracker` (or
    a compatible ``snapshot()`` dict).  Each record becomes a ``ph: "X"``
    event on a per-label row at ts = op_id (the waterfall axis is op
    order, not time), carrying predicted/measured noise in the args;
    provenance edges render as ``ph: "s"/"f"`` flow events so Perfetto
    draws arrows from parents to children.  Two ``ph: "C"`` counter
    series plot predicted std and measured |error| in log2 torus units.
    """
    snapshot = tracker.snapshot() if hasattr(tracker, "snapshot") else tracker
    records = snapshot.get("records", [])
    tracks = {f"noise/{r['label']}" if r["label"] else "noise" for r in records}
    track_ids = _track_ids(tracks)
    events = _thread_metadata(track_ids)
    for r in records:
        track = f"noise/{r['label']}" if r["label"] else "noise"
        tid = track_ids[track]
        ts = float(r["op_id"])
        events.append(
            {
                "name": r["op"],
                "cat": "noise",
                "ph": "X",
                "ts": ts,
                "dur": 1.0,
                "pid": _PID,
                "tid": tid,
                "args": {
                    "op_id": r["op_id"],
                    "predicted_std_log2": r["predicted_std_log2"],
                    "measured": r["measured"],
                    "sigma": r["sigma"],
                },
            }
        )
        for parent in r["parents"]:
            flow = {"cat": "noise", "id": f"n{parent}->{r['op_id']}", "pid": _PID}
            events.append(
                {**flow, "name": "dep", "ph": "s", "ts": float(parent) + 0.5,
                 "tid": tid}
            )
            events.append(
                {**flow, "name": "dep", "ph": "f", "bp": "e", "ts": ts + 0.5,
                 "tid": tid}
            )
        events.append(
            {
                "name": "predicted_std_log2",
                "cat": "noise",
                "ph": "C",
                "ts": ts,
                "pid": _PID,
                "args": {"value": r["predicted_std_log2"]},
            }
        )
        if r["measured"] is not None:
            magnitude = math.log2(max(abs(r["measured"]), 2.0**-40))
            events.append(
                {
                    "name": "measured_abs_log2",
                    "cat": "noise",
                    "ph": "C",
                    "ts": ts,
                    "pid": _PID,
                    "args": {"value": magnitude},
                }
            )
    return events


def merged_trace_events(sections: Dict[str, List[dict]]) -> List[dict]:
    """Merge several per-system event lists into one timeline.

    Every exporter above emits events on the single logical process
    ``pid 0``, so naively concatenating two exporters' outputs collides
    their thread ids.  This function gives each named *section* its own
    pid (in sorted section order), prefixed with ``ph: "M"``
    ``process_name`` metadata, so Perfetto renders the merged file as one
    timeline with one labelled process group per section.  Events keep
    their relative order and all other fields.
    """
    events: List[dict] = []
    for pid, section in enumerate(sorted(sections)):
        section_events = sections[section]
        if not section_events:
            continue
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": section},
            }
        )
        for event in section_events:
            events.append({**event, "pid": pid})
    return events


def write_chrome_trace(path: str, events: Iterable[dict],
                       metadata: Optional[dict] = None) -> None:
    """Write trace events as a JSON object file Perfetto can open."""
    document: Dict[str, Any] = {"traceEvents": list(events), "displayTimeUnit": "ms"}
    if metadata:
        document["otherData"] = to_jsonable(metadata)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)
