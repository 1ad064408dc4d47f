"""repro.obs — observability: span tracing, metrics, exporters, profiler.

One layer answers "where did the time go":

- :mod:`repro.obs.tracer` — thread-safe dual-clock span tracer, off by
  default (``REPRO_TRACE=1`` or an explicit tracer enables it);
- :mod:`repro.obs.metrics` — the counter/histogram/timer registry the
  batch engine reports through, with bounded-memory histograms;
- :mod:`repro.obs.export` — Chrome-trace (Perfetto) and JSONL dumps;
- :mod:`repro.obs.profile` — the Table-1-style phase/percent breakdown
  behind ``repro profile``.

:func:`snapshot` is the shared export schema: engine metrics and
span-trace summaries land in one JSON-serializable dict, so metric and
trace output agree on structure.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.export import (
    TRACE_SCHEMA,
    assemble_request_trace,
    chrome_trace_json,
    to_chrome_trace,
    to_jsonl,
    trace_to_chrome,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    auto_dump,
    flight_recorder,
    load_flight,
    render_flight,
    set_flight_dir,
    set_flight_recorder,
)
from repro.obs.metrics import (
    DEFAULT_HISTOGRAM_CAP,
    SNAPSHOT_SAMPLE_CAP,
    Counter,
    Histogram,
    MetricsRegistry,
    Timer,
    health_snapshot,
    merge_snapshots,
)
from repro.obs.prom import render_prometheus, validate_prometheus_text
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.tracer import (
    ENV_VAR,
    Span,
    SpanLog,
    TraceContext,
    Tracer,
    active_tracer,
    add_counters,
    context,
    current_span,
    enabled,
    make_trace_id,
    set_tracer,
    span,
    use_tracer,
)

__all__ = [
    "ENV_VAR",
    "FLIGHT_SCHEMA",
    "Counter",
    "DEFAULT_HISTOGRAM_CAP",
    "FlightRecorder",
    "Histogram",
    "MetricsRegistry",
    "SLOConfig",
    "SLOTracker",
    "SNAPSHOT_SAMPLE_CAP",
    "Span",
    "SpanLog",
    "TRACE_SCHEMA",
    "TraceContext",
    "Tracer",
    "Timer",
    "active_tracer",
    "add_counters",
    "assemble_request_trace",
    "auto_dump",
    "chrome_trace_json",
    "context",
    "current_span",
    "enabled",
    "flight_recorder",
    "health_snapshot",
    "load_flight",
    "load_snapshot",
    "make_trace_id",
    "merge_snapshots",
    "render_flight",
    "render_prometheus",
    "set_flight_dir",
    "set_flight_recorder",
    "set_tracer",
    "snapshot",
    "span",
    "to_chrome_trace",
    "to_jsonl",
    "trace_to_chrome",
    "use_tracer",
    "validate_prometheus_text",
    "write_chrome_trace",
    "write_jsonl",
]

#: v2 adds bounded per-histogram ``samples`` to metric snapshots so
#: cross-process merges (gateway + workers) can pool percentiles.  v1
#: documents remain readable — see :func:`load_snapshot`.
SNAPSHOT_SCHEMA = "repro.obs/2"

#: Schemas :func:`load_snapshot` accepts.
COMPAT_SCHEMAS = ("repro.obs/1", "repro.obs/2")


def snapshot(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """One JSON-serializable dict for metrics + trace summary.

    Any part may be omitted; ``tracer`` defaults to the active one, so
    ``obs.snapshot(registry=engine.metrics)`` inside a traced run
    captures both views.
    """
    out: Dict[str, Any] = {"schema": SNAPSHOT_SCHEMA}
    if registry is not None:
        out["metrics"] = registry.snapshot()
    tr = tracer if tracer is not None else active_tracer()
    if tr is not None:
        out["trace"] = tr.snapshot()
    return out


def load_snapshot(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Validate + normalize a persisted snapshot (v1 or v2).

    v1 histograms shipped no ``samples``; the normalized form adds an
    empty list so consumers (e.g. :func:`repro.obs.metrics.merge_snapshots`)
    can treat both generations uniformly.  Raises ``ValueError`` on an
    unknown schema tag so a benchmark comparing against a future v3
    fails loudly instead of silently mis-merging.
    """
    schema = doc.get("schema")
    if schema not in COMPAT_SCHEMAS:
        raise ValueError(
            f"unsupported snapshot schema {schema!r}; "
            f"expected one of {COMPAT_SCHEMAS}"
        )
    out = dict(doc)
    metrics = out.get("metrics")
    if isinstance(metrics, dict):
        metrics = dict(metrics)
        histograms = {}
        for name, entry in (metrics.get("histograms") or {}).items():
            entry = dict(entry)
            entry.setdefault("samples", [])
            histograms[name] = entry
        metrics["histograms"] = histograms
        out["metrics"] = metrics
    out["schema"] = SNAPSHOT_SCHEMA
    return out
