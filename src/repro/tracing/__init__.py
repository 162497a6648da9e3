"""Causal invocation tracing: trace events, critical paths, flight data.

Every invocation's trace — LB pick/RPC spans rooting the lifecycle's
stage chain, component intervals hanging off their stages — is derived
(:func:`derive_trace_events`) from its row of the run's per-invocation
timeline: the retained lifecycle context joined with the push front
end's placement log.  :func:`critical_path` reads one row: its spine
comes from the row's trace events and its phase breakdown from the row's
intervals, so it equals ``Telemetry.breakdowns()`` by construction.
Nothing is recorded for tracing while the run executes, so tracing
perturbs nothing and adds no work to the replay (the golden fixture and
the serial-vs-sharded byte-identity gates hold with tracing enabled *or*
disabled).

Enable with ``TelemetryConfig(trace=True)`` (CLI:
``repro --telemetry DIR cluster-study --trace``); read back with
``repro trace DIR`` or export to ``ui.perfetto.dev`` via ``--perfetto``
(:func:`export_perfetto`, which streams the timeline one row at a
time).
"""

from .critical_path import (
    CriticalPath,
    PathSegment,
    aggregate_rows,
    critical_path,
    render_critical_path,
)
from .events import (
    COMPONENT_STAGE,
    TraceEvent,
    derive_spans,
    derive_trace_events,
    load_trace_jsonl,
)
from .perfetto import export_perfetto
from .report import trace_report

__all__ = [
    "TraceEvent",
    "CriticalPath",
    "PathSegment",
    "COMPONENT_STAGE",
    "derive_trace_events",
    "derive_spans",
    "critical_path",
    "aggregate_rows",
    "render_critical_path",
    "load_trace_jsonl",
    "export_perfetto",
    "trace_report",
]
