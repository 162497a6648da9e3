"""Causal invocation tracing: trace trees, critical paths, flight data.

Every invocation gets a trace tree — LB pick/RPC spans rooting the
lifecycle's stage chain, component intervals hanging off their stages —
derived (:func:`derive_trace_events`) from the run's per-invocation
timeline rows: the retained lifecycle contexts joined with the push front
end's placement log.  Nothing is recorded for tracing while the run
executes, so tracing perturbs nothing and adds no work to the replay
(the golden fixture and the serial-vs-sharded byte-identity gates hold
with tracing enabled *or* disabled).

Enable with ``TelemetryConfig(trace=True)`` (CLI:
``repro --telemetry DIR cluster-study --trace``); read back with
``repro trace DIR`` or export to ``ui.perfetto.dev`` via ``--perfetto``.
"""

from .critical_path import (
    CriticalPath,
    PathSegment,
    TraceTree,
    aggregate_rows,
    build_traces,
    critical_path,
    render_critical_path,
    verify_against_breakdowns,
)
from .events import (
    COMPONENT_STAGE,
    TraceEvent,
    derive_spans,
    derive_trace_events,
    load_trace_jsonl,
)
from .perfetto import chrome_trace, dump_chrome_trace, export_perfetto
from .report import trace_report

__all__ = [
    "TraceEvent",
    "TraceTree",
    "CriticalPath",
    "PathSegment",
    "COMPONENT_STAGE",
    "derive_trace_events",
    "derive_spans",
    "build_traces",
    "critical_path",
    "aggregate_rows",
    "verify_against_breakdowns",
    "render_critical_path",
    "load_trace_jsonl",
    "chrome_trace",
    "dump_chrome_trace",
    "export_perfetto",
    "trace_report",
]
