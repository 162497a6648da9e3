"""Metrics substrate: spans, counters, records, summaries, simulated energy."""

from .energy import EnergyModel, EnergyMonitor
from .registry import InvocationRecord, MetricsRegistry, Outcome
from .spans import SPAN_GROUPS, Span, dump_spans_jsonl, load_spans_jsonl
from .stats import LatencySummary, OnlineStats, bin_timeseries, percentile, summarize

__all__ = [
    "EnergyModel",
    "EnergyMonitor",
    "InvocationRecord",
    "MetricsRegistry",
    "Outcome",
    "SPAN_GROUPS",
    "Span",
    "dump_spans_jsonl",
    "load_spans_jsonl",
    "LatencySummary",
    "OnlineStats",
    "bin_timeseries",
    "percentile",
    "summarize",
]
