"""Metrics substrate: spans, counters, records, summaries, simulated energy."""

from .energy import EnergyModel, EnergyMonitor
from .registry import InvocationRecord, MetricsRegistry, Outcome
from .spans import Span
from .stats import LatencySummary, OnlineStats, bin_timeseries, percentile, summarize

__all__ = [
    "EnergyModel",
    "EnergyMonitor",
    "InvocationRecord",
    "MetricsRegistry",
    "Outcome",
    "Span",
    "LatencySummary",
    "OnlineStats",
    "bin_timeseries",
    "percentile",
    "summarize",
]
