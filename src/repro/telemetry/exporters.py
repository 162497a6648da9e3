"""Exporters: timeseries → JSONL/CSV, metrics → Prometheus text format.

Ilúvatar keeps metrics in-process and exposes them on demand (Section
5.1); these writers are the on-demand part.  JSONL is the machine-readable
run artifact (one row per line, ``series`` column identifying the worker),
CSV is for spreadsheets/pandas, and the Prometheus text exposition format
makes the registry's counters and gauges, and the run's latency
distributions, scrapeable by the standard ecosystem without any client
library.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping, Optional, Union

from ..metrics.registry import MetricsRegistry
from .sampler import Timeseries

__all__ = [
    "dump_timeseries_jsonl",
    "dump_timeseries_csv",
    "escape_label_value",
    "render_prometheus",
    "write_prometheus",
    "render_health_prometheus",
    "write_health_prometheus",
]


def dump_timeseries_jsonl(
    series: Mapping[str, Timeseries], path: Union[str, Path]
) -> int:
    """Write every series' rows as JSON lines, tagged with a ``series``
    key.  Returns the number of rows written."""
    dumps = json.dumps
    count = 0
    with open(path, "w") as fh:
        for name in sorted(series):
            for row in series[name].rows():
                fh.write(dumps({"series": name, **row}))
                fh.write("\n")
                count += 1
    return count


def dump_timeseries_csv(ts: Timeseries, path: Union[str, Path]) -> int:
    """Write one series as CSV with a header row.  Returns the row count."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ts.columns)
        writer.writerows(zip(*(ts.column(c) for c in ts.columns)))
    return len(ts)


def _metric_name(name: str, suffix: str = "") -> str:
    """Registry name → Prometheus metric name (``repro_`` namespace,
    dots and dashes become underscores)."""
    return "repro_" + name.replace(".", "_").replace("-", "_") + suffix


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    return repr(float(value))


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote, and line feed are the three specials."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _help_text(text: str) -> str:
    """Escape a ``# HELP`` docstring (backslash and line feed)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def render_prometheus(
    metrics: MetricsRegistry,
    histograms: Optional[Mapping] = None,
    help_text: bool = True,
) -> str:
    """Render the registry in the Prometheus text exposition format.

    Counters get a ``_total`` suffix, gauges are emitted as-is, and each
    of ``histograms`` (name → :class:`~repro.telemetry.distributions.
    Distribution`) becomes the conventional ``_bucket{le=...}`` / ``_sum``
    / ``_count`` family: cumulative buckets at the sketch bucket upper
    bounds, zero bucket first, closing with ``le="+Inf"``.
    """
    lines: list[str] = []
    for name in sorted(metrics.counters):
        metric = _metric_name(name, "_total")
        if help_text:
            lines.append(
                f"# HELP {metric} "
                + _help_text(f"Counter {name!r} from the repro registry.")
            )
            lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {metrics.counters[name]}")
    for name in sorted(metrics.gauges):
        metric = _metric_name(name)
        if help_text:
            lines.append(
                f"# HELP {metric} "
                + _help_text(f"Gauge {name!r} from the repro registry.")
            )
            lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(metrics.gauges[name])}")
    histograms = histograms or {}
    for name in sorted(histograms):
        hist = histograms[name]
        metric = _metric_name(name)
        if help_text:
            lines.append(
                f"# HELP {metric} "
                + _help_text(f"Latency distribution {name!r} of the run.")
            )
            lines.append(f"# TYPE {metric} histogram")
        for bound, cum in hist.sketch.cumulative():
            lines.append(f'{metric}_bucket{{le="{_fmt(bound)}"}} {cum}')
        lines.append(f"{metric}_sum {_fmt(hist.total)}")
        lines.append(f"{metric}_count {hist.sketch.count}")
    lines.append("")
    return "\n".join(lines)


def write_prometheus(
    metrics: MetricsRegistry,
    path: Union[str, Path],
    histograms: Optional[Mapping] = None,
    help_text: bool = True,
) -> None:
    """Write :func:`render_prometheus` output to ``path``."""
    with open(path, "w") as fh:
        fh.write(render_prometheus(metrics, histograms, help_text=help_text))


def _labeled(metric: str, labels: dict, value) -> str:
    pairs = ",".join(
        f'{k}="{escape_label_value(v)}"' for k, v in labels.items()
    )
    return f"{metric}{{{pairs}}} {value}"


def render_health_prometheus(health: Mapping) -> str:
    """Render a ``health.json`` dict as labeled Prometheus families.

    Per-function SLO accounting and per-worker control-plane quantiles,
    with every label value escaped — function names come from trace data
    and may contain arbitrary characters.
    """
    lines: list[str] = []

    def family(metric: str, kind: str, doc: str) -> None:
        lines.append(f"# HELP {metric} {_help_text(doc)}")
        lines.append(f"# TYPE {metric} {kind}")

    totals = health.get("totals", {})
    family("repro_health_invocations_total", "counter",
           "Invocations folded into the health collector.")
    lines.append(f"repro_health_invocations_total {totals.get('total', 0)}")
    family("repro_health_alerts_total", "counter",
           "Anomaly alerts raised over the run.")
    lines.append(f"repro_health_alerts_total {totals.get('alert_count', 0)}")

    functions = health.get("functions", {})
    family("repro_health_slo_violating_windows", "gauge",
           "Windows in which the function violated its SLO target.")
    for fn in sorted(functions):
        lines.append(_labeled(
            "repro_health_slo_violating_windows", {"function": fn},
            functions[fn].get("violating_windows", 0),
        ))
    family("repro_health_worst_burn_rate", "gauge",
           "Worst trailing-window error-budget burn rate per function.")
    for fn in sorted(functions):
        lines.append(_labeled(
            "repro_health_worst_burn_rate", {"function": fn},
            _fmt(functions[fn].get("worst_burn_rate", 0.0)),
        ))
    family("repro_health_e2e_seconds", "gauge",
           "Sketch quantiles of end-to-end latency per function.")
    for fn in sorted(functions):
        e2e = functions[fn].get("e2e") or {}
        for q_label, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            value = e2e.get(key)
            if value is not None:
                lines.append(_labeled(
                    "repro_health_e2e_seconds",
                    {"function": fn, "quantile": q_label}, _fmt(value),
                ))

    workers = health.get("workers", {})
    for attr, doc in (
        ("queue", "Sketch quantiles of queue time per worker."),
        ("overhead", "Sketch quantiles of control-plane overhead per worker."),
    ):
        metric = f"repro_health_{attr}_seconds"
        family(metric, "gauge", doc)
        for worker in sorted(workers):
            summary = workers[worker].get(attr) or {}
            for q_label, key in (("0.5", "p50"), ("0.99", "p99")):
                value = summary.get(key)
                if value is not None:
                    lines.append(_labeled(
                        metric, {"worker": worker, "quantile": q_label},
                        _fmt(value),
                    ))
    lines.append("")
    return "\n".join(lines)


def write_health_prometheus(health: Mapping, path: Union[str, Path]) -> None:
    """Write :func:`render_health_prometheus` output to ``path``."""
    with open(path, "w") as fh:
        fh.write(render_health_prometheus(health))
