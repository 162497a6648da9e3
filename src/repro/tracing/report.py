"""The ``repro trace`` report: aggregate attribution + slowest paths.

Streams a traced run directory's timeline rows (``traces.jsonl``) into
one critical path per row, labels them from ``records.jsonl``, and
renders what the aggregate histograms cannot show:
*where along its causal path* each slow invocation paid its latency —
queue wait vs cold start vs exec vs the LB seam — with a percentile
drill-down into the e2e distribution.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .critical_path import aggregate_rows, critical_path, render_critical_path
from .events import load_timeline

__all__ = ["trace_report"]


def _record_labels(records: list[dict]) -> dict[int, str]:
    """``invocation_id -> "function (outcome)"`` from records.jsonl rows."""
    return {
        r["invocation_id"]: f"{r.get('function')} ({r.get('outcome')})"
        for r in records if r.get("invocation_id") is not None
    }


def _nearest_rank(sorted_values: list, pct: float):
    """Nearest-rank percentile over an ascending list."""
    if not sorted_values:
        return None
    rank = max(0, min(len(sorted_values) - 1,
                      round(pct / 100.0 * (len(sorted_values) - 1))))
    return sorted_values[rank]


def trace_report(run_dir: Union[str, Path], top: int = 5,
                 percentile: Optional[float] = None) -> str:
    """Render the causal-trace report for a run directory."""
    # Deferred: avoids import-order knots.
    from ..telemetry.runs import RUN_FILES, _table, read_run_file

    run_dir = Path(run_dir)
    traces = run_dir / RUN_FILES["traces"]
    if not traces.exists():
        return (
            f"no traces.jsonl under {run_dir} — this run was not traced.\n"
            "Re-run with tracing enabled, e.g.:\n"
            "  repro --telemetry DIR cluster-study --trace\n"
        )
    labels = _record_labels(read_run_file(run_dir, "records"))
    paths = [p for p in map(critical_path, load_timeline(traces))
             if p is not None]
    completed = [p for p in paths if p.breakdown is not None]
    rooted = sum(1 for p in paths if p.rooted)

    lines = [
        f"causal traces: {run_dir}",
        f"{len(paths)} traces ({len(completed)} completed, "
        f"{rooted}/{len(paths)} rooted), "
        f"{sum(p.events for p in paths)} events",
        "",
    ]

    rows = aggregate_rows(completed)
    if rows:
        lines.append("critical-path attribution (completed invocations):")
        lines.extend(_table(rows, [
            ("phase", "phase"), ("mean", "mean_ms"),
            ("p99", "p99_ms"), ("share_pct", "share_%"),
        ]))
        lines.append("")

    slowest = sorted(paths, key=lambda p: p.span, reverse=True)[:max(top, 0)]
    if slowest:
        lines.append(f"top {len(slowest)} slowest invocations:")
        for p in slowest:
            lines.extend(render_critical_path(p, labels.get(p.trace_id)))
            lines.append("")

    if percentile is not None:
        by_span = sorted(paths, key=lambda p: p.span)
        pick = _nearest_rank(by_span, percentile)
        if pick is not None:
            lines.append(f"p{percentile:g} drill-down "
                         f"(e2e {pick.span * 1000.0:.3f} ms):")
            lines.extend(render_critical_path(pick, labels.get(pick.trace_id)))
            lines.append("")

    return "\n".join(lines).rstrip() + "\n"
