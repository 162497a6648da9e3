"""Critical-path analysis, one timeline row at a time.

The critical path of an invocation is its longest causal chain: the LB
spans, the stage spine, and the instrumentation gaps between consecutive
chain spans (queue wait being the canonical one — the time an enqueued
invocation sits between queue insertion and dispatch).  The chain is the
row's lb and stage events (:func:`~.events.derive_trace_events`).
Per-invocation phase attribution is
:func:`repro.telemetry.decomposition._breakdown` over the row's own
interval list — the breakdown :meth:`Telemetry.breakdowns` reads off the
same row, so the two are equal by construction.  The one thing the path
adds on top of the breakdown is the LB seam: pick + RPC time spent
before the worker ever saw the invocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.lifecycle import DISPATCH
from ..telemetry.decomposition import PHASES, InvocationBreakdown, _breakdown
from ..telemetry.timeline import TimelineRow
from .events import derive_trace_events

__all__ = [
    "PathSegment",
    "CriticalPath",
    "critical_path",
    "aggregate_rows",
    "render_critical_path",
]


@dataclass(frozen=True)
class PathSegment:
    """One hop of the critical path: a chain span, or a gap between two
    (``kind="wait"``, synthesized — nothing was instrumented there)."""

    name: str
    start: float
    end: float
    kind: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CriticalPath:
    """One invocation's attributed end-to-end latency."""

    trace_id: int
    terminal: str                  # complete | drop | timeout
    rooted: bool
    start: float
    end: float
    seam: float                    # LB pick + rpc time (before the worker)
    worker: Optional[str]
    shard: Optional[int]
    segments: tuple
    breakdown: Optional[InvocationBreakdown]   # None for drops/timeouts
    events: int                    # trace events the row yields

    @property
    def span(self) -> float:
        return self.end - self.start


def critical_path(row: TimelineRow) -> Optional[CriticalPath]:
    """Walk ``row``'s spine into critical-path segments + a breakdown;
    ``None`` when the row yields no trace event (an unclosed row without
    an LB entry).  ``rooted`` is True when the spine is one unbroken
    parent chain from a root event (``parent is None``) to its last
    stage."""
    events = list(derive_trace_events((row,)))
    if not events:
        return None
    chain = [e for e in events if e.kind != "component"]
    segments: list[PathSegment] = []
    seam = 0.0
    prev_end: Optional[float] = None
    for e in chain:
        if prev_end is not None and e.start > prev_end:
            # The uninstrumented stretch between two chain spans; before
            # dispatch it is, by construction, time spent queued.
            gap = "queue_wait" if e.name == DISPATCH else "wait"
            segments.append(PathSegment(gap, prev_end, e.start, "wait"))
        segments.append(PathSegment(e.name, e.start, e.end, e.kind))
        if e.kind == "lb":
            seam += e.end - e.start
        prev_end = e.end if prev_end is None else max(prev_end, e.end)
    return CriticalPath(
        trace_id=row.id,
        terminal=chain[-1].name,
        rooted=chain[0].parent is None and all(
            e.parent == prev.name for prev, e in zip(chain, chain[1:])),
        start=min(e.start for e in chain),
        end=max(e.end for e in chain),
        seam=seam,
        worker=next((e.worker for e in chain if e.worker is not None), None),
        shard=next((e.shard for e in events if e.shard is not None), None),
        segments=tuple(segments),
        breakdown=(_breakdown(str(row.id), row.intervals)
                   if row.closed else None),
        events=len(events),
    )


def aggregate_rows(paths: Sequence[CriticalPath],
                   scale: float = 1000.0) -> list[dict]:
    """Aggregate phase attribution across completed paths, in the shape of
    :func:`repro.telemetry.decomposition.breakdown_rows` plus an ``lb_seam``
    row (share is of total control-plane overhead including the seam)."""
    done = [p for p in paths if p.breakdown is not None]
    if not done:
        return []
    columns = {p: np.array([c.breakdown.phases[p] for c in done])
               for p in PHASES}
    columns["lb_seam"] = np.array([p.seam for p in done])
    total = float(sum(col.sum() for col in columns.values()))
    rows = []
    for phase, col in columns.items():
        rows.append({
            "phase": phase,
            "mean": float(col.mean()) * scale,
            "p99": float(np.percentile(col, 99)) * scale,
            "share_pct": 100.0 * float(col.sum()) / total if total else 0.0,
        })
    exec_col = np.array([p.breakdown.exec_time for p in done])
    rows.append({
        "phase": "(exec)",
        "mean": float(exec_col.mean()) * scale,
        "p99": float(np.percentile(exec_col, 99)) * scale,
        "share_pct": 0.0,
    })
    return rows


def render_critical_path(path: CriticalPath, label: Optional[str] = None,
                         scale: float = 1000.0) -> list[str]:
    """Render one critical path as indented text lines (ms)."""
    head = f"trace {path.trace_id}"
    if label:
        head += f"  {label}"
    head += f"  [{path.terminal}]  e2e {path.span * scale:.3f} ms"
    if path.worker is not None:
        head += f"  worker={path.worker}"
    if path.shard is not None:
        head += f"  shard={path.shard}"
    if not path.rooted:
        head += "  (UNROOTED)"
    lines = [head]
    t0 = path.start
    for seg in path.segments:
        marker = {"lb": "seam", "wait": "gap"}.get(seg.kind, "")
        lines.append(
            f"  {seg.name:<14} +{(seg.start - t0) * scale:>10.3f} ms  "
            f"{seg.duration * scale:>10.3f} ms  {marker}".rstrip()
        )
    return lines
