"""Critical-path analysis over causal trace trees.

The critical path of an invocation is its longest causal chain: the LB
spans, the stage spine, and the instrumentation gaps between consecutive
chain spans (queue wait being the canonical one — the time an enqueued
invocation sits between queue insertion and dispatch).  Per-invocation
phase attribution reuses :func:`repro.telemetry.decomposition._breakdown`
over the trace's component events in recording order — the *same* floats
accumulated in the *same* order as ``decompose_contexts``, so the two
pipelines agree bit-for-bit (the acceptance gate this PR pins at 1 and 4
shards).  The one thing the trace adds on top of the breakdown is the LB
seam: pick + RPC time spent before the worker ever saw the invocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..core.lifecycle import DISPATCH
from ..telemetry.decomposition import PHASES, InvocationBreakdown, _breakdown
from .events import TraceEvent

__all__ = [
    "TraceTree",
    "PathSegment",
    "CriticalPath",
    "build_traces",
    "critical_path",
    "aggregate_rows",
    "verify_against_breakdowns",
    "render_critical_path",
]


@dataclass(frozen=True)
class TraceTree:
    """One invocation's events, in ``seq`` order."""

    trace_id: int
    events: tuple

    def chain(self) -> list[TraceEvent]:
        """The causal spine: lb + stage events (components hang off it)."""
        return [e for e in self.events if e.kind != "component"]

    def components(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "component"]

    def rooted(self) -> bool:
        """True when the spine is one unbroken parent chain from a root
        event (``parent is None``) to the terminal stage."""
        chain = self.chain()
        if not chain or chain[0].parent is not None:
            return False
        for prev, e in zip(chain, chain[1:]):
            if e.parent != prev.name:
                return False
        return True


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

    @property
    def span(self) -> float:
        return self.end - self.start


def build_traces(events: Iterable[TraceEvent]) -> list[TraceTree]:
    """Group a flat event stream into per-invocation trees, ``trace_id``
    ascending, events in ``seq`` order within each."""
    grouped: dict[int, list[TraceEvent]] = {}
    for e in events:
        grouped.setdefault(e.trace_id, []).append(e)
    return [
        TraceTree(trace_id=tid, events=tuple(
            sorted(grouped[tid], key=lambda e: e.seq)
        ))
        for tid in sorted(grouped)
    ]


def critical_path(tree: TraceTree) -> CriticalPath:
    """Walk the tree's spine into critical-path segments + a breakdown."""
    chain = tree.chain()
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
    components = tree.components()
    breakdown = _breakdown(
        str(tree.trace_id),
        [x for e in components for x in (e.name, e.start, e.end)],
    ) if components else None
    worker = next((e.worker for e in chain if e.worker is not None), None)
    shard = next((e.shard for e in tree.events if e.shard is not None), None)
    start = min((e.start for e in chain), default=0.0)
    end = max((e.end for e in chain), default=0.0)
    return CriticalPath(
        trace_id=tree.trace_id,
        terminal=chain[-1].name if chain else "?",
        rooted=tree.rooted(),
        start=start,
        end=end,
        seam=seam,
        worker=worker,
        shard=shard,
        segments=tuple(segments),
        breakdown=breakdown,
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


def verify_against_breakdowns(paths: Sequence[CriticalPath],
                              breakdowns: Iterable[InvocationBreakdown],
                              ) -> tuple[int, int]:
    """Cross-check trace-derived phase sums against the telemetry
    decomposition: ``(matched, compared)`` where matched counts exact
    float equality on every phase, exec time, and overhead."""
    by_id = {b.invocation_id: b for b in breakdowns
             if b.invocation_id is not None}
    matched = compared = 0
    for p in paths:
        if p.breakdown is None:
            continue
        b = by_id.get(p.trace_id)
        if b is None:
            continue
        compared += 1
        mine = p.breakdown
        if (all(mine.phases[k] == b.phases[k] for k in PHASES)
                and mine.exec_time == b.exec_time
                and mine.overhead == b.overhead):
            matched += 1
    return matched, compared


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
