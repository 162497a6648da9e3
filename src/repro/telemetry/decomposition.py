"""Overhead decomposition (the paper's Table 2, per run).

The source is the invocation-lifecycle pipeline itself: when telemetry
is attached, each :class:`~repro.core.lifecycle.InvocationContext`
carries the component intervals of its critical path — the run's only
per-invocation record of component timing — and
:func:`decompose_contexts` reads the phase boundaries directly off the
completed contexts.  The independent checks are :func:`match_records`
(against the ``overhead`` each record computes from the invocation's own
timestamps) and the golden fixture.

The control-plane overhead (everything that is not function code) splits
into phases:

* ``queue``       — ingestion components + time waiting in the invocation
                    queue + dispatch components;
* ``acquire``     — warm-container acquisition (lookup + lock);
* ``cold_create`` — the cold-path detour: memory admission + sandbox
                    creation (zero for warm invocations);
* ``exec_comm``   — agent communication around execution (HTTP prepare /
                    call / result download);
* ``post``        — returning the container and the results;
* ``other``       — any intervals outside the canonical mapping (forward
                    compatibility; normally zero).

Pull-dispatch runs add one conditional phase, ``claim_wait`` — the time
an offer sat on the shared logical queue before a worker claimed it.
It is deliberately *not* part of :data:`PHASES`: push runs never record
the interval, their breakdowns carry exactly the canonical six keys, and
the golden fixture stays byte-stable.  Aggregations include the extra
phase only when at least one breakdown carries it.

Per invocation, the phase durations plus the queue-wait gap telescope to
exactly the recorded end-to-end time minus the execution window, so the
phase sum equals the invocation's recorded ``overhead`` up to float
rounding — asserted by :func:`match_records` and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ..core.lifecycle import interval_triples

__all__ = [
    "PHASES",
    "CLAIM_WAIT_PHASE",
    "PHASE_OF_SPAN",
    "EXEC_SPAN",
    "InvocationBreakdown",
    "BREAKDOWN_KEY",
    "decompose_contexts",
    "aggregate_phases",
    "breakdown_rows",
    "match_records",
]

EXEC_SPAN = "exec"

_INF = float("inf")

PHASES = ("queue", "acquire", "cold_create", "exec_comm", "post", "other")

# Conditional phase: present only in pull-dispatch runs (see module doc).
CLAIM_WAIT_PHASE = "claim_wait"

PHASE_OF_SPAN: dict[str, str] = {
    "claim_wait": CLAIM_WAIT_PHASE,
    "invoke": "queue",
    "sync_invoke": "queue",
    "enqueue_invocation": "queue",
    "add_item_to_q": "queue",
    "dequeue": "queue",
    "spawn_worker": "queue",
    "acquire_container": "acquire",
    "try_lock_container": "acquire",
    "cold_create": "cold_create",
    "prepare_invoke": "exec_comm",
    "http_client_create": "exec_comm",
    "call_container": "exec_comm",
    "download_result": "exec_comm",
    "return_container": "post",
    "return_results": "post",
}


@dataclass(frozen=True)
class InvocationBreakdown:
    """One invocation's critical path, phase by phase (seconds)."""

    tag: str                       # str(invocation_id), the span tag
    phases: Mapping[str, float]
    exec_time: float
    cold: bool
    start: float                   # first interval start (≈ arrival)
    end: float                     # last interval end (≈ completion)

    @property
    def overhead(self) -> float:
        """Control-plane time: the sum of all phases."""
        return sum(self.phases.values())

    @property
    def invocation_id(self) -> Optional[int]:
        return int(self.tag) if self.tag.isdigit() else None


def _breakdown(tag: str, intervals: Sequence) -> Optional[InvocationBreakdown]:
    """One invocation's breakdown from its flat ``[name, start, end, ...]``
    intervals (a context's layout).

    One pass in recording order; the queue-wait gap is added after the
    loop, which fixes the float accumulation order the golden fixture
    pins.  ``None`` when the invocation has no execution window
    (dropped / timed out).
    """
    phases = dict.fromkeys(PHASES, 0.0)
    exec_time = 0.0
    has_exec = cold = False
    add_item_end: Optional[float] = None
    dequeue_start: Optional[float] = None
    first_start, last_end = _INF, -_INF
    for name, start, end in interval_triples(intervals):
        if start < first_start:
            first_start = start
        if end > last_end:
            last_end = end
        if name == EXEC_SPAN:
            has_exec = True
            exec_time += end - start
            continue
        if name == "cold_create":
            cold = True
        phase = PHASE_OF_SPAN.get(name, "other")
        bucket = phases.get(phase)
        # Conditional phases (claim_wait) materialize on first use; the
        # canonical six accumulate in place, float-order unchanged.
        phases[phase] = (end - start) if bucket is None else bucket + (end - start)
        if name == "add_item_to_q":
            add_item_end = end
        elif name == "dequeue":
            dequeue_start = start
    if not has_exec:
        return None
    if add_item_end is not None and dequeue_start is not None:
        # The only instrumentation gap on the critical path: waiting in
        # the invocation queue between insertion and dispatch.
        phases["queue"] += max(dequeue_start - add_item_end, 0.0)
    return InvocationBreakdown(
        tag=tag,
        phases=phases,
        exec_time=exec_time,
        cold=cold,
        start=first_start,
        end=last_end,
    )


# Breakdown order: by invocation id, untagged ones last (the merge key
# of the breakdown stream).
BREAKDOWN_KEY = lambda b: (b.invocation_id is None, b.invocation_id, b.tag)  # noqa: E731


def decompose_contexts(contexts: Iterable) -> list[InvocationBreakdown]:
    """Phase breakdowns read directly off lifecycle contexts.

    ``contexts`` are :class:`~repro.core.lifecycle.InvocationContext`
    objects whose ``intervals`` were collected (telemetry attached); each
    context *is* one invocation.  Contexts still in flight (no
    ``outcome``), without an execution window (dropped / timed out) or
    without collected intervals are skipped.  Results are ordered by
    invocation id.
    """
    out: list[InvocationBreakdown] = []
    for ctx in contexts:
        intervals = ctx.intervals
        if not intervals or ctx.outcome is None:
            continue
        b = _breakdown(str(ctx.inv.id), intervals)
        if b is not None:
            out.append(b)
    out.sort(key=BREAKDOWN_KEY)
    return out


def _phase_names(breakdowns: Sequence[InvocationBreakdown]) -> tuple[str, ...]:
    """Canonical phases, plus ``claim_wait`` when any breakdown has it."""
    if any(CLAIM_WAIT_PHASE in b.phases for b in breakdowns):
        return PHASES + (CLAIM_WAIT_PHASE,)
    return PHASES


def aggregate_phases(breakdowns: Sequence[InvocationBreakdown]) -> dict[str, dict]:
    """Per-phase statistics over a run: mean / p99 / total / share of
    overhead (share in [0, 1])."""
    if not breakdowns:
        return {}
    names = _phase_names(breakdowns)
    totals = {
        p: np.array([b.phases.get(p, 0.0) for b in breakdowns]) for p in names
    }
    grand_total = float(sum(arr.sum() for arr in totals.values()))
    out: dict[str, dict] = {}
    for p in names:
        arr = totals[p]
        total = float(arr.sum())
        out[p] = {
            "mean": float(arr.mean()),
            "p99": float(np.percentile(arr, 99.0)),
            "total": total,
            "share": total / grand_total if grand_total > 0 else 0.0,
        }
    return out


def breakdown_rows(
    breakdowns: Sequence[InvocationBreakdown], scale: float = 1000.0
) -> list[dict]:
    """Table-2-style rows (one per phase + a total), times scaled by
    ``scale`` (default seconds → milliseconds)."""
    stats = aggregate_phases(breakdowns)
    rows = [
        {
            "phase": p,
            "mean": stats[p]["mean"] * scale,
            "p99": stats[p]["p99"] * scale,
            "share_pct": stats[p]["share"] * 100.0,
        }
        for p in PHASES + (CLAIM_WAIT_PHASE,)
        if p in stats
    ]
    if rows:
        overheads = np.array([b.overhead for b in breakdowns])
        rows.append(
            {
                "phase": "total_overhead",
                "mean": float(overheads.mean()) * scale,
                "p99": float(np.percentile(overheads, 99.0)) * scale,
                "share_pct": 100.0,
            }
        )
    return rows


def match_records(
    breakdowns: Sequence[InvocationBreakdown],
    records: Iterable,
    tolerance: float = 1e-9,
) -> tuple[int, int]:
    """Cross-check phase sums against recorded per-invocation overheads.

    ``records`` supplies objects (or dicts) with ``invocation_id`` and
    ``overhead``.  Returns ``(matched, compared)`` — a breakdown counts as
    matched when its phase sum equals the record's overhead within
    ``tolerance`` (absolute, plus 1e-9 relative slack for long runs).
    """
    by_id: dict[int, float] = {}
    for r in records:
        if isinstance(r, Mapping):
            rid, overhead = r.get("invocation_id"), r.get("overhead")
        else:
            rid, overhead = getattr(r, "invocation_id", None), getattr(r, "overhead", None)
        if rid:
            by_id[int(rid)] = float(overhead)
    matched = compared = 0
    for b in breakdowns:
        rid = b.invocation_id
        if rid is None or rid not in by_id:
            continue
        compared += 1
        expected = by_id[rid]
        if abs(b.overhead - expected) <= tolerance + 1e-9 * abs(expected):
            matched += 1
    return matched, compared
