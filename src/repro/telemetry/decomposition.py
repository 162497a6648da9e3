"""Overhead decomposition (the paper's Table 2, per run).

The source is the invocation-lifecycle pipeline itself: when telemetry
is attached, each :class:`~repro.core.lifecycle.InvocationContext`
carries the component intervals of its critical path — the run's only
per-invocation record of component timing — and the phase boundaries
are read off them: at export from the timeline rows that reference
them, into per-phase :class:`PhaseColumns` (no object per invocation);
as :class:`InvocationBreakdown` views by :func:`decompose_rows` and
:func:`decompose_contexts`.  The independent checks are
:func:`match_records` (against the ``overhead`` each record computes
from the invocation's own timestamps) and the golden fixture.

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

from array import array
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ..core.lifecycle import (
    ACQUIRE,
    ADMIT,
    COLD_CREATE,
    COMPLETE,
    COMPONENT_STAGE,
    DISPATCH,
    ENQUEUE,
    EXECUTE,
    WARM,
    interval_triples,
)

__all__ = [
    "PHASES",
    "CLAIM_WAIT_PHASE",
    "PHASE_OF_STAGE",
    "EXEC_SPAN",
    "InvocationBreakdown",
    "PhaseColumns",
    "decompose_rows",
    "decompose_contexts",
    "aggregate_phases",
    "breakdown_rows",
    "match_records",
]

EXEC_SPAN = "exec"

PHASES = ("queue", "acquire", "cold_create", "exec_comm", "post", "other")

# Conditional phase: present only in pull-dispatch runs (see module doc).
CLAIM_WAIT_PHASE = "claim_wait"

# Each lifecycle stage's phase: a component interval counts toward the
# phase of the stage that owns it (COMPONENT_STAGE).
PHASE_OF_STAGE: dict[str, str] = {
    ADMIT: "queue",
    ENQUEUE: "queue",
    DISPATCH: "queue",
    ACQUIRE: "acquire",
    WARM: "acquire",
    COLD_CREATE: "cold_create",
    EXECUTE: "exec_comm",
    COMPLETE: "post",
}


@dataclass(frozen=True, slots=True)
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


# Each interval's slot in a phase-sum list: PHASES in order, then
# claim_wait, then the execution window.
_SLOTS = PHASES + (CLAIM_WAIT_PHASE,)
_CLAIM = len(PHASES)
_EXEC = _CLAIM + 1
_SLOT_OF_SPAN = {name: _SLOTS.index(PHASE_OF_STAGE[stage])
                 for name, stage in COMPONENT_STAGE.items()}
_SLOT_OF_SPAN[CLAIM_WAIT_PHASE] = _CLAIM
_SLOT_OF_SPAN[EXEC_SPAN] = _EXEC
_OTHER = PHASES.index("other")


def _last(names: Sequence, name: str) -> int:
    """The index of the last ``name`` in ``names``."""
    return len(names) - 1 - names[::-1].index(name)


def _phase_sums(intervals: Sequence) -> Optional[list]:
    """The phase durations of one invocation's flat ``[name, start, end,
    ...]`` intervals (a context's layout), in :data:`_SLOTS` order and
    followed by the execution time; claim_wait is ``None`` unless
    recorded.  ``None`` when the invocation has no execution window
    (dropped / timed out).

    Each slot adds its intervals' durations in recording order, starting
    from ``0.0``, except claim_wait, which starts from ``-0.0`` (the
    exact additive identity) and so holds its first duration unchanged.
    The queue-wait gap is added to ``queue`` last, which fixes the float
    accumulation order the golden fixture pins.
    """
    names = intervals[0::3]
    if EXEC_SPAN not in names:
        return None
    sums: list = [0.0] * _CLAIM + [-0.0, 0.0]
    slot_of = _SLOT_OF_SPAN.get
    for name, start, end in interval_triples(intervals):
        sums[slot_of(name, _OTHER)] += end - start
    if CLAIM_WAIT_PHASE not in names:
        sums[_CLAIM] = None
    if "add_item_to_q" in names and "dequeue" in names:
        # The only instrumentation gap on the critical path: waiting in
        # the invocation queue between insertion and dispatch.
        add_item_end = intervals[3 * _last(names, "add_item_to_q") + 2]
        dequeue_start = intervals[3 * _last(names, "dequeue") + 1]
        sums[0] += max(dequeue_start - add_item_end, 0.0)
    return sums


def _breakdown(tag: str, intervals: Sequence) -> Optional[InvocationBreakdown]:
    """One invocation's breakdown from its flat intervals (see
    :func:`_phase_sums`); ``None`` without an execution window."""
    sums = _phase_sums(intervals)
    if sums is None:
        return None
    phases = dict(zip(PHASES, sums))
    if sums[_CLAIM] is not None:
        phases[CLAIM_WAIT_PHASE] = sums[_CLAIM]
    return InvocationBreakdown(
        tag, phases, sums[_EXEC], "cold_create" in intervals[0::3],
        min(intervals[1::3]), max(intervals[2::3]),
    )


def decompose_rows(rows: Iterable) -> list[InvocationBreakdown]:
    """Phase breakdowns of timeline rows
    (:class:`~repro.telemetry.timeline.TimelineRow`, in id order): one per
    closed row with an execution window, in row order."""
    out: list[InvocationBreakdown] = []
    for row in rows:
        if row.closed and row.intervals:
            b = _breakdown(str(row.id), row.intervals)
            if b is not None:
                out.append(b)
    return out


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
    for ctx in sorted(contexts, key=lambda ctx: ctx.inv.id):
        intervals = ctx.intervals
        if not intervals or ctx.outcome is None:
            continue
        b = _breakdown(str(ctx.inv.id), intervals)
        if b is not None:
            out.append(b)
    return out


class PhaseColumns:
    """A run's breakdowns as per-phase columns, in id order — what the
    summary aggregates, with no object or dict per invocation.

    ``ids`` holds each breakdown's invocation id, ``phases`` one float
    column per phase (claim_wait ``0.0`` where the invocation recorded
    none), ``claimed`` the claim-wait phases that were recorded and
    ``overheads`` each phase sum.  The export fills it from the timeline
    rows (:meth:`add`); :meth:`of` builds it from
    :class:`InvocationBreakdown` objects.
    """

    __slots__ = ("ids", "phases", "claimed", "overheads")

    def __init__(self):
        self.ids: list = []
        self.phases: dict[str, array] = {p: array("d") for p in _SLOTS}
        self.claimed = array("d")
        self.overheads = array("d")

    def __len__(self) -> int:
        return len(self.ids)

    def _append(self, invocation_id, sums: Sequence, claim: Optional[float],
                overhead: float) -> None:
        self.ids.append(invocation_id)
        for column, value in zip(self.phases.values(), sums):
            column.append(value)
        if claim is not None:
            self.claimed.append(claim)
        self.overheads.append(overhead)

    def add(self, invocation_id: int, intervals: Sequence) -> None:
        """Fold in one invocation's flat intervals (skipped without an
        execution window)."""
        sums = _phase_sums(intervals)
        if sums is None:
            return
        claim = sums[_CLAIM]
        # The phase sum in the order InvocationBreakdown.overhead adds.
        if claim is None:
            overhead = sum(sums[:_CLAIM])
            sums[_CLAIM] = 0.0
        else:
            overhead = sum(sums[:_EXEC])
        self._append(invocation_id, sums, claim, overhead)

    @classmethod
    def of(cls, breakdowns: Iterable[InvocationBreakdown]) -> "PhaseColumns":
        columns = cls()
        for b in breakdowns:
            phases = b.phases
            claim = phases.get(CLAIM_WAIT_PHASE)
            columns._append(
                b.invocation_id,
                [*(phases.get(p, 0.0) for p in PHASES),
                 0.0 if claim is None else claim],
                claim,
                b.overhead,
            )
        return columns

    def aggregate(self) -> dict[str, dict]:
        """See :func:`aggregate_phases`."""
        if not self.ids:
            return {}
        # Canonical phases, plus claim_wait when any breakdown has it.
        names = _SLOTS if self.claimed else PHASES
        totals = {p: np.array(self.phases[p]) for p in names}
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

    def rows(self, scale: float = 1000.0) -> list[dict]:
        """See :func:`breakdown_rows`."""
        stats = self.aggregate()
        rows = [
            {
                "phase": p,
                "mean": stats[p]["mean"] * scale,
                "p99": stats[p]["p99"] * scale,
                "share_pct": stats[p]["share"] * 100.0,
            }
            for p in _SLOTS
            if p in stats
        ]
        if rows:
            overheads = np.array(self.overheads)
            rows.append(
                {
                    "phase": "total_overhead",
                    "mean": float(overheads.mean()) * scale,
                    "p99": float(np.percentile(overheads, 99.0)) * scale,
                    "share_pct": 100.0,
                }
            )
        return rows

    def match(self, overheads: Mapping[int, float],
              tolerance: float = 1e-9) -> tuple[int, int]:
        """See :func:`match_records`; ``overheads`` maps each record's
        invocation id to its recorded overhead."""
        matched = compared = 0
        for rid, overhead in zip(self.ids, self.overheads):
            if rid is None or rid not in overheads:
                continue
            compared += 1
            expected = overheads[rid]
            if abs(overhead - expected) <= tolerance + 1e-9 * abs(expected):
                matched += 1
        return matched, compared


def aggregate_phases(breakdowns: Sequence[InvocationBreakdown]) -> dict[str, dict]:
    """Per-phase statistics over a run: mean / p99 / total / share of
    overhead (share in [0, 1])."""
    return PhaseColumns.of(breakdowns).aggregate()


def breakdown_rows(
    breakdowns: Sequence[InvocationBreakdown], scale: float = 1000.0
) -> list[dict]:
    """Table-2-style rows (one per phase + a total), times scaled by
    ``scale`` (default seconds → milliseconds)."""
    return PhaseColumns.of(breakdowns).rows(scale)


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
    return PhaseColumns.of(breakdowns).match(by_id, tolerance)
