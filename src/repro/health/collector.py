"""Per-function health accumulator, folded from the run's records.

A :class:`HealthCollector` folds finished invocations
(:meth:`HealthCollector.observe_record`) into windowed sketches and
integer counters — per function for end-to-end latency and outcome mix,
per worker for queue time and control-plane overhead.  Both engines build
it when they export a run, in the one walk of the merged records that
also writes ``records.jsonl`` and feeds the run-wide latency
distributions (:class:`~repro.telemetry.distributions.RecordFold`): each
completed sample's bucket key is computed once there and handed in
through ``buckets``.  The serial live heartbeat keeps its own collector,
folded at each beat; its latest-window p99 is the merge of that window's
per-function e2e sketches (:meth:`HealthCollector.latest_e2e`), exact
because a merge only adds integer bucket counts.  The collector holds
nothing that depends on observation order: integer counts, integer
sketch buckets and order-independent min/max, so the same records in any
order build the same collector.

The collector is deliberately ignorant of SLO targets; it only measures.
:func:`repro.health.slo.evaluate_health` turns a collector (plus sampled
gauge series) into the ``health.json`` / ``slo.jsonl`` artifacts.
"""

from __future__ import annotations

from typing import Optional

from .sketch import DDSketch, WindowedSketch, window_index

__all__ = ["HealthCollector", "COUNT_KEYS"]

# Per-window outcome counters tracked for every function.  TIMEOUT folds
# into "dropped", matching MetricsRegistry.outcomes_by_function.
COUNT_KEYS = ("total", "completed", "cold", "dropped")

# A sample whose bucket the caller did not compute.
_UNKEYED = object()
_UNKEYED3 = (_UNKEYED,) * 3


class HealthCollector:
    """Windowed health accumulators; picklable and order-independent."""

    __slots__ = (
        "window", "relative_accuracy",
        "e2e", "counts", "queue", "overhead",
    )

    def __init__(self, window: float = 10.0, relative_accuracy: float = 0.01):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        self.window = float(window)
        self.relative_accuracy = float(relative_accuracy)
        # function -> WindowedSketch of e2e latency (completed invocations)
        self.e2e: dict[str, WindowedSketch] = {}
        # function -> window index -> {total, completed, cold, dropped}
        self.counts: dict[str, dict[int, dict[str, int]]] = {}
        # worker -> WindowedSketch of queue time / control-plane overhead
        self.queue: dict[str, WindowedSketch] = {}
        self.overhead: dict[str, WindowedSketch] = {}

    def _add(self, banks: dict, owner: str, idx: int, value: float,
             bucket) -> None:
        """One sample into ``owner``'s window ``idx``; ``bucket`` is
        :data:`_UNKEYED` unless the caller computed it."""
        bank = banks.get(owner)
        if bank is None:
            bank = banks[owner] = WindowedSketch(self.window,
                                                 self.relative_accuracy)
        sketch = bank.at(idx)
        sketch.add(value, sketch.bucket(value) if bucket is _UNKEYED else bucket)

    # -- recording ---------------------------------------------------------
    def observe(self, function: str, t: float, *, completed: bool,
                cold: bool = False,
                e2e_time: Optional[float] = None,
                queue_time: Optional[float] = None,
                overhead: Optional[float] = None,
                worker: str = "",
                buckets: Optional[tuple] = None) -> None:
        """Fold one finished invocation in at completion time ``t``.

        ``buckets`` holds the :meth:`~repro.health.sketch.DDSketch.bucket`
        of ``e2e_time``, ``queue_time`` and ``overhead`` when the caller
        already computed them on this collector's sketch geometry.
        """
        idx = window_index(t, self.window)
        by_window = self.counts.get(function)
        if by_window is None:
            by_window = self.counts[function] = {}
        row = by_window.get(idx)
        if row is None:
            row = by_window[idx] = dict.fromkeys(COUNT_KEYS, 0)
        row["total"] += 1
        if not completed:
            row["dropped"] += 1
            return
        row["completed"] += 1
        if cold:
            row["cold"] += 1
        e2e_bucket, queue_bucket, overhead_bucket = buckets or _UNKEYED3
        if e2e_time is not None:
            self._add(self.e2e, function, idx, e2e_time, e2e_bucket)
        if worker:
            if queue_time is not None:
                self._add(self.queue, worker, idx, queue_time, queue_bucket)
            if overhead is not None:
                self._add(self.overhead, worker, idx, overhead,
                          overhead_bucket)

    def observe_record(self, record, buckets: Optional[tuple] = None) -> None:
        """Fold in one :class:`~repro.metrics.registry.InvocationRecord`
        (``buckets`` as in :meth:`observe`).

        Dropped/timed-out invocations carry no useful e2e; they are folded
        in at arrival time.  Completed ones land in the window of their
        completion instant ``arrival + e2e_time``.
        """
        outcome = getattr(record.outcome, "value", record.outcome)
        completed = outcome not in ("dropped", "timeout")
        t = record.arrival + (record.e2e_time if completed else 0.0)
        self.observe(
            record.function, t,
            completed=completed,
            cold=bool(record.cold),
            e2e_time=record.e2e_time if completed else None,
            queue_time=record.queue_time if completed else None,
            overhead=record.overhead if completed else None,
            worker=record.worker or "",
            buckets=buckets,
        )

    # -- queries -----------------------------------------------------------
    def functions(self) -> list[str]:
        return sorted(self.counts)

    def workers(self) -> list[str]:
        return sorted(set(self.queue) | set(self.overhead))

    def window_range(self) -> tuple[int, int]:
        """Inclusive (first, last) window index with any activity; (0, -1)
        when nothing was observed."""
        indices = [idx for by_w in self.counts.values() for idx in by_w]
        if not indices:
            return (0, -1)
        return (min(indices), max(indices))

    def latest_e2e(self) -> Optional[DDSketch]:
        """The e2e sketch of the last window with a completed sample, merged
        over functions (what the live heartbeat's p99 reads); ``None``
        before the first completion."""
        indices = [idx for bank in self.e2e.values() for idx in bank.sketches]
        if not indices:
            return None
        last = max(indices)
        merged = DDSketch(self.relative_accuracy)
        for bank in self.e2e.values():
            sketch = bank.sketches.get(last)
            if sketch is not None:
                merged.merge(sketch)
        return merged

    def totals(self) -> dict[str, int]:
        out = dict.fromkeys(COUNT_KEYS, 0)
        for by_window in self.counts.values():
            for row in by_window.values():
                for key in COUNT_KEYS:
                    out[key] += row[key]
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, HealthCollector):
            return NotImplemented
        return (
            self.window == other.window
            and self.relative_accuracy == other.relative_accuracy
            and self.e2e == other.e2e
            and self.counts == other.counts
            and self.queue == other.queue
            and self.overhead == other.overhead
        )

    __hash__ = None  # mutable

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
