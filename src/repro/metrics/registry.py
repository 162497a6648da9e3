"""Counters, gauges and invocation-outcome accounting.

Ilúvatar tracks all internal/external function metrics itself rather than
relying on external monitoring services (Section 5.1).  This registry is
the equivalent: a single consistent view of counts, levels and per-function
outcome tallies that every component writes to and every experiment reads.
Latency distributions are not kept here: telemetry derives them from the
records when it exports a run (:mod:`repro.telemetry.distributions`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

__all__ = ["Outcome", "InvocationRecord", "MetricsRegistry"]


class Outcome(str, Enum):
    """Terminal state of an invocation."""

    WARM = "warm"
    COLD = "cold"
    DROPPED = "dropped"
    TIMEOUT = "timeout"  # killed after exceeding its execution limit
    BYPASSED = "bypass"  # ran, but skipped the queue (still warm or cold)


@dataclass(frozen=True, slots=True)
class InvocationRecord:
    """One finished (or dropped) invocation, as the experiments consume it."""

    function: str
    arrival: float
    outcome: Outcome
    exec_time: float = 0.0
    e2e_time: float = 0.0
    queue_time: float = 0.0
    overhead: float = 0.0
    cold: bool = False
    worker: Optional[str] = None
    # Joins the record to its spans (span tag = str(invocation_id)) for
    # the telemetry overhead decomposition; 0 = unknown/synthetic.
    invocation_id: int = 0

    @property
    def stretch(self) -> float:
        """Normalized end-to-end latency (paper's 'stretch')."""
        if self.exec_time <= 0:
            return float("nan")
        return self.e2e_time / self.exec_time


@dataclass
class MetricsRegistry:
    """Registry of counters, gauges, and completed invocation records."""

    clock: Callable[[], float] = lambda: 0.0
    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    gauges: dict[str, float] = field(default_factory=dict)
    records: list[InvocationRecord] = field(default_factory=list)

    # -- counters / gauges ----------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    # -- invocation records ----------------------------------------------
    def record_invocation(self, record: InvocationRecord) -> None:
        self.records.append(record)
        self.incr(f"invocations.{record.outcome.value}")
        if record.outcome not in (Outcome.DROPPED, Outcome.TIMEOUT):
            self.incr("invocations.completed")
            self.incr("invocations.cold" if record.cold else "invocations.warm_start")

    # -- rollups -----------------------------------------------------------
    def outcomes(self) -> dict[Outcome, int]:
        tally: dict[Outcome, int] = {o: 0 for o in Outcome}
        for rec in self.records:
            tally[rec.outcome] += 1
        return tally

    def outcomes_by_function(self) -> dict[str, dict[str, int]]:
        """Per-function {warm, cold, dropped} counts (Fig 7's breakdown)."""
        table: dict[str, dict[str, int]] = defaultdict(
            lambda: {"warm": 0, "cold": 0, "dropped": 0}
        )
        for rec in self.records:
            row = table[rec.function]
            if rec.outcome in (Outcome.DROPPED, Outcome.TIMEOUT):
                row["dropped"] += 1
            elif rec.cold:
                row["cold"] += 1
            else:
                row["warm"] += 1
        return dict(table)

    def completed(self) -> list[InvocationRecord]:
        return [
            r for r in self.records
            if r.outcome not in (Outcome.DROPPED, Outcome.TIMEOUT)
        ]

    def overheads(self) -> list[float]:
        """Control-plane overhead samples (e2e minus execution), completed only."""
        return [r.overhead for r in self.completed()]

    def cold_ratio(self) -> float:
        done = self.completed()
        if not done:
            return float("nan")
        return sum(1 for r in done if r.cold) / len(done)

    def drop_ratio(self) -> float:
        if not self.records:
            return float("nan")
        dropped = sum(1 for r in self.records if r.outcome is Outcome.DROPPED)
        return dropped / len(self.records)

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.records.clear()
