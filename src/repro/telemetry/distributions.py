"""A run's latency distributions, derived from its records at export.

Nothing on the simulation path feeds a histogram: the workers only
append invocation records, and the export folds the merged record list
once (:class:`RecordFold`, in the walk that writes ``records.jsonl``) —
the same list in both engines, so serial and sharded run dirs report
identical numbers.  Each distribution is one
:class:`~repro.health.sketch.DDSketch` at its default 1% relative
accuracy plus the exact ``math.fsum`` of its samples, which gives
``summary.json`` its exact ``mean`` and ``metrics.prom`` its ``_sum``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ..health.sketch import DDSketch
from ..metrics.registry import Outcome
from .decomposition import CLAIM_WAIT_PHASE

__all__ = ["LATENCY_HISTOGRAMS", "Distribution", "RecordFold",
           "latency_distributions"]

# Always present, over the completed invocations.  ``claim_wait_seconds``
# joins them when the breakdowns carry a claim_wait phase (pull dispatch).
LATENCY_HISTOGRAMS = ("e2e_seconds", "queue_seconds", "overhead_seconds")


class Distribution:
    """One latency distribution: a sketch plus the exact sample sum."""

    __slots__ = ("sketch", "total")

    def __init__(self, sketch: DDSketch, total: float):
        self.sketch = sketch
        self.total = total

    @classmethod
    def of(cls, samples: Sequence[float]) -> "Distribution":
        sketch = DDSketch()
        observe = sketch.observe
        for value in samples:
            observe(value)
        return cls(sketch, math.fsum(samples))

    def summary(self) -> dict:
        """``count/mean/min/max/p50/p90/p99`` for ``summary.json``."""
        sketch = self.sketch
        return {
            "count": sketch.count,
            "mean": self.total / sketch.count if sketch.count else float("nan"),
            **{k: v for k, v in sketch.summary().items() if k != "count"},
        }


class RecordFold:
    """Everything the export derives from the merged records, in one walk.

    :meth:`add` takes the records in merge order and keeps the outcome
    tallies (first-seen order), the id → overhead map that
    :meth:`~repro.telemetry.decomposition.PhaseColumns.match` checks the
    phase sums against, the e2e/queue/overhead sketches and sample lists
    of the completed records and, given a
    :class:`~repro.health.slo.HealthConfig`, the run's
    :class:`~repro.health.HealthCollector` as ``health``.  A completed
    sample's bucket key is computed once and feeds both its run-wide
    sketch and, when the geometries agree, its health sketches.
    """

    __slots__ = ("outcomes", "overheads", "health", "_sketches",
                 "_samples", "_shared")

    def __init__(self, health_config=None):
        self.outcomes: dict[str, int] = {}
        self.overheads: dict[int, float] = {}
        self.health = None if health_config is None else health_config.collector()
        self._sketches = tuple(DDSketch() for _ in LATENCY_HISTOGRAMS)
        self._samples: tuple = tuple([] for _ in LATENCY_HISTOGRAMS)
        # Both kinds of sketch use DDSketch's default min_value.
        self._shared = (self.health is not None and self.health.relative_accuracy
                        == self._sketches[0].relative_accuracy)

    def add(self, r) -> None:
        """Fold in one :class:`~repro.metrics.registry.InvocationRecord`."""
        outcome = r.outcome
        value = outcome.value
        self.outcomes[value] = self.outcomes.get(value, 0) + 1
        if r.invocation_id:
            self.overheads[int(r.invocation_id)] = float(r.overhead)
        health = self.health
        if outcome is Outcome.DROPPED or outcome is Outcome.TIMEOUT:
            if health is not None:
                health.observe_record(r)
            return
        e2e_time, queue_time, overhead = r.e2e_time, r.queue_time, r.overhead
        e2e, queue, over = self._sketches
        buckets = (e2e.bucket(e2e_time), queue.bucket(queue_time),
                   over.bucket(overhead))
        e2e.add(e2e_time, buckets[0])
        queue.add(queue_time, buckets[1])
        over.add(overhead, buckets[2])
        e2e_samples, queue_samples, overhead_samples = self._samples
        e2e_samples.append(e2e_time)
        queue_samples.append(queue_time)
        overhead_samples.append(overhead)
        if health is not None:
            health.observe_record(r, buckets if self._shared else None)

    @property
    def count(self) -> int:
        """Records folded so far."""
        return sum(self.outcomes.values())

    def distributions(self, claim_wait: Sequence[float] = ()) -> dict[str, Distribution]:
        """The run's distributions by name, in name order: e2e, queue time
        and overhead of the completed records, and ``claim_wait_seconds``
        when ``claim_wait`` (the breakdowns' claim-wait phases) is
        non-empty."""
        out = {
            name: Distribution(sketch, math.fsum(samples))
            for name, sketch, samples in zip(
                LATENCY_HISTOGRAMS, self._sketches, self._samples)
        }
        if claim_wait:
            out["claim_wait_seconds"] = Distribution.of(claim_wait)
        return {name: out[name] for name in sorted(out)}


def latency_distributions(records: Iterable, breakdowns: Sequence) -> dict[str, Distribution]:
    """The distributions of ``records`` (see :meth:`RecordFold.
    distributions`), with claim wait from the breakdowns' claim_wait
    phase when any breakdown has one."""
    fold = RecordFold()
    for r in records:
        fold.add(r)
    return fold.distributions([b.phases[CLAIM_WAIT_PHASE] for b in breakdowns
                               if CLAIM_WAIT_PHASE in b.phases])
