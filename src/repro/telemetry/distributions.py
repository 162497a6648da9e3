"""A run's latency distributions, derived from its records at export.

Nothing on the simulation path feeds a histogram: the workers only
append invocation records, and the export builds every distribution
once from the merged record and breakdown lists — the same lists in
both engines, so serial and sharded run dirs report identical numbers.  Each distribution is one
:class:`~repro.health.sketch.DDSketch` at its default 1% relative
accuracy plus the exact ``math.fsum`` of its samples, which gives
``summary.json`` its exact ``mean`` and ``metrics.prom`` its ``_sum``.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..health.sketch import DDSketch
from ..metrics.registry import Outcome
from .decomposition import CLAIM_WAIT_PHASE

__all__ = ["LATENCY_HISTOGRAMS", "Distribution", "latency_distributions"]

# Always present, over the completed invocations.  ``claim_wait_seconds``
# joins them when the breakdowns carry a claim_wait phase (pull dispatch).
LATENCY_HISTOGRAMS = ("e2e_seconds", "queue_seconds", "overhead_seconds")


class Distribution:
    """One latency distribution: a sketch plus the exact sample sum."""

    __slots__ = ("sketch", "total")

    def __init__(self, samples: Sequence[float]):
        sketch = self.sketch = DDSketch()
        observe = sketch.observe
        for value in samples:
            observe(value)
        self.total = math.fsum(samples)

    def summary(self) -> dict:
        """``count/mean/min/max/p50/p90/p99`` for ``summary.json``."""
        sketch = self.sketch
        return {
            "count": sketch.count,
            "mean": self.total / sketch.count if sketch.count else float("nan"),
            **{k: v for k, v in sketch.summary().items() if k != "count"},
        }


def latency_distributions(records: Sequence, breakdowns: Sequence) -> dict[str, Distribution]:
    """The run's distributions by name, in name order: e2e, queue time and
    overhead of the completed records, and claim wait from the
    breakdowns' claim_wait phase when any breakdown has one."""
    done = [r for r in records if r.outcome not in (Outcome.DROPPED, Outcome.TIMEOUT)]
    samples = {
        "e2e_seconds": [r.e2e_time for r in done],
        "queue_seconds": [r.queue_time for r in done],
        "overhead_seconds": [r.overhead for r in done],
    }
    claim = [b.phases[CLAIM_WAIT_PHASE] for b in breakdowns
             if CLAIM_WAIT_PHASE in b.phases]
    if claim:
        samples["claim_wait_seconds"] = claim
    return {name: Distribution(samples[name]) for name in sorted(samples)}
