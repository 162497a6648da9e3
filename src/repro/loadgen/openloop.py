"""Open-loop load generation: timestamped invocation plans.

The open-loop generator produces a timeseries of invocations ahead of time
(repeatable experiments), parameterized by function mixture and IAT
distributions — exponential or empirical (trace-derived) — exactly the
framework Section 5.1 describes.  Plans can also be built directly from a
:class:`~repro.trace.model.Trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

import numpy as np

from ..core.function import FunctionRegistration, Invocation
from ..sim.core import Environment
from ..sim.distributions import Distribution, make_rng
from ..trace.model import Trace

__all__ = ["InvocationPlan", "FunctionMix", "build_plan", "plan_from_trace", "replay_plan"]


@dataclass(frozen=True)
class FunctionMix:
    """One function's share of an open-loop workload."""

    fqdn: str
    iat: Distribution
    start_offset: float = 0.0

    def __post_init__(self):
        if self.start_offset < 0:
            raise ValueError("start_offset must be non-negative")


@dataclass
class InvocationPlan:
    """A fully materialized open-loop schedule."""

    timestamps: np.ndarray   # sorted, seconds
    fqdns: list[str]         # parallel to timestamps
    duration: float

    # Arrivals per chunk for the streaming walk; large enough that the
    # per-chunk Python overhead amortizes, small enough that a chunk's
    # per-arrival intermediates never approach the plan's own footprint.
    CHUNK = 16384

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def __post_init__(self):
        if self.timestamps.size != len(self.fqdns):
            raise ValueError("timestamps and fqdns must be parallel")
        if self.timestamps.size and np.any(np.diff(self.timestamps) < 0):
            raise ValueError("timestamps must be sorted")

    def iter_chunks(
        self, chunk_size: Optional[int] = None
    ) -> Generator[tuple[int, np.ndarray, list[str]], None, None]:
        """Yield ``(start_index, timestamps_view, fqdn_slice)`` chunks.

        The timestamp column is a zero-copy view into the plan; the fqdn
        slice is the only per-chunk allocation.  Replay paths walk these
        instead of indexing the plan one arrival at a time, so a
        million-invocation plan never grows per-invocation intermediates
        beyond one chunk's worth.
        """
        chunk = int(chunk_size or self.CHUNK)
        if chunk < 1:
            raise ValueError("chunk_size must be >= 1")
        n = len(self)
        for a in range(0, n, chunk):
            b = min(a + chunk, n)
            yield a, self.timestamps[a:b], self.fqdns[a:b]


def build_plan(
    mixes: Sequence[FunctionMix],
    duration: float,
    seed: Optional[int] = 0,
) -> InvocationPlan:
    """Draw IATs per function until ``duration`` and merge the streams."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    if not mixes:
        raise ValueError("need at least one function in the mix")
    rng = make_rng(seed)
    ts_parts: list[np.ndarray] = []
    fq_parts: list[list[str]] = []
    for mix in mixes:
        t = mix.start_offset
        stamps = []
        while True:
            t += float(mix.iat.sample(rng))
            if t >= duration:
                break
            stamps.append(t)
        if stamps:
            ts_parts.append(np.array(stamps))
            fq_parts.append([mix.fqdn] * len(stamps))
    if not ts_parts:
        return InvocationPlan(np.empty(0), [], duration)
    ts = np.concatenate(ts_parts)
    fqdns = [f for part in fq_parts for f in part]
    order = np.argsort(ts, kind="stable")
    return InvocationPlan(ts[order], [fqdns[i] for i in order], duration)


def plan_from_trace(trace: Trace) -> InvocationPlan:
    """Turn a Trace into an invocation plan (fqdn = function name + '.1')."""
    # One string per function, shared by its invocations.
    names = [f"{f.name}.1" for f in trace.functions]
    fqdns = [names[i] for i in trace.function_idx.tolist()]
    return InvocationPlan(trace.timestamps.copy(), fqdns, trace.duration)


def replay_plan(
    env: Environment,
    worker,
    plan: InvocationPlan,
    grace: float = 120.0,
) -> list[Invocation]:
    """Replay a plan against a worker (or cluster); returns all invocations.

    The caller's worker must expose ``async_invoke``.  Replay is exact:
    each invocation fires at its planned timestamp relative to the current
    simulation time.
    """

    results: list[Invocation] = []
    pending: list = []

    def injector() -> Generator:
        start = env.now
        invoke = worker.async_invoke
        append = pending.append
        timeout = env.timeout
        for _, ts, fqdns in plan.iter_chunks():
            # One vectorized float conversion per chunk; adding the start
            # offset in numpy is the same IEEE add as start + float(t).
            targets = (start + ts).tolist()
            for target, fqdn in zip(targets, fqdns):
                delay = target - env.now
                if delay > 0:
                    yield timeout(delay)
                append(invoke(fqdn))

    proc = env.process(injector(), name="open-loop-injector")
    horizon = env.now + plan.duration + grace
    env.run(until=horizon)
    if not proc.triggered:  # pragma: no cover - defensive
        raise RuntimeError("injector did not finish; raise the grace period")
    for event in pending:
        if event.triggered:
            results.append(event.value)
    return results
