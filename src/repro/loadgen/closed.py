"""Closed-loop load generation (paper Section 5.1, and Figure 1's setup).

N client "threads" each invoke a function, wait for completion, and invoke
again — so offered load tracks system speed.  Figure 1's concurrency sweep
is exactly this: the number of clients is the number of concurrent
invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

import numpy as np

from ..core.function import Invocation
from ..sim.core import Environment

__all__ = ["ClosedLoopClient", "ClosedLoopResult", "run_closed_loop"]


@dataclass
class ClosedLoopResult:
    """Everything the clients observed."""

    invocations: list[Invocation] = field(default_factory=list)
    duration: float = 0.0

    @property
    def completed(self) -> list[Invocation]:
        return [i for i in self.invocations if not i.dropped]

    def overheads(self) -> np.ndarray:
        """Per-invocation control-plane overhead (seconds)."""
        return np.array([i.overhead for i in self.completed])

    @property
    def throughput(self) -> float:
        if self.duration <= 0:
            return float("nan")
        return len(self.completed) / self.duration


class ClosedLoopClient:
    """One client thread: invoke -> wait -> repeat."""

    def __init__(
        self,
        worker,
        fqdn: str,
        think_time: float = 0.0,
        max_invocations: Optional[int] = None,
    ):
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        self.worker = worker
        self.fqdn = fqdn
        self.think_time = think_time
        self.max_invocations = max_invocations
        self.results: list[Invocation] = []

    def run(self, env: Environment, until: float) -> Generator:
        count = 0
        while env.now < until:
            if self.max_invocations is not None and count >= self.max_invocations:
                break
            inv = yield self.worker.async_invoke(self.fqdn)
            self.results.append(inv)
            count += 1
            if self.think_time > 0:
                yield env.timeout(self.think_time)


def run_closed_loop(
    env: Environment,
    worker,
    fqdn: str,
    clients: int,
    duration: float,
    warmup: float = 0.0,
    think_time: float = 0.0,
) -> ClosedLoopResult:
    """Drive ``clients`` closed-loop clients for ``duration`` seconds.

    Invocations arriving during the warmup window are discarded from the
    result (they prime the container pool), mirroring how the paper
    measures warm-start overheads.
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    if duration <= 0:
        raise ValueError("duration must be positive")
    start = env.now
    until = start + warmup + duration
    runners = [
        ClosedLoopClient(worker, fqdn, think_time=think_time) for _ in range(clients)
    ]
    procs = [env.process(c.run(env, until)) for c in runners]
    env.run(until=until + 120.0)  # grace period for in-flight completions
    for p in procs:
        if not p.triggered:  # pragma: no cover - defensive
            raise RuntimeError("closed-loop client did not finish")
    result = ClosedLoopResult(duration=duration)
    cutoff = start + warmup
    for c in runners:
        result.invocations.extend(i for i in c.results if i.arrival >= cutoff)
    return result
