"""Function registrations, invocations, and results.

A *registration* is the platform's durable description of a function: its
container image, resource limits, and timing profile.  An *invocation* is
one request flowing through the control plane; it accumulates timestamps as
it passes ingestion, queueing, dispatch and execution, from which the
end-to-end latency, queue time and control-plane overhead (the paper's
Figure 2 components) are derived.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["FunctionRegistration", "Invocation", "InvocationResult"]

_invocation_ids = itertools.count(1)


@dataclass(frozen=True)
class FunctionRegistration:
    """A registered function.

    ``warm_time``/``cold_time`` describe what the *function code* costs: the
    warm time is pure execution, the cold time adds the code/data
    initialization (imports, model downloads).  Container-creation latency
    is *not* included here — it belongs to the container backend, mirroring
    the paper's split between function init and sandbox creation.
    """

    name: str
    image: str = "repro/agent:latest"
    memory_mb: float = 128.0
    cpus: float = 1.0
    warm_time: float = 0.1
    cold_time: float = 0.2
    version: int = 1
    # Execution time limit; None = unlimited.  FaaS platforms kill
    # invocations that exceed their configured timeout.
    timeout: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("function name must be non-empty")
        # fqdn() sits on the per-invocation path several times over; the
        # registration is frozen, so compute it once.
        object.__setattr__(self, "_fqdn", f"{self.name}.{self.version}")
        # Written as ``not x > 0`` so that NaN (every comparison False) is
        # refused too: a NaN time reaches the kernel as a NaN heap key.
        if not self.memory_mb > 0:
            raise ValueError(f"memory_mb must be positive, got {self.memory_mb}")
        if not self.cpus > 0:
            raise ValueError(f"cpus must be positive, got {self.cpus}")
        if not (self.warm_time >= 0 and self.cold_time >= 0):
            raise ValueError("execution times must be non-negative")
        if self.cold_time < self.warm_time:
            raise ValueError(
                f"cold_time ({self.cold_time}) must be >= warm_time "
                f"({self.warm_time}); cold includes initialization"
            )
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")

    @property
    def init_time(self) -> float:
        """Code/data initialization overhead (cold minus warm)."""
        return self.cold_time - self.warm_time

    def fqdn(self) -> str:
        """Fully qualified name (name + version), the pool/cache key."""
        return self._fqdn


@dataclass(slots=True)
class Invocation:
    """One request travelling through the control plane."""

    function: FunctionRegistration
    arrival: float
    args: Any = None
    id: int = field(default_factory=lambda: next(_invocation_ids))
    # Timestamps stamped as the invocation progresses (simulated seconds).
    enqueued_at: Optional[float] = None
    dispatched_at: Optional[float] = None
    exec_started_at: Optional[float] = None
    exec_finished_at: Optional[float] = None
    completed_at: Optional[float] = None
    cold: bool = False
    bypassed: bool = False
    dropped: bool = False
    drop_reason: Optional[str] = None
    timed_out: bool = False
    worker: Optional[str] = None
    # Pull dispatch: when a worker claimed this invocation from the shared
    # logical queue, ``offered_at`` is the submit time (and equals
    # ``arrival``, so e2e/overhead include the claim wait) and
    # ``claimed_at`` is when the worker received it.  Push leaves both None.
    offered_at: Optional[float] = None
    claimed_at: Optional[float] = None

    @property
    def queue_time(self) -> float:
        """Time spent waiting in the invocation queue."""
        if self.enqueued_at is None or self.dispatched_at is None:
            return 0.0
        return self.dispatched_at - self.enqueued_at

    @property
    def exec_time(self) -> float:
        if self.exec_started_at is None or self.exec_finished_at is None:
            return 0.0
        return self.exec_finished_at - self.exec_started_at

    @property
    def e2e_time(self) -> float:
        """Flow time: arrival to completion."""
        if self.completed_at is None:
            return 0.0
        return self.completed_at - self.arrival

    @property
    def overhead(self) -> float:
        """Control-plane overhead: everything that is not function code."""
        return max(self.e2e_time - self.exec_time, 0.0)

    @property
    def stretch(self) -> float:
        """Normalized end-to-end latency (e2e / execution)."""
        if self.exec_time <= 0:
            return float("nan")
        return self.e2e_time / self.exec_time


@dataclass(frozen=True)
class InvocationResult:
    """What the platform returns to the caller."""

    invocation_id: int
    function: str
    success: bool
    value: Any = None
    cold: bool = False
    e2e_time: float = 0.0
    exec_time: float = 0.0
    overhead: float = 0.0
    error: Optional[str] = None
