"""Cache-entry model shared by the keep-alive policies.

A :class:`WarmContainer` is one initialized sandbox held in memory.  The
keep-alive problem treats it as a cache object with a *size* (its memory
footprint), a *cost* (the initialization overhead a miss would pay), a
frequency and a recency — exactly the four-way tradeoff the Greedy-Dual
family navigates.
"""

from __future__ import annotations

import itertools

__all__ = ["WarmContainer"]

_container_ids = itertools.count(1)


class WarmContainer:
    """One warm container: cache metadata plus occupancy state.

    ``busy_until`` is the simulated time at which the container finishes
    its current invocation and becomes idle (and therefore evictable).
    ``(priority, stamp, seq)`` is the container's current eviction key:
    ``stamp`` counts its priority updates and ``seq`` is the store-wide
    counter value its last update took.  The store's heap holds one live
    tuple per container, keyed ``(heap_priority, heap_stamp, ...)``; an
    access bumps the current key only, and the heap re-keys the tuple when
    it pops (see :class:`~repro.keepalive.cache.KeepAliveCache`).
    ``container`` is the live sandbox when the DES worker's pool owns the
    entry, and ``None`` in the trace simulator.
    """

    __slots__ = (
        "id",
        "fqdn",
        "memory_mb",
        "init_cost",
        "warm_time",
        "freq",
        "last_used",
        "inserted_at",
        "busy_until",
        "priority",
        "expires_at",
        "stamp",
        "seq",
        "heap_priority",
        "heap_stamp",
        "evicted",
        "prewarmed",
        "container",
    )

    def __init__(
        self,
        fqdn: str,
        memory_mb: float,
        init_cost: float,
        warm_time: float,
        now: float,
        prewarmed: bool = False,
    ):
        if memory_mb <= 0:
            raise ValueError(f"memory_mb must be positive, got {memory_mb}")
        if init_cost < 0:
            raise ValueError(f"init_cost must be non-negative, got {init_cost}")
        self.id = next(_container_ids)
        self.fqdn = fqdn
        self.memory_mb = float(memory_mb)
        self.init_cost = float(init_cost)
        self.warm_time = float(warm_time)
        self.freq = 1
        self.last_used = now
        self.inserted_at = now
        self.busy_until = now
        self.priority = 0.0
        self.expires_at = float("inf")
        self.stamp = 0
        self.seq = 0
        self.heap_priority = float("inf")
        self.heap_stamp = -1  # no live heap tuple
        self.evicted = False
        self.prewarmed = prewarmed
        self.container = None

    def is_idle(self, now: float) -> bool:
        return self.busy_until <= now

    def touch(self, now: float) -> None:
        """Register an access: bump frequency and recency."""
        self.freq += 1
        self.last_used = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WarmContainer {self.fqdn}#{self.id} mem={self.memory_mb} "
            f"freq={self.freq} pri={self.priority:.4g}>"
        )
