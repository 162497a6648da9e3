"""The worker's warm-container pool (Sections 3.2.1, 3.2.2).

The pool is the keep-alive cache in its live form: a DES shell around
:class:`~repro.keepalive.cache.KeepAliveCache`, the same store, victim
heap and policies the trace simulator runs.  Containers are claimed on
invocation, returned afterwards, and evicted by the configured caching
policy.  The shell adds only what a live worker needs:

* **Memory admission** — the worker's :class:`Gauge` admits cold starts
  (:meth:`ContainerPool.take_memory`, evicting on demand) and is credited
  when a destroyed container is gone, so the store itself runs without a
  budget;
* **Asynchronous destroy** — evicted containers are torn down by a DES
  process, wired through the store's ``on_evict`` hook;
* **Background eviction** — victims are picked and destroyed by a periodic
  process off the critical path (like the kernel page cache), maintaining
  a free-memory buffer so bursts do not stall on eviction; expired
  containers of non-work-conserving policies (TTL/HIST) are reaped there
  or on access.

Pool entries are the store's :class:`~repro.keepalive.entries.WarmContainer`
objects; ``entry.container`` is the backend sandbox.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..containers.base import Container, ContainerBackend
from ..keepalive.cache import KeepAliveCache
from ..keepalive.entries import WarmContainer
from ..keepalive.policies import KeepAlivePolicy
from ..sim.core import Environment
from ..sim.resources import Gauge

__all__ = ["ContainerPool"]


class ContainerPool:
    """All in-use and available containers of a worker."""

    def __init__(
        self,
        env: Environment,
        backend: ContainerBackend,
        policy: KeepAlivePolicy,
        memory: Gauge,
        free_buffer_mb: float = 0.0,
        eviction_interval: float = 2.0,
    ):
        if free_buffer_mb < 0:
            raise ValueError("free_buffer_mb must be non-negative")
        if eviction_interval <= 0:
            raise ValueError("eviction_interval must be positive")
        self.env = env
        self.backend = backend
        self.memory = memory
        self.free_buffer_mb = float(free_buffer_mb)
        self.eviction_interval = float(eviction_interval)
        # The gauge admits memory, so the store needs no budget of its own.
        self.cache = KeepAliveCache(
            policy, float("inf"), on_evict=self._destroy_evicted
        )
        self._running = False

    # -- introspection -----------------------------------------------------
    @property
    def evictions(self) -> int:
        return self.cache.stats.evictions

    @property
    def expirations(self) -> int:
        return self.cache.stats.expirations

    def _idle(self, fqdn: Optional[str] = None) -> list[WarmContainer]:
        now = self.env.now
        entries = self.cache if fqdn is None else self.cache.containers_of(fqdn)
        return [e for e in entries if e.is_idle(now)]

    def available_count(self, fqdn: Optional[str] = None) -> int:
        return len(self._idle(fqdn))

    def in_use_count(self) -> int:
        return len(self.cache) - len(self._idle())

    def pooled_memory_mb(self) -> float:
        """Memory held by idle warm containers (the keep-alive footprint)."""
        return sum(e.memory_mb for e in self._idle())

    def stats(self) -> dict:
        """Point-in-time pool gauges, as the telemetry sampler reads them."""
        return {
            "available": self.available_count(),
            "in_use": self.in_use_count(),
            "pooled_memory_mb": self.pooled_memory_mb(),
            "evictions": self.evictions,
            "expirations": self.expirations,
        }

    def has_available(self, fqdn: str) -> bool:
        return self.cache.has_idle(fqdn, self.env.now)

    # -- acquire / return ------------------------------------------------
    def try_acquire(self, fqdn: str) -> Optional[WarmContainer]:
        """Claim a warm container; expired entries are reaped on the way."""
        return self.cache.lookup(fqdn, self.env.now)

    def add_in_use(self, container: Container, init_cost: float,
                   prewarmed: bool = False) -> WarmContainer:
        """Register a freshly cold-started container, claimed by its creator.

        The caller must have taken the container's memory from the gauge
        already (before the backend create, so admission happens first).
        """
        entry = self.cache.insert(
            container.fqdn,
            container.memory_mb,
            init_cost,
            container.registration.warm_time,
            self.env.now,
            prewarmed=prewarmed,
        )
        entry.container = container
        self.cache.finish(entry, float("inf"))  # busy until returned
        return entry

    def return_entry(self, entry: WarmContainer) -> None:
        """Invocation done: container back to the warm pool."""
        self.cache.release(entry, self.env.now)

    def discard_in_use(self, entry: WarmContainer) -> Generator:
        """Destroy a claimed container without pooling it (failure path)."""
        self.cache.discard(entry)
        yield from self._destroy(entry)

    # -- memory admission --------------------------------------------------
    def take_memory(self, memory_mb: float, wait_timeout: float) -> Generator:
        """Admission: obtain memory for a cold start, evicting if needed.

        Returns True on success; False when the wait outlasted
        ``wait_timeout`` (the caller then sheds the invocation)."""
        memory = self.memory
        if memory.try_take(memory_mb):
            return True
        # Pick victims synchronously (destruction is async).
        self.evict_for(memory_mb - max(memory.level, 0.0))
        take = memory.take(memory_mb)
        timeout = self.env.timeout(wait_timeout)
        result = yield self.env.any_of([take, timeout])
        if take in result:
            return True
        # Timed out: the gauge will eventually grant the take; return the
        # memory as soon as it does so accounting stays balanced.
        take.callbacks.append(lambda _e: memory.give(memory_mb))
        return False

    # -- eviction ----------------------------------------------------------
    def _destroy(self, entry: WarmContainer) -> Generator:
        yield self.env.process(self.backend.destroy(entry.container))
        self.memory.give(entry.memory_mb)

    def _destroy_evicted(self, entry: WarmContainer) -> None:
        self.env.process(self._destroy(entry))

    def evict_for(self, needed_mb: float) -> float:
        """Synchronously pick victims to free ``needed_mb``; returns the
        amount of memory that will be freed (destruction is async but the
        gauge is credited on completion)."""
        return self.cache.evict_for(needed_mb, self.env.now)

    def sweep(self) -> None:
        """One background-eviction pass: expire, then restore free buffer."""
        self.cache.expire(self.env.now)
        deficit = self.free_buffer_mb - self.memory.level
        if deficit > 0:
            self.evict_for(deficit)

    def evictor(self) -> Generator:
        """Background DES process: periodic off-critical-path eviction."""
        self._running = True
        while self._running:
            yield self.env.timeout(self.eviction_interval)
            self.sweep()

    def stop(self) -> None:
        self._running = False
