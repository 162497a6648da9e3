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
* **Destroy in the caller's step** — a container is torn down by stepping
  the backend's destroy inside the process that needs it (a sub-generator:
  no helper process, no zero-time hop).  An eviction, wired through the
  store's ``on_evict`` hook, does not wait for its destroy: the destroy
  runs inline up to its first wait and only a destroy that costs time
  continues in a DES process from there, so a zero-cost destroy credits
  the gauge before :meth:`ContainerPool.evict_for` returns;
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
            policy, float("inf"), on_evict=self._destroy_detached
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

    def occupancy(self) -> tuple[int, int]:
        """``(available, in_use)`` container counts from one scan."""
        available = len(self._idle())
        return available, len(self.cache) - available

    def pooled_memory_mb(self) -> float:
        """Memory held by idle warm containers (the keep-alive footprint)."""
        return sum(e.memory_mb for e in self._idle())

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
        """Destroy a claimed container without pooling it (timeout path);
        a sub-generator of the caller's process."""
        self.cache.discard(entry)
        yield from self._destroy(entry)

    def drop_in_use(self, entry: WarmContainer) -> None:
        """Destroy a claimed container without pooling it and without
        waiting for the destroy (failure path)."""
        self.cache.discard(entry)
        self._destroy_detached(entry)

    # -- memory admission --------------------------------------------------
    def take_memory(self, memory_mb: float, wait_timeout: float) -> Generator:
        """Admission: obtain memory for a cold start, evicting if needed.

        Returns True on success; False when the function needs more than
        the gauge's capacity (shed at once, nothing evicted) or the wait
        outlasted ``wait_timeout`` (the caller then sheds the
        invocation)."""
        memory = self.memory
        if memory.try_take(memory_mb):
            return True
        if memory_mb > memory.capacity:
            return False
        # Pick victims synchronously: a zero-cost destroy credits the
        # gauge before evict_for returns.  Take at once only when nothing
        # else is due at this instant, so no same-instant order moves
        # (invocations released together, say by a GC pause, queue as
        # before); try_take fails while anyone is queued (FIFO).
        self.evict_for(memory_mb - max(memory.level, 0.0))
        if self.env.peek() > self.env.now and memory.try_take(memory_mb):
            return True
        take = memory.take(memory_mb)
        timeout = self.env.timeout(wait_timeout)
        result = yield self.env.any_of([take, timeout])
        if take in result:
            return True
        # Timed out: the gauge will eventually grant the take; return the
        # memory as soon as it does so accounting stays balanced.  A grant
        # at the timeout's own instant may already have been processed
        # (a callback added now would never run): return it at once.
        if take.processed:
            memory.give(memory_mb)
        else:
            take.callbacks.append(lambda _e: memory.give(memory_mb))
        return False

    # -- eviction ----------------------------------------------------------
    def _destroy(self, entry: WarmContainer) -> Generator:
        yield from self.backend.destroy(entry.container)
        self.memory.give(entry.memory_mb)

    def _destroy_detached(self, entry: WarmContainer) -> None:
        """Destroy ``entry`` without waiting for it: step the destroy in
        the caller's step, and continue it in a DES process only from
        its first wait (a destroy that costs no time needs none)."""
        destroy = self._destroy(entry)
        try:
            first = destroy.send(None)
        except StopIteration:
            return
        self.env.process(_resumed(destroy, first), name="destroy")

    def evict_for(self, needed_mb: float) -> float:
        """Synchronously pick victims to free ``needed_mb``; returns the
        amount of memory that will be freed (the gauge is credited when
        each victim's destroy is done: before this returns when the
        destroy costs no time)."""
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


def _resumed(gen: Generator, event) -> Generator:
    """Continue ``gen``, already stepped to its first wait on ``event``:
    each value or failure a wait delivers (an ``Interrupt`` included) is
    forwarded into ``gen`` until it returns."""
    while True:
        try:
            try:
                value = yield event
            except Exception as exc:
                event = gen.throw(exc)
            else:
                event = gen.send(value)
        except StopIteration as stop:
            return stop.value
