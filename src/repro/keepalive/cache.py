"""Memory-bounded warm-container cache: the one keep-alive store.

Both simulators run on this store.  The fast trace simulator (Figures
4/5) drives it directly; the DES worker and the OpenWhisk model drive it
through :class:`~repro.core.container_pool.ContainerPool`, a thin shell
that adds the memory gauge, container destroy and background eviction.
It tracks warm containers per function under a total memory budget, using
a lazy-deletion min-heap ordered by policy priority for eviction, and lazy
expiry for non-work-conserving policies (TTL/HIST).

A container is claimed by :meth:`KeepAliveCache.lookup` (or created busy
by :meth:`~KeepAliveCache.insert`).  The trace simulator knows when the
invocation ends and sets it with :meth:`~KeepAliveCache.finish`; the DES
does not, so it claims until :meth:`~KeepAliveCache.release`, which
restarts the container's idle clock.

Performance notes (this is the hot loop of multi-million-invocation
sweeps): entries use ``__slots__``.  The eviction heap is re-keyed
lazily: a warm hit or a return only bumps the container's current key
``(priority, stamp, seq)``, and the container's one heap tuple is pushed
again under that key when it pops, so the heap takes one push per
eviction rather than one per access.  No shipped policy lowers a
priority on access, so a container's current key is never below its
heap key and the first current tuple to pop is the exact victim an
eagerly re-keyed heap would pop; a priority that does fall is pushed at
once, leaving the old tuple dead.  Dead tuples (from falls, expiries and
discards) are dropped by version stamp rather than heap surgery, and the
heap is compacted once they outnumber live ones.  Per-function container
lists are short so linear scans beat fancier indexes, and
:meth:`KeepAliveCache.lookup` makes one pass over them without copying,
collecting expired containers only when there are any.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Optional

from .entries import WarmContainer
from .policies import KeepAlivePolicy

__all__ = ["KeepAliveCache", "CacheStats"]


class CacheStats:
    """Counters the cache maintains as it runs."""

    __slots__ = (
        "hits",
        "misses",
        "evictions",
        "expirations",
        "rejected",
        "preloads",
        "bytes_evicted_mb",
    )

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.rejected = 0
        self.preloads = 0
        self.bytes_evicted_mb = 0.0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return float("nan")
        return self.hits / self.accesses

    @property
    def miss_ratio(self) -> float:
        if self.accesses == 0:
            return float("nan")
        return self.misses / self.accesses


class KeepAliveCache:
    """Warm containers under a memory budget, evicted by ``policy``."""

    def __init__(
        self,
        policy: KeepAlivePolicy,
        capacity_mb: float,
        on_evict: Optional[Callable[[WarmContainer], None]] = None,
    ):
        if capacity_mb <= 0:
            raise ValueError(f"capacity_mb must be positive, got {capacity_mb}")
        self.policy = policy
        self.capacity_mb = float(capacity_mb)
        self.used_mb = 0.0
        # The most memory the store may hold: the budget, or more after a
        # shrink that busy containers kept it over (see check_invariants).
        self._ceiling_mb = self.capacity_mb
        self.stats = CacheStats()
        self._containers: dict[str, list[WarmContainer]] = {}
        self._count = 0
        # Eviction heap of (priority, stamp, seq, container).  Each resident
        # container has exactly one live tuple, the one whose stamp is its
        # heap_stamp, keyed at or below its current key; other tuples are
        # dead.
        self._evict_heap: list[tuple[float, int, int, WarmContainer]] = []
        self._seq = 0
        self._on_evict_cb = on_evict

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[WarmContainer]:
        """Every resident container, idle or busy."""
        for containers in self._containers.values():
            yield from containers

    def containers_of(self, fqdn: str) -> list[WarmContainer]:
        return list(self._containers.get(fqdn, ()))

    def has_idle(self, fqdn: str, now: float) -> bool:
        """Whether :meth:`lookup` would hit, without claiming or reaping."""
        for c in self._containers.get(fqdn, ()):
            if c.busy_until <= now < c.expires_at:
                return True
        return False

    @property
    def free_mb(self) -> float:
        return self.capacity_mb - self.used_mb

    def set_capacity(self, capacity_mb: float, now: float) -> None:
        """Resize the cache (dynamic provisioning); shrink evicts idle
        containers immediately to get under the new budget.

        Busy containers cannot be evicted, so a shrink may leave the store
        over the new budget.  Nothing evicts them once they go idle; the
        excess only falls as memory leaves (see :meth:`check_invariants`).
        """
        if capacity_mb <= 0:
            raise ValueError(f"capacity_mb must be positive, got {capacity_mb}")
        self.capacity_mb = float(capacity_mb)
        if self.used_mb > self.capacity_mb:
            self.evict_for(self.used_mb - self.capacity_mb, now)
        self._ceiling_mb = max(self.used_mb, self.capacity_mb)

    # -- heap plumbing -------------------------------------------------------
    def _push_heap(self, container: WarmContainer) -> None:
        """Push the container's current key as its live heap tuple."""
        heap = self._evict_heap
        container.heap_priority = container.priority
        container.heap_stamp = container.stamp
        heapq.heappush(
            heap, (container.priority, container.stamp, container.seq, container)
        )
        if len(heap) > 2 * self._count + 64:
            self._compact()

    def _compact(self) -> None:
        """Drop dead heap tuples: those a fallen priority, an expiry or a
        discard left behind.  Keys are unique (``seq``), so the pop order
        of the live tuples is unchanged."""
        heap = [t for t in self._evict_heap if t[1] == t[3].heap_stamp]
        heapq.heapify(heap)
        self._evict_heap = heap

    def _restamp(self, container: WarmContainer) -> None:
        """Give the container a new current key after a priority update.

        Its heap tuple stays where it is and is re-keyed when it pops,
        unless the priority fell below the tuple's: then the tuple would
        pop too late, so the new key is pushed now.
        """
        container.stamp += 1
        self._seq += 1
        container.seq = self._seq
        if container.priority < container.heap_priority:
            self._push_heap(container)

    # -- expiry ------------------------------------------------------------
    def expire(self, now: float) -> int:
        """Evict every idle container whose policy expiry has passed.

        TTL-like policies are non-work-conserving: containers leave the
        cache even without memory pressure.  The simulator does not sweep:
        :meth:`lookup` reaps a function's expired containers lazily.
        """
        expired = []
        for containers in self._containers.values():
            for c in containers:
                if c.expires_at <= now and c.is_idle(now):
                    expired.append(c)
        for c in expired:
            self._remove(c, expired_eviction=True)
        return len(expired)

    # -- main operations -----------------------------------------------------
    def lookup(self, fqdn: str, now: float) -> Optional[WarmContainer]:
        """Find an idle, unexpired warm container; count hit/miss; claim it.

        On a hit the container is marked busy (the caller sets the real
        completion time via :meth:`finish`) and its policy priority is
        refreshed.
        """
        # One pass: the first idle, unexpired container is the pick; idle,
        # expired ones are reaped lazily, in list order, after the scan
        # (``is_idle`` is inlined: this is the simulator's hottest call).
        best = None
        expired = None
        for c in self._containers.get(fqdn, ()):
            if c.busy_until > now:
                continue
            if c.expires_at <= now:
                if expired is None:
                    expired = [c]
                else:
                    expired.append(c)
            elif best is None:
                best = c
        if expired is not None:
            for c in expired:
                self._remove(c, expired_eviction=True)
        if best is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        # Claim the container: it is busy until the caller calls finish().
        best.busy_until = float("inf")
        self.policy.on_access(best, now)
        self._restamp(best)
        return best

    def insert(
        self,
        fqdn: str,
        memory_mb: float,
        init_cost: float,
        warm_time: float,
        now: float,
        prewarmed: bool = False,
    ) -> Optional[WarmContainer]:
        """Add a new warm container, evicting idle victims to make room.

        Returns ``None`` when the memory cannot be freed (every resident
        container is busy) — the invocation still runs but is not cached.
        """
        if memory_mb > self.capacity_mb:
            self.stats.rejected += 1
            return None
        deficit = (self.used_mb + memory_mb) - self.capacity_mb
        if deficit > 0 and self.evict_for(deficit, now) < deficit:
            self.stats.rejected += 1
            return None
        container = WarmContainer(
            fqdn=fqdn,
            memory_mb=memory_mb,
            init_cost=init_cost,
            warm_time=warm_time,
            now=now,
            prewarmed=prewarmed,
        )
        self.policy.on_insert(container, now)
        self._containers.setdefault(fqdn, []).append(container)
        self.used_mb += container.memory_mb
        self._count += 1
        self._seq += 1
        container.seq = self._seq
        self._push_heap(container)
        if prewarmed:
            self.stats.preloads += 1
        return container

    def finish(self, container: WarmContainer, busy_until: float) -> None:
        """Mark the container busy until its invocation completes."""
        container.busy_until = busy_until

    def release(self, container: WarmContainer, now: float) -> None:
        """Return a container claimed until further notice (the DES path).

        Its idle clock, expiry and priority restart at ``now``, and it
        moves to the end of its function's list, so :meth:`lookup` picks
        idle containers in return order.
        """
        if container.evicted or container.is_idle(now):
            raise ValueError(f"container {container.fqdn} is not in use")
        containers = self._containers[container.fqdn]
        containers.remove(container)
        containers.append(container)
        container.busy_until = now
        container.last_used = now
        container.expires_at = self.policy.expiry_time(container)
        container.priority = self.policy.priority(container, now)
        self._restamp(container)

    def evict_one(self, now: float) -> Optional[WarmContainer]:
        """Evict the lowest-priority idle container; None if all busy.

        A live tuple whose stamp is out of date is pushed again under its
        container's current key.  Current keys are never below heap keys
        and all keys are unique, so the first current idle tuple to pop
        is the idle container with the lowest current key.
        """
        heap = self._evict_heap
        buffer: list[tuple[float, int, int, WarmContainer]] = []
        victim = None
        while heap:
            item = heap[0]
            cand = item[3]
            stamp = item[1]
            if stamp != cand.heap_stamp:
                heapq.heappop(heap)  # dead tuple
                continue
            if stamp != cand.stamp:
                # Live but out of date: re-key it in place of the old key.
                cand.heap_priority = cand.priority
                cand.heap_stamp = cand.stamp
                heapq.heapreplace(
                    heap, (cand.priority, cand.stamp, cand.seq, cand)
                )
                continue
            heapq.heappop(heap)
            if not cand.is_idle(now):
                buffer.append(item)
                continue
            victim = cand
            break
        for item in buffer:
            heapq.heappush(heap, item)
        if victim is None:
            return None
        self._remove(victim, expired_eviction=False)
        return victim

    def evict_for(self, needed_mb: float, now: float) -> float:
        """Evict idle victims, lowest priority first, until ``needed_mb``
        has been freed; returns the MB freed.

        Less than ``needed_mb`` comes back when every remaining container
        is busy; the evictions already made stand (they were the policy's
        lowest-value containers anyway).
        """
        freed = 0.0
        while freed < needed_mb:
            victim = self.evict_one(now)
            if victim is None:
                break
            freed += victim.memory_mb
        return freed

    def discard(self, container: WarmContainer) -> None:
        """Drop a resident container without evicting it (a failure path):
        no eviction is counted, and neither the policy nor ``on_evict``
        hears of it."""
        containers = self._containers.get(container.fqdn)
        if not containers or container not in containers:
            raise KeyError(f"container {container!r} not resident")
        containers.remove(container)
        if not containers:
            del self._containers[container.fqdn]
        container.evicted = True
        container.heap_stamp = -1  # its heap tuple is dead
        self.used_mb -= container.memory_mb
        if self.used_mb < 1e-9:
            self.used_mb = 0.0
        if self._ceiling_mb > self.capacity_mb:
            # A shrink's excess: memory that leaves never comes back above
            # the budget.
            self._ceiling_mb = max(self.used_mb, self.capacity_mb)
        self._count -= 1

    def _remove(self, container: WarmContainer, expired_eviction: bool) -> None:
        self.discard(container)
        self.stats.evictions += 1
        self.stats.bytes_evicted_mb += container.memory_mb
        if expired_eviction:
            self.stats.expirations += 1
        self.policy.on_evict(container)
        if self._on_evict_cb is not None:
            self._on_evict_cb(container)

    # -- invariants (used by property-based tests) ----------------------------
    def check_invariants(self, now: Optional[float] = None) -> None:
        """Assert internal consistency; raises AssertionError on violation.

        The memory budget is a *soft* bound under capacity shrinks.  Only
        :meth:`insert` raises ``used_mb``, and never past ``capacity_mb``;
        a shrink evicts what is idle, so the busy containers it cannot
        evict may leave the store over the new budget, and they stay
        resident once idle.  The bound the store keeps is that this excess
        never grows: ``used_mb`` stays at or below a ceiling that each
        resize sets to ``max(used_mb, capacity_mb)`` and each departure
        lowers the same way, until it meets the budget (checked when
        ``now`` is provided).  Every resident container has one live heap
        tuple, keyed at or below its current key.
        """
        total = 0.0
        count = 0
        for fqdn, containers in self._containers.items():
            assert containers, f"empty list retained for {fqdn}"
            count += len(containers)
            for c in containers:
                assert not c.evicted, f"evicted container resident: {c!r}"
                assert c.fqdn == fqdn
                total += c.memory_mb
        assert abs(total - self.used_mb) < 1e-6, (total, self.used_mb)
        assert count == self._count, (count, self._count)
        self._check_heap()
        assert self.capacity_mb <= self._ceiling_mb
        if now is not None:
            assert self.used_mb <= self._ceiling_mb + 1e-6, (
                self.used_mb, self._ceiling_mb, self.capacity_mb)

    def _check_heap(self) -> None:
        live = set()
        for pri, stamp, seq, c in self._evict_heap:
            if stamp != c.heap_stamp:
                continue
            assert not c.evicted, f"live tuple of an evicted container: {c!r}"
            assert c.id not in live, f"two live tuples for {c!r}"
            live.add(c.id)
            assert pri == c.heap_priority, (pri, c.heap_priority)
            assert (pri, stamp, seq) <= (c.priority, c.stamp, c.seq), c
        assert live == {c.id for c in self}, "resident without a live tuple"
