"""Consistent hashing with bounded loads (CH-BL) — the paper's stateless,
locality-aware load-balancing scheme (Section 3.1).

Functions hash onto a ring of worker virtual nodes; an invocation goes to
the first worker at-or-after its hash point whose load is under the bound
``ceil(c * mean_load)``, forwarding clockwise otherwise.  Locality (same
function → same worker → warm start) is preserved until a worker
saturates, at which point spillover shares the burst.

The load signal is the worker's queue length plus running invocations —
the paper's argument for queue-based load reporting is that it is less
stale/noisy than load averages.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from typing import Callable, Optional

__all__ = ["hash_point", "ConsistentHashRing", "BoundedLoadBalancer"]


def hash_point(key: str, salt: int = 0) -> int:
    """Stable 64-bit hash of a string key (BLAKE2b, seed via salt)."""
    h = hashlib.blake2b(
        key.encode("utf-8"), digest_size=8, salt=salt.to_bytes(8, "little")
    )
    return int.from_bytes(h.digest(), "big")


class ConsistentHashRing:
    """A ring of (point, member) pairs with virtual nodes.

    The ring keeps its sorted distinct members and memoises each key's
    successor order; both change only in :meth:`add`/:meth:`remove`, which
    rebuild the one and clear the other.  Orders are shared per ring start
    position, so their memory is bounded by the ring size.
    """

    def __init__(self, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: list[int] = []
        self._members: list[str] = []
        self._sorted: tuple[str, ...] = ()
        self._by_key: dict[str, tuple[str, ...]] = {}
        self._by_start: dict[int, tuple[str, ...]] = {}

    def add(self, member: str) -> None:
        if member in self._sorted:
            raise ValueError(f"member {member!r} already on the ring")
        for v in range(self.vnodes):
            point = hash_point(f"{member}#{v}")
            idx = bisect.bisect(self._points, point)
            self._points.insert(idx, point)
            self._members.insert(idx, member)
        self._changed(tuple(sorted((*self._sorted, member))))

    def remove(self, member: str) -> None:
        if member not in self._sorted:
            raise ValueError(f"member {member!r} not on the ring")
        keep = [(p, m) for p, m in zip(self._points, self._members) if m != member]
        self._points = [p for p, _ in keep]
        self._members = [m for _, m in keep]
        self._changed(tuple(m for m in self._sorted if m != member))

    def _changed(self, members: tuple[str, ...]) -> None:
        self._sorted = members
        self._by_key.clear()
        self._by_start.clear()

    def members(self) -> tuple[str, ...]:
        """Distinct members, sorted.  The same tuple until membership
        changes."""
        return self._sorted

    def __len__(self) -> int:
        return len(self._sorted)

    def successors(self, key: str) -> list[str]:
        """Distinct members in clockwise order from the key's point."""
        return list(self.order(key))

    def order(self, key: str) -> tuple[str, ...]:
        """:meth:`successors` as the ring's memoised tuple."""
        order = self._by_key.get(key)
        if order is not None:
            return order
        n = len(self._points)
        if not n:
            return ()
        start = bisect.bisect(self._points, hash_point(key)) % n
        order = self._by_start.get(start)
        if order is None:
            seen: list[str] = []
            seen_set = set()
            for off in range(n):
                m = self._members[(start + off) % n]
                if m not in seen_set:
                    seen.append(m)
                    seen_set.add(m)
                    if len(seen) == len(self._sorted):
                        break
            order = self._by_start[start] = tuple(seen)
        self._by_key[key] = order
        return order


class BoundedLoadBalancer:
    """CH-BL: consistent hashing + bounded-load forwarding.

    ``load_fn(member)`` returns the member's current load;
    ``bound_factor`` is the paper's *c* (load bound = ceil(c * mean load),
    with a minimum headroom of 1 so an idle cluster still places work).
    """

    def __init__(
        self,
        load_fn: Callable[[str], float],
        bound_factor: float = 1.2,
        vnodes: int = 64,
    ):
        if bound_factor < 1.0:
            raise ValueError("bound_factor must be >= 1.0")
        self.ring = ConsistentHashRing(vnodes=vnodes)
        self.load_fn = load_fn
        self.bound_factor = bound_factor
        self.forwards = 0
        self.placements = 0
        # ``load_epoch()``, when set, returns a token that stays equal while
        # ``load_fn``'s answers are frozen (a status board's snapshot
        # epoch); None means loads are live and the bound is recomputed on
        # every pick.
        self.load_epoch: Optional[Callable[[], object]] = None
        self._bound_key: tuple = (None, None)   # (epoch, members) of _bound
        self._bound = 1.0

    def add_worker(self, name: str) -> None:
        self.ring.add(name)

    def remove_worker(self, name: str) -> None:
        self.ring.remove(name)

    def bound(self) -> float:
        members = self.ring.members()
        if not members:
            raise RuntimeError("no workers registered")
        epoch = None if self.load_epoch is None else self.load_epoch()
        # Same epoch and the same members tuple (the ring replaces it on
        # every membership change): every load below would read the same
        # frozen value, so the sum is the one computed last time.
        key = self._bound_key
        if epoch is not None and key[0] == epoch and key[1] is members:
            return self._bound
        mean_load = sum(self.load_fn(m) for m in members) / len(members)
        limit = max(math.ceil(self.bound_factor * mean_load), 1.0)
        if epoch is not None:
            self._bound_key = (epoch, members)
            self._bound = limit
        return limit

    def pick(self, fqdn: str) -> str:
        """Worker for this invocation: home node unless over the bound."""
        order = self.ring.order(fqdn)
        if not order:
            raise RuntimeError("no workers registered")
        limit = self.bound()
        self.placements += 1
        load = self.load_fn
        for i, member in enumerate(order):
            if load(member) <= limit:
                self.forwards += i and 1
                return member
        # Everyone over the bound: fall back to the least-loaded worker.
        self.forwards += 1
        return min(order, key=load)
