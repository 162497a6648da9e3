"""The consistent-hash ring under CH-BL, the paper's stateless,
locality-aware load-balancing scheme (Section 3.1).

Functions hash onto a ring of worker virtual nodes; a function's
successor order is the clockwise walk from its hash point.
:class:`~repro.loadbalancer.policies.CHBLPolicy` walks that order to the
first worker under the load bound.
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["hash_point", "ConsistentHashRing"]


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
