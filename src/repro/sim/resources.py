"""Shared-resource primitives built on the DES kernel.

The control plane needs three coordination shapes:

* :class:`Resource` — capacity-limited slots (the concurrency regulator,
  per-worker CPU tokens);
* :class:`Store` / :class:`PriorityStore` — producer/consumer queues (the
  invocation queue, the namespace pool);
* :class:`Gauge` — a mutable level with waiters (free-memory accounting
  in the keep-alive pool).

All of them are FIFO-fair by default; `PriorityStore` orders items by a key
so the queueing disciplines of Section 4 can be expressed as key functions.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from .core import Environment, Event, SimulationError

__all__ = ["Resource", "Request", "Store", "PriorityStore", "Gauge"]


class Request(Event):
    """A pending claim on a :class:`Resource`; use as a context token."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """Capacity-limited resource with FIFO queuing.

    Usage inside a process::

        req = resource.request()
        yield req
        ...  # holding one unit
        resource.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self._capacity = int(capacity)
        self._users: list[Request] = []
        self._waiting: list[Request] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of units currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def set_capacity(self, capacity: int) -> None:
        """Grow or shrink capacity; shrinking never preempts holders."""
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._grant()

    def request(self) -> Request:
        req = Request(self)
        self._waiting.append(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
        elif request in self._waiting:
            # Cancelling a never-granted request is allowed.
            self._waiting.remove(request)
        else:
            raise SimulationError("releasing a request that was never granted")
        self._grant()

    def _grant(self) -> None:
        while self._waiting and len(self._users) < self._capacity:
            req = self._waiting.pop(0)
            self._users.append(req)
            req.succeed()


class Store:
    """Unbounded-or-bounded FIFO store of Python objects."""

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: list[Any] = []
        self._getters: list[Event] = []
        self._putters: list[tuple[Event, Any]] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> list:
        return self._items

    def put(self, item: Any) -> Event:
        event = Event(self.env)
        self._putters.append((event, item))
        self._dispatch()
        return event

    def get(self) -> Event:
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        self._dispatch()
        if self._items and not self._getters:
            return True, self._pop_item()
        return False, None

    def _pop_item(self) -> Any:
        return self._items.pop(0)

    def _insert_item(self, item: Any) -> None:
        self._items.append(item)

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and (
                self.capacity is None or len(self._items) < self.capacity
            ):
                event, item = self._putters.pop(0)
                self._insert_item(item)
                event.succeed()
                progressed = True
            while self._getters and self._items:
                event = self._getters.pop(0)
                event.succeed(self._pop_item())
                progressed = True


class PriorityStore(Store):
    """A store whose ``get`` returns the lowest-key item.

    The ordering key is supplied per item at ``put`` time; ties break by
    insertion order, preserving FIFO within a priority class.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        super().__init__(env, capacity)
        # ``_items`` holds the heap of ``(priority, counter, item)``
        # entries; ``__len__`` and ``_dispatch`` are the store's own.
        self._counter = itertools.count()

    @property
    def items(self) -> list:
        return [entry[2] for entry in sorted(self._items)]

    def put(self, item: Any, priority: Any = 0) -> Event:
        event = Event(self.env)
        self._putters.append((event, (priority, next(self._counter), item)))
        self._dispatch()
        return event

    def _insert_item(self, entry: Any) -> None:
        heapq.heappush(self._items, entry)

    def _pop_item(self) -> Any:
        return heapq.heappop(self._items)[2]

    def remove(self, predicate: Callable[[Any], bool]) -> list:
        """Remove and return all queued items matching ``predicate``."""
        kept, removed = [], []
        for entry in self._items:
            (removed if predicate(entry[2]) else kept).append(entry)
        heapq.heapify(kept)
        self._items = kept
        return [entry[2] for entry in removed]


class Gauge:
    """A bounded numeric level with blocking ``take`` semantics.

    Used for memory accounting: ``take(mb)`` blocks until that much is free,
    ``give(mb)`` returns capacity.  Waiters are served FIFO to avoid
    starvation of large requests.
    """

    def __init__(self, env: Environment, capacity: float, initial: Optional[float] = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = float(capacity)
        self._level = float(capacity if initial is None else initial)
        if not 0 <= self._level <= self._capacity:
            raise ValueError("initial level outside [0, capacity]")
        self._waiting: list[tuple[Event, float]] = []

    @property
    def level(self) -> float:
        """Currently available amount."""
        return self._level

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def in_use(self) -> float:
        return self._capacity - self._level

    def set_capacity(self, capacity: float) -> None:
        """Resize; the available level shifts by the capacity delta.

        Shrinking below current usage leaves a negative level, meaning no
        new takes succeed until enough is given back — mirroring how a
        cache-size reduction takes effect only as containers are evicted.
        """
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        delta = float(capacity) - self._capacity
        self._capacity = float(capacity)
        self._level += delta
        self._grant()

    def can_take(self, amount: float) -> bool:
        return amount <= self._level and not self._waiting

    def try_take(self, amount: float) -> bool:
        """Non-blocking take; only succeeds if no one is queued ahead."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if self.can_take(amount):
            self._level -= amount
            return True
        return False

    def take(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if amount > self._capacity:
            raise ValueError(
                f"cannot take {amount} from a gauge of capacity {self._capacity}"
            )
        event = Event(self.env)
        self._waiting.append((event, float(amount)))
        self._grant()
        return event

    def give(self, amount: float) -> None:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        self._level = min(self._level + amount, self._capacity)
        self._grant()

    def _grant(self) -> None:
        while self._waiting and self._waiting[0][1] <= self._level:
            event, amount = self._waiting.pop(0)
            self._level -= amount
            event.succeed()
