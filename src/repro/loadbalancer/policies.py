"""The push load-balancing policies and the worker-status board.

The paper argues for locality-aware CH-BL over locality-blind schemes.
This module holds CH-BL itself (:class:`CHBLPolicy`, the bounded-load
walk over :mod:`~repro.loadbalancer.chbl`'s ring) and the classic
baselines (round-robin, least-loaded) behind one interface, which keeps
the worker list, plus a :class:`StatusBoard` that models the *staleness*
of load information: workers push status snapshots periodically, and the
balancer decides on the last snapshot rather than live state (the
reality the paper's queue-length-based load signal is meant to improve
on).  :func:`make_balancer` builds a policy by name.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional

from ..dispatch.registry import PULL_POLICIES
from .chbl import ConsistentHashRing

__all__ = [
    "LoadBalancingPolicy",
    "RoundRobinBalancer",
    "LeastLoadedBalancer",
    "CHBLPolicy",
    "StatusBoard",
    "BALANCERS",
    "balancer_class",
    "make_balancer",
    "snap_to_grid",
]


def snap_to_grid(t: float, interval: float) -> float:
    """Largest multiple of ``interval`` that is ``<= t`` (the snapshot
    epoch a status report at time ``t`` belongs to).

    This is THE epoch-floor rule: :meth:`StatusBoard.load` and the
    cluster-shard seam's ``sync_indices`` both call it, so the sharded
    coordinator can never disagree with a single-process balancer about
    which arrival rolls the board into a new interval epoch.

    ``math.floor(t / interval) * interval`` overflows for large
    ``t / interval`` (the quotient saturates to ``inf``, or the floored
    integer exceeds the float range); the fallback computes the same grid
    point through ``fmod``, which cannot overflow.
    """
    t = float(t)            # numpy scalars warn (not raise) on overflow
    interval = float(interval)
    try:
        return math.floor(t / interval) * interval
    except OverflowError:
        return t - math.fmod(t, interval)


class LoadBalancingPolicy:
    """Maps an invocation's function to a worker name.

    ``reads_load`` says whether ``pick`` consults worker loads; the shard
    seam synchronizes loads only for policies that do.  ``forwards``
    counts placements that left the function's home worker (only CH-BL
    has a home).  The base class keeps the registered workers in
    registration order.
    """

    name = "base"
    reads_load = True
    forwards = 0

    def __init__(self):
        self._workers: list[str] = []

    def add_worker(self, name: str) -> None:
        if name in self._workers:
            raise ValueError(f"worker {name!r} already registered")
        self._workers.append(name)

    def remove_worker(self, name: str) -> None:
        if name not in self._workers:
            raise ValueError(f"worker {name!r} not registered")
        self._workers.remove(name)

    def _registered(self) -> list[str]:
        """The registered workers; raises when there are none."""
        if not self._workers:
            raise RuntimeError("no workers registered")
        return self._workers

    def pick(self, fqdn: str) -> str:
        raise NotImplementedError


class RoundRobinBalancer(LoadBalancingPolicy):
    """Locality-blind rotation — the classic strawman."""

    name = "round_robin"
    reads_load = False

    def __init__(self):
        super().__init__()
        self._cursor = itertools.count()

    def pick(self, fqdn: str) -> str:
        workers = self._registered()
        return workers[next(self._cursor) % len(workers)]


class LeastLoadedBalancer(LoadBalancingPolicy):
    """Send every invocation to the currently least-loaded worker."""

    name = "least_loaded"

    def __init__(self, load_fn: Callable[[str], float]):
        super().__init__()
        self.load_fn = load_fn

    def pick(self, fqdn: str) -> str:
        return min(self._registered(), key=self.load_fn)


class CHBLPolicy(LoadBalancingPolicy):
    """CH-BL: consistent hashing with bounded loads (Section 3.1).

    An invocation goes to the first worker on its function's ring order
    (:class:`~repro.loadbalancer.chbl.ConsistentHashRing`) whose load is
    at most the bound ``ceil(c * mean load)``, forwarding clockwise
    otherwise, and to the least-loaded worker when every one is over it.
    ``load_fn(worker)`` is the load signal: queue length plus running
    invocations, which the paper argues is less stale and noisy than load
    averages.  ``bound_factor`` is the paper's *c*; the bound is at least
    1, so an idle cluster still places work.  Locality (same function,
    same worker, warm start) holds until a worker saturates, and then
    spillover shares the burst.

    ``load_epoch()``, when given, returns a token that stays equal while
    ``load_fn``'s answers are frozen (a status board's snapshot epoch)
    and None while they are live; the bound is computed once per epoch
    and membership, and on every pick while loads are live.
    """

    name = "ch_bl"

    def __init__(self, load_fn: Callable[[str], float], bound_factor: float = 1.2,
                 vnodes: int = 64,
                 load_epoch: Optional[Callable[[], object]] = None):
        if bound_factor < 1.0:
            raise ValueError("bound_factor must be >= 1.0")
        self.ring = ConsistentHashRing(vnodes=vnodes)
        self.load_fn = load_fn
        self.bound_factor = bound_factor
        self.load_epoch = load_epoch
        self.forwards = 0
        self._bound_key: tuple = (None, None)   # (epoch, members) of _bound
        self._bound = 1.0

    def add_worker(self, name: str) -> None:
        self.ring.add(name)

    def remove_worker(self, name: str) -> None:
        if name not in self.ring.members():
            raise ValueError(f"worker {name!r} not registered")
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
        load = self.load_fn
        for i, member in enumerate(order):
            if load(member) <= limit:
                self.forwards += i and 1
                return member
        # Everyone over the bound: fall back to the least-loaded worker.
        self.forwards += 1
        return min(order, key=load)


class StatusBoard:
    """Periodic worker-status snapshots (models load-signal staleness).

    ``interval=None`` reads live state on every query (the idealized
    default the Cluster used before); a positive interval re-snapshots at
    most that often, so balancer decisions act on data up to ``interval``
    seconds old.  Snapshot epochs are aligned to the interval grid
    (``snapped_at`` is always a multiple of ``interval``), matching
    workers that push status reports on a fixed period rather than
    whenever somebody happens to ask.

    ``publish``, when set, is called as ``publish(worker, time, load)``
    every time a worker's status is (re)read into the snapshot — the hook
    the telemetry sampler uses to record the exact load signal the
    balancer acted on.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        live_load_fn: Callable[[str], float],
        interval: Optional[float] = None,
        publish: Optional[Callable[[str, float, float], None]] = None,
    ):
        if interval is not None and interval <= 0:
            raise ValueError("interval must be positive (or None for live)")
        self._clock = clock
        self._live = live_load_fn
        self.interval = interval
        self.publish = publish
        self._snapshot: dict[str, float] = {}
        self._snapped_at: Optional[float] = None
        self.refreshes = 0

    @property
    def snapped_at(self) -> Optional[float]:
        """Grid epoch of the current snapshot (None before the first)."""
        return self._snapped_at

    def epoch(self) -> Optional[int]:
        """Token of the snapshot a load read now comes from (rolling the
        board into a new epoch when one is due), or None when live.  While
        the token stays equal, a worker's load, once read, keeps its
        value."""
        if self.interval is None:
            return None
        self._roll(self._clock())
        return self.refreshes

    def _roll(self, now: float) -> None:
        if self._snapped_at is None or now - self._snapped_at >= self.interval:
            # A fresh round of status reports arrived; the epoch is the
            # grid slot the reports belong to, not the query time.
            self._snapshot = {}
            self._snapped_at = snap_to_grid(now, self.interval)
            self.refreshes += 1

    def load(self, worker: str) -> float:
        if self.interval is None:
            return self._live(worker)
        now = self._clock()
        self._roll(now)
        value = self._snapshot.get(worker)
        if value is None:
            value = self._snapshot[worker] = self._live(worker)
            if self.publish is not None:
                self.publish(worker, now, value)
        return value


# The one push-policy name table: name -> balancer class.
BALANCERS = {
    "ch_bl": CHBLPolicy,
    "chbl": CHBLPolicy,
    "round_robin": RoundRobinBalancer,
    "least_loaded": LeastLoadedBalancer,
}


def balancer_class(name: str) -> type:
    """The class :func:`make_balancer` builds for ``name``."""
    key = str(name).lower()
    cls = BALANCERS.get(key)
    if cls is not None:
        return cls
    if key in PULL_POLICIES:
        raise ValueError(
            f"{name!r} is a pull dispatch policy, not a push balancer; "
            f"build it via repro.dispatch.make_dispatch (push balancers: "
            f"{sorted(BALANCERS)})"
        )
    raise ValueError(
        f"unknown dispatch policy {name!r}; choose from "
        f"{sorted(BALANCERS.keys() | PULL_POLICIES)}"
    )


def make_balancer(
    name: str,
    load_fn: Callable[[str], float],
    bound_factor: float = 1.2,
    load_epoch: Optional[Callable[[], object]] = None,
) -> LoadBalancingPolicy:
    """Factory by policy name; ``load_epoch`` is the status board's epoch
    token (see :class:`CHBLPolicy`), which only CH-BL reads."""
    cls = balancer_class(name)
    if cls is CHBLPolicy:
        return cls(load_fn, bound_factor=bound_factor, load_epoch=load_epoch)
    return cls(load_fn) if cls.reads_load else cls()
