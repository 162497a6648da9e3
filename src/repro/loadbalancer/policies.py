"""Load-balancing policies beyond CH-BL, and the worker-status board.

The paper argues for locality-aware CH-BL over locality-blind schemes;
to make that comparison runnable this module provides the classic
baselines (round-robin, least-loaded) behind one interface, plus a
:class:`StatusBoard` that models the *staleness* of load information —
workers push status snapshots periodically, and the balancer decides on
the last snapshot rather than live state (the reality the paper's
queue-length-based load signal is meant to improve on).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional

from ..dispatch.registry import PULL_POLICIES
from .chbl import BoundedLoadBalancer

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
    seam synchronizes loads only for policies that do.
    """

    name = "base"
    reads_load = True

    def add_worker(self, name: str) -> None:
        raise NotImplementedError

    def remove_worker(self, name: str) -> None:
        raise NotImplementedError

    def pick(self, fqdn: str) -> str:
        raise NotImplementedError

    def follow_epochs(self, epoch: Callable[[], Optional[int]]) -> None:
        """Learn when the load signal changes: ``epoch()`` returns a token
        that stays equal while loads are frozen (None when live).  Policies
        with nothing to reuse across picks ignore it."""


class RoundRobinBalancer(LoadBalancingPolicy):
    """Locality-blind rotation — the classic strawman."""

    name = "round_robin"
    reads_load = False

    def __init__(self):
        self._workers: list[str] = []
        self._cursor = itertools.count()

    def add_worker(self, name: str) -> None:
        if name in self._workers:
            raise ValueError(f"worker {name!r} already registered")
        self._workers.append(name)

    def remove_worker(self, name: str) -> None:
        if name not in self._workers:
            raise ValueError(f"worker {name!r} not registered")
        self._workers.remove(name)

    def pick(self, fqdn: str) -> str:
        if not self._workers:
            raise RuntimeError("no workers registered")
        return self._workers[next(self._cursor) % len(self._workers)]


class LeastLoadedBalancer(LoadBalancingPolicy):
    """Send every invocation to the currently least-loaded worker."""

    name = "least_loaded"

    def __init__(self, load_fn: Callable[[str], float]):
        self._workers: list[str] = []
        self.load_fn = load_fn

    def add_worker(self, name: str) -> None:
        if name in self._workers:
            raise ValueError(f"worker {name!r} already registered")
        self._workers.append(name)

    def remove_worker(self, name: str) -> None:
        if name not in self._workers:
            raise ValueError(f"worker {name!r} not registered")
        self._workers.remove(name)

    def pick(self, fqdn: str) -> str:
        if not self._workers:
            raise RuntimeError("no workers registered")
        return min(self._workers, key=self.load_fn)


class CHBLPolicy(LoadBalancingPolicy):
    """The paper's scheme, adapted to the shared policy interface."""

    name = "ch_bl"

    def __init__(self, load_fn: Callable[[str], float], bound_factor: float = 1.2,
                 vnodes: int = 64):
        self._inner = BoundedLoadBalancer(load_fn, bound_factor=bound_factor,
                                          vnodes=vnodes)

    @property
    def forwards(self) -> int:
        return self._inner.forwards

    @property
    def placements(self) -> int:
        return self._inner.placements

    def add_worker(self, name: str) -> None:
        self._inner.add_worker(name)

    def remove_worker(self, name: str) -> None:
        # Uniform error contract across every policy (the ring's own
        # message talks about "members", which leaks the implementation).
        if name not in self._inner.ring.members():
            raise ValueError(f"worker {name!r} not registered")
        self._inner.remove_worker(name)

    def follow_epochs(self, epoch: Callable[[], Optional[int]]) -> None:
        self._inner.load_epoch = epoch

    def pick(self, fqdn: str) -> str:
        return self._inner.pick(fqdn)


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
) -> LoadBalancingPolicy:
    """Factory by policy name."""
    cls = balancer_class(name)
    if cls is CHBLPolicy:
        return cls(load_fn, bound_factor=bound_factor)
    return cls(load_fn) if cls.reads_load else cls()
