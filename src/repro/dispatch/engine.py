"""The pull engine: per-worker claim loops over a shared dispatch queue.

One claim loop runs per worker.  It gates itself on the worker's own
concurrency (a FIFO :class:`~repro.sim.resources.Resource` with one slot
per effective-concurrency unit), so a worker only asks for work it can
start immediately — the defining property of pull scheduling.  The loop:

1. acquires a free slot,
2. claims the next offer from the policy (parking on ``policy.wait``
   when the queue is empty, re-claiming on wakeup),
3. pays the claim latency (one queue round-trip, modeled like
   ``rpc_latency``),
4. hands the invocation to the worker with its original offer timestamp
   so the worker-side lifecycle can attribute the claim wait.

Slots are released through the lifecycle's ``dispatch_seam`` — the
engine registers itself on each worker's stage tracker and is called
from the terminal ``close()`` for *every* outcome (complete, drop,
timeout), so capacity can never leak on error paths.
"""

from __future__ import annotations

from ..sim.core import Environment, Event
from ..sim.resources import Resource
from .pull import Offer, PullDispatch

__all__ = ["PullEngine"]


class PullEngine:
    """Drives a pull policy against a set of workers.

    ``workers`` maps worker name -> worker object (duck-typed: needs
    ``config.effective_concurrency``, ``lifecycle`` and
    ``async_invoke``); ``placements`` counts claims handed to workers.
    """

    def __init__(self, env: Environment, workers: dict, policy: PullDispatch,
                 claim_latency: float):
        if claim_latency < 0:
            raise ValueError(f"claim latency must be >= 0, got {claim_latency}")
        self.env = env
        self.workers = workers
        self.policy = policy
        self.claim_latency = float(claim_latency)
        self.placements = 0
        self._slots: dict[str, Resource] = {}
        # in-flight claims keyed by the worker-level done event, which is
        # the same object the lifecycle carries as ``ctx.done``.
        self._claims: dict = {}
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for name, worker in self.workers.items():
            worker.lifecycle.dispatch_seam = self
            self._slots[name] = Resource(
                self.env, capacity=worker.config.effective_concurrency
            )
            self.env.process(self._claim_loop(name), name=f"claim-{name}")

    # -- front door ------------------------------------------------------
    def submit(self, fqdn: str, args=None) -> Event:
        """Offer an invocation to the queue; returns the completion event."""
        done = Event(self.env)
        offer = Offer(fqdn=fqdn, args=args, offered_at=self.env.now, done=done)
        self.policy.offer(offer)
        return done

    # -- claim side ------------------------------------------------------
    def _claim_loop(self, name: str):
        env = self.env
        policy = self.policy
        worker = self.workers[name]
        slots = self._slots[name]
        latency = self.claim_latency
        while True:
            request = slots.request()
            yield request
            offer = policy.claim(name)
            while offer is None:
                # Empty queue (or a faster worker won the race for the
                # offer that woke us): park until the next offer lands.
                yield policy.wait(name)
                offer = policy.claim(name)
            if latency > 0:
                yield env.timeout(latency)
            offer.claimed_at = env.now
            offer.claimed_by = name
            self.placements += 1
            # The claim ordinal is the invocation id, so a repeated run
            # reproduces its ids (push numbers by placement ordinal).
            inner = worker.async_invoke(
                offer.fqdn, offer.args, invocation_id=self.placements,
                offered_at=offer.offered_at,
            )
            self._claims[inner] = (name, request, offer)
            inner.callbacks.append(self._finish)

    # -- completion (the lifecycle's dispatch seam) ----------------------
    def on_complete(self, ctx) -> None:
        """Called from ``StageTracker.close`` for every terminal outcome."""
        entry = self._claims.get(ctx.done)
        if entry is None:
            return
        name, request, _offer = entry
        self._slots[name].release(request)

    def _finish(self, event: Event) -> None:
        entry = self._claims.pop(event, None)
        if entry is None:  # pragma: no cover - close() always precedes
            return
        _name, _request, offer = entry
        offer.done.succeed(event.value)
