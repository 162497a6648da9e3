"""The push placement core: the load-balancer layer both engines drive.

Ilúvatar keeps the load balancer a thin layer in front of the workers.
:class:`PushFrontEnd` is that layer, written once: the serial
:class:`~repro.loadbalancer.cluster.Cluster` drives it per
``async_invoke`` against live workers, and the cluster-shard coordinator
drives it per arrival against the loads its shards report.  It owns the
status board, the balancer, the placement counter and the LB's
observation state (span list, trace collector, the board's publish hook),
so the two engines cannot drift apart on any of them.

Placement is split in two calls so the coordinator can overlap the
second with shard simulation: :meth:`PushFrontEnd.place` picks the worker
and counts the placement; :meth:`PushFrontEnd.record` emits the
``lb_pick``/``lb_rpc`` spans and the trace row of an invocation already
placed.  :func:`forward_hop` is the LB→worker RPC hop both engines start
after a placement.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..metrics.spans import Span
from .policies import StatusBoard, make_balancer

__all__ = ["PushFrontEnd", "forward_hop", "load_signal"]


def load_signal(workers: dict) -> Callable[[str], float]:
    """The balancer's load signal over ``workers`` (name -> worker): queue
    length plus running invocations (see ``chbl.py``)."""
    def load(name: str) -> float:
        w = workers[name]
        return len(w.queue) + w.load.running

    return load


def forward_hop(env, latency, worker, fqdn, args, invocation_id, done,
                seam=None):
    """The LB→worker RPC hop: deliver after ``latency``, then succeed
    ``done`` with the finished invocation.  ``seam``, when given, gets a
    ``(arrival index, delivery time)`` entry (the shard's seam log)."""
    yield env.timeout(latency)
    if seam is not None:
        seam.append((invocation_id - 1, env.now))
    inv = yield worker.async_invoke(fqdn, args, invocation_id=invocation_id)
    done.succeed(inv)


class PushFrontEnd:
    """Status board + balancer + placement accounting for a push cluster.

    ``load_fn(worker)`` is the live load signal the status board reads
    (snapshotted every ``status_interval`` seconds, or live when None);
    the board's clock is :attr:`now`, which :meth:`place` sets.
    ``rpc_latency`` is the modelled LB→worker hop, which decides whether
    :meth:`record` emits an ``lb_rpc`` span.
    """

    def __init__(
        self,
        lb_policy: str,
        load_fn: Callable[[str], float],
        workers: Iterable[str],
        *,
        bound_factor: float = 1.2,
        status_interval: Optional[float] = None,
        rpc_latency: float = 0.0,
    ):
        self.now = 0.0
        self.status_board = StatusBoard(
            clock=self._clock, live_load_fn=load_fn, interval=status_interval,
        )
        self.balancer = make_balancer(
            lb_policy, self.status_board.load, bound_factor=bound_factor,
        )
        self.balancer.follow_epochs(self.status_board.epoch)
        for name in workers:
            self.balancer.add_worker(name)
        self.rpc_latency = float(rpc_latency)
        self.placements = 0
        # Observation state: None (nothing recorded) until observe().
        self.spans: Optional[list] = None
        self.tracer = None

    def _clock(self) -> float:
        return self.now

    def observe(self, spans: list, tracer=None,
                publish: Optional[Callable[[str, float, float], None]] = None,
                ) -> None:
        """Opt in to recording: LB spans go to ``spans``, trace rows to
        ``tracer`` (a :class:`~repro.tracing.TraceCollector`, or None), and
        every load value the balancer acts on to ``publish(worker, t,
        load)``."""
        self.spans = spans
        self.tracer = tracer
        self.status_board.publish = publish

    def info(self) -> dict:
        """Summary-stable description of the placement policy."""
        return {"policy": self.balancer.name, "kind": "push"}

    def place(self, fqdn: str, t: float) -> str:
        """Pick the worker for an invocation of ``fqdn`` arriving at ``t``."""
        self.now = t
        target = self.balancer.pick(fqdn)
        self.placements += 1
        return target

    def record(self, fqdn: str, target: str, t: float, trace_id: int) -> None:
        """Emit the LB's spans and trace row for a placement made at ``t``
        (no-op unless :meth:`observe` opted in)."""
        spans = self.spans
        if spans is None:
            return
        spans.append(Span("lb_pick", t, t, fqdn))
        rpc_end = None   # no RPC hop: the trace row is the pick alone
        if self.rpc_latency > 0:
            rpc_end = t + self.rpc_latency
            spans.append(Span("lb_rpc", t, rpc_end, target))
        if self.tracer is not None:
            self.tracer.record_lb(trace_id, t, t, t, rpc_end, target)
