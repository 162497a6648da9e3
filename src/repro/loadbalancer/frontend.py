"""The push placement core: the load-balancer layer both engines drive.

Ilúvatar keeps the load balancer a thin layer in front of the workers.
:class:`PushFrontEnd` is that layer, written once: the serial
:class:`~repro.loadbalancer.cluster.Cluster` drives it per
``async_invoke`` against live workers, and the cluster-shard coordinator
drives it per arrival against the loads its shards report.  It owns the
status board, the balancer, the placement counter and the LB's
observation state (the placement log and the board's publish hook), so
the two engines cannot drift apart on any of them.

:meth:`PushFrontEnd.place` picks the worker, counts the placement and,
when observed, appends one ``(t, fqdn, target)`` entry to the placement
log.  That log is the LB's only record: it supplies the ``lb`` entry of
each invocation's timeline row at export, from which the ``lb_pick``/
``lb_rpc`` spans and trace events are derived.  :func:`start_forward`
models the LB→worker RPC hop after a placement, in both engines: one
timeout whose callback hands the invocation to the worker, with no
process of its own.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .policies import StatusBoard, make_balancer

__all__ = ["PushFrontEnd", "load_signal", "start_forward"]


def load_signal(workers: dict) -> Callable[[str], float]:
    """The balancer's load signal over ``workers`` (name -> worker): queue
    length plus running invocations (see :class:`~.policies.CHBLPolicy`)."""
    def load(name: str) -> float:
        w = workers[name]
        return len(w.queue) + w.load.running

    return load


def start_forward(env, latency, worker, fqdn, args, invocation_id):
    """The LB→worker RPC hop for one placement: after ``latency``, the
    worker takes the invocation.  The returned event succeeds with the
    finished invocation; the worker succeeds it directly (``done=``)."""
    done = env.event()

    def deliver(_event):
        worker.async_invoke(fqdn, args, invocation_id=invocation_id,
                            done=done)

    env.timeout(latency).callbacks.append(deliver)
    return done


class PushFrontEnd:
    """Status board + balancer + placement accounting for a push cluster.

    ``load_fn(worker)`` is the live load signal the status board reads
    (snapshotted every ``status_interval`` seconds, or live when None);
    the board's clock is :attr:`now`, which :meth:`place` sets.
    ``rpc_latency`` is the modelled LB→worker hop, which decides whether
    the derived views carry an ``lb_rpc`` span per placement.
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
            load_epoch=self.status_board.epoch,
        )
        for name in workers:
            self.balancer.add_worker(name)
        self.rpc_latency = float(rpc_latency)
        self.placements = 0
        # Observation state: None (nothing recorded) until observe().
        self.placement_log: Optional[list] = None

    def _clock(self) -> float:
        return self.now

    def observe(self, log: list,
                publish: Optional[Callable[[str, float, float], None]] = None,
                ) -> None:
        """Opt in to recording, before the first placement: every
        placement goes to ``log`` as ``(t, fqdn, target)`` (its position
        + 1 is the placement ordinal, the invocation's trace id), and
        every load value the balancer acts on to ``publish(worker, t,
        load)``."""
        self.placement_log = log
        self.status_board.publish = publish

    def info(self) -> dict:
        """Summary-stable description of the placement policy."""
        return {"policy": self.balancer.name, "kind": "push"}

    def place(self, fqdn: str, t: float) -> str:
        """Pick the worker for an invocation of ``fqdn`` arriving at ``t``."""
        self.now = t
        target = self.balancer.pick(fqdn)
        self.placements += 1
        if self.placement_log is not None:
            self.placement_log.append((t, fqdn, target))
        return target
