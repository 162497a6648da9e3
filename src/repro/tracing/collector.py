"""Collecting causal traces off the lifecycle pipeline's existing seams.

The collector adds **no instrumentation to the hot path**.  It registers
:class:`~repro.core.lifecycle.StageHooks` exit callbacks on the three
terminal stages only, and builds each invocation's whole trace tree in
one shot when the invocation ends — from the per-stage ``stage_times``
the tracker already stamps whenever anything observes the pipeline, and
the component ``intervals`` telemetry already retains for decomposition.
Hooks observe simulated state without yielding, so a traced run produces
bit-identical records, spans, and breakdowns to an untraced one (pinned
by ``tests/test_tracing.py`` against the golden fixture).

LB spans enter through :meth:`TraceCollector.record_lb`, called at pick
time by the push front end both engines share
(:class:`~repro.loadbalancer.frontend.PushFrontEnd`): per invocation on
the serial cluster, from the batched epoch walk on the cluster-shard
coordinator.
``root`` names the LB span worker-side stage chains hang under —
``"lb_rpc"`` behind an RPC-forwarding balancer, ``"lb_pick"`` when the
RPC hop is disabled, ``None`` for a standalone worker.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from ..core.lifecycle import TERMINAL_STAGES
from .events import COMPONENT_STAGE, TRACE_KEY, TraceEvent

__all__ = ["TraceCollector"]

# Seq slots 0/1 are reserved for lb_pick/lb_rpc; worker-side events start
# after them whenever the trace is rooted at a load balancer.
_LB_SEQS = 2


class TraceCollector:
    """Accumulates :class:`TraceEvent` rows for one run.

    ``shard`` stamps every collected event with the owning shard index
    (left ``None`` on single-process runs); ``root`` is the parent the
    first worker-side stage links to (``None`` roots the stage chain
    itself).
    """

    def __init__(self, root: Optional[str] = None,
                 shard: Optional[int] = None):
        self.events: list[TraceEvent] = []
        self.root = root
        self.shard = shard

    # -- wiring -------------------------------------------------------------
    def attach_worker(self, worker) -> bool:
        """Hook a worker's lifecycle; returns False when it has none
        (exotic backends keep working, just untraced)."""
        lifecycle = getattr(worker, "lifecycle", None)
        if lifecycle is None:
            return False
        self.attach_tracker(lifecycle, getattr(worker, "name", None))
        return True

    def attach_tracker(self, tracker, worker_name: Optional[str] = None) -> None:
        """Hook a :class:`~repro.core.lifecycle.StageTracker` directly
        (the OpenWhisk baseline shares the tracker substrate)."""
        fn = partial(self._on_terminal, worker_name)
        for stage in TERMINAL_STAGES:
            tracker.hooks.on_exit(stage, fn)
        # Terminal hooks read stage_times *and* intervals; interval
        # collection keys off keep_contexts at context-open time.
        tracker.keep_contexts = True

    # -- LB events ----------------------------------------------------------
    def record_lb(
        self,
        trace_id: int,
        pick_start: float,
        pick_end: float,
        rpc_start: Optional[float] = None,
        rpc_end: Optional[float] = None,
        worker: Optional[str] = None,
    ) -> None:
        """The load balancer's contribution: the pick decision and, when
        the RPC hop is modelled, the forward span it causes."""
        append = self.events.append
        append(TraceEvent(
            trace_id=trace_id, seq=0, name="lb_pick", kind="lb",
            start=pick_start, end=pick_end, shard=self.shard,
        ))
        if rpc_end is not None:
            append(TraceEvent(
                trace_id=trace_id, seq=1, name="lb_rpc", kind="lb",
                start=rpc_start, end=rpc_end, parent="lb_pick",
                worker=worker, shard=self.shard,
            ))

    # -- terminal-stage hook ------------------------------------------------
    def _on_terminal(self, worker_name, stage, ctx) -> None:
        """Build the invocation's whole tree from the closed context.

        Stage events come out in ``stage_times`` insertion order (which is
        stage-enter order); a stage the pipeline never exited — EXECUTE on
        the timeout path — borrows the next stage's enter time as its end,
        falling back to the terminal stamp.  Component events follow in
        recording order, each parented on its owning stage.
        """
        times = ctx.stage_times
        if not times:  # pragma: no cover - hooks imply stamping
            return
        events = self.events
        tid = ctx.inv.id
        shard = self.shard
        parent = self.root
        seq = _LB_SEQS if parent is not None else 0
        items = list(times.items())
        terminal_end = items[-1][1][1]
        for i, (name, (t0, t1)) in enumerate(items):
            if t1 is None:
                nxt = items[i + 1][1][0] if i + 1 < len(items) else terminal_end
                t1 = t0 if nxt is None else nxt
            events.append(TraceEvent(
                trace_id=tid, seq=seq, name=name, kind="stage",
                start=t0, end=t1, parent=parent, worker=worker_name,
                shard=shard,
            ))
            parent = name
            seq += 1
        intervals = ctx.intervals
        if intervals:
            for name, t0, t1 in intervals:
                events.append(TraceEvent(
                    trace_id=tid, seq=seq, name=name, kind="component",
                    start=t0, end=t1, parent=COMPONENT_STAGE.get(name),
                    worker=worker_name, shard=shard,
                ))
                seq += 1

    # -- views --------------------------------------------------------------
    def trace_events(self) -> list[TraceEvent]:
        """All collected events in canonical ``(trace_id, seq)`` order."""
        return sorted(self.events, key=TRACE_KEY)
