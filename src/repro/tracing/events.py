"""Causal trace events: the one record type the tracing pipeline speaks.

A trace is the set of events sharing an invocation's ``trace_id`` (the
invocation id itself — already globally unique and already stamped on
records, spans, and breakdown tags, so traces join against every other
telemetry artifact for free).  Within a trace, ``seq`` orders events in
causal-emission order and ``parent`` names the event the span causally
hangs under:

* ``lb`` events (``lb_pick`` → ``lb_rpc``) root the trace at the load
  balancer (seq 0 and 1, reserved whenever the stage chain hangs under
  an LB root; a run without a placement log — pull dispatch, a
  standalone worker — roots the chain at ``admit`` with seq 0);
* ``stage`` events mirror the lifecycle pipeline's stage walk (admit →
  enqueue → dispatch → acquire → warm/cold_create → execute → terminal),
  each parented on its predecessor so the stage chain *is* the causal
  spine;
* ``component`` events are the fine-grained intervals telemetry already
  decomposes (``exec``, ``cold_create``, ``add_item_to_q``, …), parented
  on their owning stage via :data:`COMPONENT_STAGE`.

Nothing builds events while a run executes.  :func:`derive_trace_events`
builds them at export from the two records a run already keeps: the
retained lifecycle contexts (``stage_times`` and ``intervals``) and the
push front end's placement log.

Events are frozen and totally ordered by ``(trace_id, seq)`` — the merge
key the cluster-shard seam streams them under, exactly like records and
spans.  The JSONL form omits ``None`` fields, so serial and sharded runs
serialize identically except for the shard attribution.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from ..core.lifecycle import (
    ACQUIRE,
    ADMIT,
    COLD_CREATE,
    COMPLETE,
    DISPATCH,
    ENQUEUE,
    EXECUTE,
    WARM,
)

__all__ = [
    "TraceEvent",
    "TRACE_KEY",
    "COMPONENT_STAGE",
    "derive_trace_events",
    "dump_trace_jsonl",
    "load_trace_jsonl",
]

# Canonical stream/merge order, matching the seam's other telemetry keys.
TRACE_KEY = lambda e: (e.trace_id, e.seq)  # noqa: E731

# Which lifecycle stage owns each component interval (the parent link for
# ``component`` events).  Mirrors the recording sites in core/lifecycle.py.
COMPONENT_STAGE: dict[str, str] = {
    "invoke": ADMIT,
    "sync_invoke": ADMIT,
    "enqueue_invocation": ENQUEUE,
    "add_item_to_q": ENQUEUE,
    "dequeue": DISPATCH,
    "spawn_worker": DISPATCH,
    "acquire_container": ACQUIRE,
    "try_lock_container": WARM,
    "cold_create": COLD_CREATE,
    "prepare_invoke": EXECUTE,
    "http_client_create": EXECUTE,
    "exec": EXECUTE,
    "call_container": EXECUTE,
    "download_result": EXECUTE,
    "return_container": COMPLETE,
    "return_results": COMPLETE,
}


@dataclass(frozen=True)
class TraceEvent:
    """One span of an invocation's causal trace tree."""

    trace_id: int
    seq: int
    name: str
    kind: str                      # "lb" | "stage" | "component"
    start: float
    end: float
    parent: Optional[str] = None   # name of the causally preceding span
    worker: Optional[str] = None   # owning worker (None at the LB)
    shard: Optional[int] = None    # owning shard index (None when serial)

    @property
    def duration(self) -> float:
        return self.end - self.start


# Seq slots 0/1 are reserved for lb_pick/lb_rpc; worker-side events start
# after them whenever the trace is rooted at a load balancer.
_LB_SEQS = 2


def derive_trace_events(
    contexts: Iterable = (),
    placements: Sequence = (),
    rpc_latency: float = 0.0,
    root: Optional[str] = None,
    shard: Optional[int] = None,
) -> Iterator[TraceEvent]:
    """Yield a run's trace events in canonical ``(trace_id, seq)`` order.

    ``contexts`` are ``(worker name, InvocationContext)`` pairs; only
    contexts that reached a terminal stage (``outcome`` set) yield a tree.
    ``placements`` is a push front end's log of ``(t, fqdn, target)``
    entries, whose trace id is the placement ordinal: each yields an
    ``lb_pick`` event and, when ``rpc_latency > 0``, an ``lb_rpc`` one.
    ``root`` names the LB event the first stage hangs under (``None``
    roots the stage chain itself); ``shard`` stamps the worker-side events.
    """
    stages = _stage_events(contexts, root, shard)
    if not placements:
        return stages
    return heapq.merge(_lb_events(placements, rpc_latency), stages,
                       key=TRACE_KEY)


def _lb_events(placements, rpc_latency) -> Iterator[TraceEvent]:
    for tid, (t, _fqdn, target) in enumerate(placements, 1):
        yield TraceEvent(trace_id=tid, seq=0, name="lb_pick", kind="lb",
                         start=t, end=t)
        if rpc_latency > 0:
            yield TraceEvent(trace_id=tid, seq=1, name="lb_rpc", kind="lb",
                             start=t, end=t + rpc_latency, parent="lb_pick",
                             worker=target)


def _stage_events(contexts, root, shard) -> Iterator[TraceEvent]:
    """Each closed context's stage chain, then its component intervals.

    Stage events come out in ``stage_times`` insertion order (which is
    stage-enter order); a stage the pipeline never exited — EXECUTE on
    the timeout path — borrows the next stage's enter time as its end,
    falling back to the terminal stamp.  Component events follow in
    recording order, each parented on its owning stage.  Events are
    built positionally: keyword construction of the frozen dataclass
    costs about 40% more, paid once per stage and component interval.
    """
    closed = sorted(
        ((name, ctx) for name, ctx in contexts if ctx.outcome is not None),
        key=lambda pair: pair[1].inv.id,
    )
    first_seq = _LB_SEQS if root is not None else 0
    for worker, ctx in closed:
        tid = ctx.inv.id
        parent = root
        seq = first_seq
        items = list(ctx.stage_times.items())
        terminal_end = items[-1][1][1]
        for i, (name, (t0, t1)) in enumerate(items):
            if t1 is None:
                nxt = items[i + 1][1][0] if i + 1 < len(items) else terminal_end
                t1 = t0 if nxt is None else nxt
            yield TraceEvent(tid, seq, name, "stage", t0, t1, parent, worker,
                             shard)
            parent = name
            seq += 1
        for name, t0, t1 in ctx.intervals:
            yield TraceEvent(tid, seq, name, "component", t0, t1,
                             COMPONENT_STAGE.get(name), worker, shard)
            seq += 1


def dump_trace_jsonl(events: Iterable[TraceEvent],
                     path: Union[str, Path]) -> int:
    """Write trace events as JSON lines in stream order, omitting ``None``
    fields (serial and sharded runs produce the same bytes for the same
    events, shard attribution aside).  ``events`` may be a lazy stream.
    Returns the number of events written."""
    dumps = json.dumps
    count = 0
    with open(path, "w") as fh:
        for e in events:
            row = {
                "trace_id": e.trace_id,
                "seq": e.seq,
                "name": e.name,
                "kind": e.kind,
                "start": e.start,
                "end": e.end,
            }
            if e.parent is not None:
                row["parent"] = e.parent
            if e.worker is not None:
                row["worker"] = e.worker
            if e.shard is not None:
                row["shard"] = e.shard
            fh.write(dumps(row))
            fh.write("\n")
            count += 1
    return count


def load_trace_jsonl(path: Union[str, Path]) -> list[TraceEvent]:
    """Read events written by :func:`dump_trace_jsonl`."""
    events: list[TraceEvent] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            events.append(TraceEvent(
                trace_id=data["trace_id"],
                seq=data["seq"],
                name=data["name"],
                kind=data["kind"],
                start=data["start"],
                end=data["end"],
                parent=data.get("parent"),
                worker=data.get("worker"),
                shard=data.get("shard"),
            ))
    return events
