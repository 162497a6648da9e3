"""Causal trace events and spans: views of the per-invocation timeline.

A run's one per-invocation record is its *timeline* (``traces.jsonl``):
one row per invocation id, the outer join of the push front end's
placement log and the retained lifecycle contexts, in id order.  On disk
a row is one JSON line, an object with

* ``id`` — the invocation id (the placement ordinal on push clusters,
  the claim ordinal on pull ones);
* ``lb`` — ``[t, fqdn, target, rpc_end]`` when the front end placed the
  invocation: pick time, function, target worker and the end of the
  modelled LB→worker hop (``null`` when the hop is not modelled);
* ``worker``, ``stage_times`` (``[name, t0, t1|null]`` in stage-enter
  order), ``intervals`` (``[name, t0, t1]`` in recording order) and
  ``closed`` (the context reached a terminal stage) — when a worker
  opened a context for it, including one cut off at the horizon;
* ``shard`` — the owning shard index on traced sharded runs.

In memory a row is a :class:`~repro.telemetry.timeline.TimelineRow`,
which holds the context's stage times and flat interval list as they
are; that module writes and parses the lines.  :class:`TraceEvent` and
:class:`~repro.metrics.spans.Span` lists are views derived from rows by
:func:`derive_trace_events` and :func:`derive_spans`, which read rows
from memory and from disk alike; nothing builds either while a run
executes or while it exports.

A trace is the set of events sharing an invocation's ``trace_id`` (the
invocation id itself, already stamped on records and breakdown tags).
Within a trace, ``seq`` orders events in causal-emission order and
``parent`` names the event the span causally hangs under:

* ``lb`` events (``lb_pick`` → ``lb_rpc``) root the trace at the load
  balancer (seq 0 and 1, reserved whenever the row has an LB entry; a
  row without one — pull dispatch, a standalone worker — roots the
  chain at ``admit`` with seq 0);
* ``stage`` events mirror the lifecycle pipeline's stage walk (admit →
  enqueue → dispatch → acquire → warm/cold_create → execute → terminal),
  each parented on its predecessor so the stage chain *is* the causal
  spine;
* ``component`` events are the fine-grained intervals telemetry already
  decomposes (``exec``, ``cold_create``, ``add_item_to_q``, …), parented
  on their owning stage via :data:`COMPONENT_STAGE`.

Events are frozen and totally ordered by ``(trace_id, seq)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter
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
    interval_triples,
)
from ..metrics.spans import Span
from ..telemetry.timeline import TimelineRow, parse_row

__all__ = [
    "TraceEvent",
    "COMPONENT_STAGE",
    "derive_trace_events",
    "derive_spans",
    "load_timeline",
    "load_trace_jsonl",
]

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


@dataclass(frozen=True, slots=True)
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
# after them whenever the row has an LB entry.
_LB_SEQS = 2


def derive_trace_events(rows: Iterable[TimelineRow]) -> Iterator[TraceEvent]:
    """Yield the trace events of timeline ``rows`` (in id order), so in
    canonical ``(trace_id, seq)`` order.

    An LB entry yields ``lb_pick`` and, when the hop is modelled,
    ``lb_rpc``; the stage chain hangs under the last of them.  Only a
    closed row yields its stage and component events: stages in
    stage-enter order, where a stage the pipeline never exited —
    EXECUTE on the timeout path — borrows the next stage's enter time as
    its end, falling back to the terminal stamp; then the component
    intervals in recording order, each parented on its owning stage.
    Events are built positionally: keyword construction of the frozen
    dataclass costs about 40% more.
    """
    for row in rows:
        tid = row.id
        parent = None
        seq = 0
        lb = row.lb
        if lb is not None:
            t, _fqdn, target, rpc_end = lb
            yield TraceEvent(tid, 0, "lb_pick", "lb", t, t)
            parent = "lb_pick"
            if rpc_end is not None:
                yield TraceEvent(tid, 1, "lb_rpc", "lb", t, rpc_end,
                                 "lb_pick", target)
                parent = "lb_rpc"
            seq = _LB_SEQS
        if not row.closed:
            continue
        worker = row.worker
        shard = row.shard
        exited = row.exited
        stages = list(row.entered.items())
        terminal_end = exited.get(stages[-1][0])
        for i, (name, t0) in enumerate(stages):
            t1 = exited.get(name)
            if t1 is None:
                nxt = stages[i + 1][1] if i + 1 < len(stages) else terminal_end
                t1 = t0 if nxt is None else nxt
            yield TraceEvent(tid, seq, name, "stage", t0, t1, parent, worker,
                             shard)
            parent = name
            seq += 1
        for name, t0, t1 in interval_triples(row.intervals):
            yield TraceEvent(tid, seq, name, "component", t0, t1,
                             COMPONENT_STAGE.get(name), worker, shard)
            seq += 1


def derive_spans(rows: Iterable[TimelineRow], workers: Sequence[str]) -> list[Span]:
    """The spans of timeline ``rows`` in ``(start, end, name)`` order.

    Every interval a worker finished is a span tagged with the invocation
    id (in-flight invocations included); an LB entry yields an
    ``lb_pick`` span tagged with the function and, when the hop is
    modelled, an ``lb_rpc`` span tagged with the target.  Ties keep
    cluster order: ``workers`` first, then invocation id, then recording
    order.
    """
    rank = {name: i for i, name in enumerate(workers)}
    owned = []
    lb_spans = []
    for row in rows:
        if row.worker is not None:
            owned.append((rank[row.worker], row.id, row.shard, row.intervals))
        if row.lb is not None:
            t, fqdn, target, rpc_end = row.lb
            lb_spans.append(Span("lb_pick", t, t, fqdn))
            if rpc_end is not None:
                lb_spans.append(Span("lb_rpc", t, rpc_end, target))
    owned.sort(key=lambda item: item[:2])
    out: list[Span] = []
    for _rank, tid, shard, intervals in owned:
        tag = str(tid)
        out.extend(Span(name, t0, t1, tag, shard)
                   for name, t0, t1 in interval_triples(intervals))
    out.extend(lb_spans)
    # Three stable sorts, least significant key first: the order of the
    # (start, end, name) key without a tuple per span.
    out.sort(key=attrgetter("name"))
    out.sort(key=attrgetter("end"))
    out.sort(key=attrgetter("start"))
    return out


def load_timeline(path: Union[str, Path]) -> Iterator[TimelineRow]:
    """The rows of a ``traces.jsonl`` timeline, read lazily."""
    with open(path) as fh:
        for line in fh:
            if line.strip():
                yield parse_row(json.loads(line))


def load_trace_jsonl(path: Union[str, Path]) -> list[TraceEvent]:
    """The trace events of a ``traces.jsonl`` timeline."""
    return list(derive_trace_events(load_timeline(path)))
