"""The per-invocation timeline row: one type, one writer, one parser.

A run's timeline (``traces.jsonl``, schema in :mod:`repro.tracing.events`)
holds one row per invocation id.  In memory a row is a
:class:`TimelineRow` that references its lifecycle context's stage-time
dicts and flat interval list, so the export builds no per-interval
container.  :func:`encode_row` writes a row's JSON line straight from
those references, printing each distinct timestamp of the row once (a
row repeats every stage and component boundary two to four times);
:func:`parse_row` reads a line's JSON object back into a row, so the
views in :mod:`repro.tracing.events` read memory and disk alike.

The line is byte-identical to encoding :func:`row_object` with
``json.JSONEncoder(separators=(",", ":"))``, which is what the writer
falls back to for the rare row whose numbers a per-row memo could
confuse: a zero (``0.0`` and ``-0.0`` are equal keys), a number that is
not a plain float (``1`` and ``1.0`` are equal keys), or a non-finite
one (JSON spells it ``NaN``/``Infinity``).
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain, compress, cycle
from json.encoder import encode_basestring_ascii as _string
from math import isfinite
from typing import NamedTuple, Optional

from ..core.lifecycle import interval_triples

__all__ = ["TimelineRow", "row_object", "encode_row", "parse_row"]


class TimelineRow(NamedTuple):
    """One invocation's timeline row.  ``worker`` is ``None`` on a
    placement-only row (the LB→worker hop was in flight at the horizon);
    otherwise ``entered``/``exited`` map stage names to their enter and
    exit times (a stage not yet exited is absent from ``exited``) and
    ``intervals`` is the flat ``[name, t0, t1, ...]`` component list.
    ``lb`` is ``[t, fqdn, target, rpc_end|None]`` when the push front end
    placed the invocation."""

    id: int
    worker: Optional[str] = None
    shard: Optional[int] = None
    entered: Optional[dict] = None
    exited: Optional[dict] = None
    intervals: Optional[list] = None
    closed: bool = False
    lb: Optional[list] = None


def row_object(row: TimelineRow) -> dict:
    """The row's JSON object, in the schema's key order."""
    out: dict = {"id": row.id}
    if row.worker is not None:
        out["worker"] = row.worker
        if row.shard is not None:
            out["shard"] = row.shard
        exited = row.exited
        out["stage_times"] = [[name, t0, exited.get(name)]
                              for name, t0 in row.entered.items()]
        out["intervals"] = [list(iv) for iv in interval_triples(row.intervals)]
        out["closed"] = row.closed
    if row.lb is not None:
        out["lb"] = list(row.lb)
    return out


_encode = json.JSONEncoder(separators=(",", ":")).encode
_MEMO_SAFE = {float, type(None)}
_TIMES_OF_TRIPLE = (False, True, True)


@lru_cache(maxsize=256)
def _template(stages: tuple, intervals: tuple) -> str:
    """The ``stage_times`` and ``intervals`` members of a row with these
    stage and interval names, with a ``%s`` slot per timestamp."""
    def triples(names):
        return "[" + ",".join(
            f"[{_string(name).replace('%', '%%')},%s,%s]" for name in names
        ) + "]"

    return f',"stage_times":{triples(stages)},"intervals":{triples(intervals)}'


def encode_row(row: TimelineRow) -> str:
    """The row's JSON line (no newline), equal to ``JSONEncoder(separators=
    (",", ":")).encode(row_object(row))``."""
    if row.worker is None:
        return _encode(row_object(row))
    entered, exited, intervals, lb = row.entered, row.exited, row.intervals, row.lb
    # The row's timestamps in the order the line prints them.
    times = [*chain.from_iterable(zip(entered.values(), map(exited.get, entered))),
             *compress(intervals, cycle(_TIMES_OF_TRIPLE))]
    numbers = times if lb is None else [*times, lb[0], lb[3]]
    distinct = dict.fromkeys(numbers)
    distinct.pop(None, None)
    if (not _MEMO_SAFE.issuperset(map(type, numbers)) or 0.0 in distinct
            or not isfinite(sum(distinct))):
        return _encode(row_object(row))
    # Each distinct timestamp is printed once.
    text = dict(zip(distinct, map(float.__repr__, distinct)))
    text[None] = "null"
    t = text.__getitem__
    shard = "" if row.shard is None else f',"shard":{row.shard}'
    members = _template(tuple(entered), tuple(intervals[0::3])) % tuple(map(t, times))
    closed = "true" if row.closed else "false"
    lb_member = ("" if lb is None else
                 f',"lb":[{t(lb[0])},{_string(lb[1])},{_string(lb[2])},{t(lb[3])}]')
    return (f'{{"id":{row.id},"worker":{_string(row.worker)}{shard}{members}'
            f',"closed":{closed}{lb_member}}}')


def parse_row(obj: dict) -> TimelineRow:
    """A row from its JSON object (a parsed ``traces.jsonl`` line)."""
    lb = obj.get("lb")
    if "worker" not in obj:
        return TimelineRow(obj["id"], lb=lb)
    stages = obj["stage_times"]
    return TimelineRow(
        obj["id"], obj["worker"], obj.get("shard"),
        {name: t0 for name, t0, _t1 in stages},
        {name: t1 for name, _t0, t1 in stages if t1 is not None},
        [x for iv in obj["intervals"] for x in iv],
        obj["closed"], lb,
    )
