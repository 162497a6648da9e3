"""The run-file line writers print exactly what the JSON encoder would.

``encode_row`` writes a ``traces.jsonl`` line straight from a row's stage
dicts and flat interval list, printing each distinct timestamp once.  The
reference is ``json.JSONEncoder(separators=(",", ":"))`` over the row's
JSON object, built here from the same drawn parts.  The draws mix the
cases a per-row memo keyed by value would get wrong (``0.0`` next to
``-0.0``, ``1`` next to ``1.0``), non-finite floats, repeated and
distinct floats, names that need escaping, and rows with ``shard`` and
``lb`` members or with nothing but ``id`` and ``lb``.

``encode_record`` fills a ``records.jsonl`` template; its reference is
``json.dumps`` of the record's object, on records whose fields may carry
unusual types or values.
"""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.registry import InvocationRecord, Outcome
from repro.telemetry.export import encode_record
from repro.telemetry.timeline import TimelineRow, encode_row, parse_row

ENCODE = json.JSONEncoder(separators=(",", ":")).encode

# Values a per-row memo keyed by value would merge, and the non-finite
# floats JSON spells its own way.
SPECIAL = [0.0, -0.0, 1, 1.0, math.inf, -math.inf, math.nan]
names = st.text(alphabet=st.sampled_from('ab"\\%/é€\n\x00😀'), min_size=1,
                max_size=6)


@st.composite
def rows(draw):
    """A drawn row and its JSON object, built independently of src.  Each
    row draws its timestamps from a few values of its own, so that it
    repeats them the way stage and interval boundaries do; about one row
    in four mixes in a special value."""
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                         .filter(bool), min_size=1, max_size=6))
    if draw(st.integers(0, 3)) == 0:
        pool += draw(st.lists(st.sampled_from(SPECIAL), min_size=1, max_size=3))
    times = st.sampled_from(pool)
    rid = draw(st.integers(0, 2**40))
    lb = draw(st.none() | st.tuples(times, names, names, st.none() | times)
              .map(list))
    if lb is not None and draw(st.integers(0, 3)) == 0:
        return TimelineRow(rid, lb=lb), {"id": rid, "lb": lb}
    worker = draw(names)
    shard = draw(st.none() | st.integers(0, 7))
    stages = draw(st.lists(st.tuples(names, times, st.none() | times),
                           max_size=8, unique_by=lambda s: s[0]))
    intervals = draw(st.lists(st.tuples(names, times, times), max_size=16))
    return _row(stages, intervals, lb, worker, rid, shard,
                draw(st.booleans()))


def _row(stages=(), intervals=(), lb=None, worker="w", rid=7, shard=None,
         closed=True):
    """A row with a worker, from ``(name, t0, t1|None)`` stages and
    ``(name, t0, t1)`` intervals, and its JSON object."""
    row = TimelineRow(
        rid, worker, shard,
        {name: t0 for name, t0, _t1 in stages},
        {name: t1 for name, _t0, t1 in stages if t1 is not None},
        [x for iv in intervals for x in iv], closed, lb,
    )
    obj = {"id": rid, "worker": worker}
    if shard is not None:
        obj["shard"] = shard
    obj["stage_times"] = [list(s) for s in stages]
    obj["intervals"] = [list(iv) for iv in intervals]
    obj["closed"] = closed
    if lb is not None:
        obj["lb"] = lb
    return row, obj


@settings(max_examples=400, deadline=None)
@given(drawn=rows())
@example(drawn=_row([("a", 0.0, -0.0)], [("x", -0.0, 0.0)]))
@example(drawn=_row([("a", 1, 1.0)], [("x", 1.0, 1)]))
@example(drawn=_row([("a", math.inf, math.nan)],
                    [("x", -math.inf, math.inf)]))
@example(drawn=_row([("a", 0.5, None), ("b", 0.5, 0.75)],
                    [("x", 0.5, 0.75), ("y", 0.75, 0.9)],
                    lb=[0.25, 'f"n\\é', "w€", 0.5], worker='wö"rk%s'))
@example(drawn=(TimelineRow(3, lb=[0.5, "fn", "w", None]),
                {"id": 3, "lb": [0.5, "fn", "w", None]}))
def test_encode_row_equals_json_encoder(drawn):
    row, obj = drawn
    line = ENCODE(obj)
    assert encode_row(row) == line
    # The parser reads the line back into a row that writes it again.
    assert encode_row(parse_row(json.loads(line))) == line


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    function=names,
    times=st.tuples(finite, finite, finite, finite,
                    finite | st.sampled_from(SPECIAL)).flatmap(st.permutations),
    outcome=st.sampled_from(list(Outcome)),
    cold=st.booleans() | st.sampled_from([0, 1]),
    worker=names | st.none(),
    invocation_id=st.integers(-5, 2**40) | st.sampled_from([True, False]),
)
@example(function="fn", times=[0.5, 0.25, 1.0, 0.125, 0.375],
         outcome=Outcome.WARM, cold=False, worker="w", invocation_id=3)
@example(function="fn", times=[0.5, 0.25, 1.0, 0.125, 0.375],
         outcome=Outcome.WARM, cold=1, worker="w", invocation_id=True)
@example(function="fn", times=[0.5, 1, 1.0, -0.0, math.nan],
         outcome=Outcome.COLD, cold=True, worker=None, invocation_id=0)
@example(function=7, times=[0.5, 0.25, 1.0, 0.125, 0.375],
         outcome=Outcome.WARM, cold=False, worker="w", invocation_id=3)
def test_encode_record_equals_json_dumps(function, times, outcome, cold,
                                         worker, invocation_id):
    arrival, exec_time, e2e_time, queue_time, overhead = times
    record = InvocationRecord(function, arrival, outcome, exec_time, e2e_time,
                              queue_time, overhead, cold, worker, invocation_id)
    assert encode_record(record) == json.dumps({
        "function": function, "arrival": arrival, "outcome": outcome.value,
        "exec_time": exec_time, "e2e_time": e2e_time,
        "queue_time": queue_time, "overhead": overhead, "cold": cold,
        "worker": worker, "invocation_id": invocation_id,
    })
