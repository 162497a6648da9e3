"""The lean observation views and the export's one-pass folds.

* ``Span``, ``TraceEvent`` and ``InvocationBreakdown`` carry no
  ``__dict__``, pickle, and compare equal;
* ``derive_spans``' three stable sorts give the ``(start, end, name)``
  tuple-key order, ties included;
* breakdowns derived from the timeline rows equal ``decompose_contexts``
  on the retained contexts (push, pull, and serial vs 2 shards);
* the export's one record walk (``RecordFold``) builds the same health
  collector and distributions as folding each sample on its own;
* the live heartbeat's p99, read as the merge of the latest window's
  per-function sketches, equals the one-stream sketch it replaced.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.lifecycle import interval_triples
from repro.health import HealthCollector
from repro.health.sketch import DDSketch, WindowedSketch
from repro.health.slo import HealthConfig
from repro.metrics.registry import InvocationRecord, Outcome
from repro.metrics.spans import Span
from repro.telemetry import (
    LATENCY_HISTOGRAMS,
    RecordFold,
    TelemetryConfig,
    decompose_contexts,
)
from repro.telemetry.timeline import TimelineRow
from repro.tracing.events import TraceEvent, derive_spans
from tests.golden_scenario import run_scenario
from tests.run_dir_digests import pull_run
from tests.test_cluster_shard import sharded_golden

TRACED = TelemetryConfig(interval=1.0, sample_energy=True, trace=True)


def _contexts(telemetry) -> list:
    return [ctx for w in telemetry._workers for ctx in w.lifecycle.contexts]


@pytest.fixture(scope="module")
def golden_telemetry():
    return run_scenario(TRACED, return_telemetry=True)[1]


# ------------------------------------------------------------------ views
def test_views_are_slotted_and_pickle(golden_telemetry):
    views = {
        Span: golden_telemetry.spans(),
        TraceEvent: golden_telemetry.trace_events(),
        type(golden_telemetry.breakdowns()[0]): golden_telemetry.breakdowns(),
    }
    for cls, items in views.items():
        assert items and all(type(item) is cls for item in items)
        assert not hasattr(items[0], "__dict__"), cls.__name__
        assert pickle.loads(pickle.dumps(items)) == items


_time = st.sampled_from([0.0, 0.25, 0.5, 1.0])
_interval = st.tuples(st.sampled_from(["exec", "dequeue", "lb_rpc"]), _time, _time)


@st.composite
def _rows(draw):
    """Timeline rows over two workers, with ties in every span field."""
    rows = []
    for tid in range(1, draw(st.integers(1, 12)) + 1):
        worker = draw(st.sampled_from([None, "w0", "w1"]))
        lb = None
        if worker is None or draw(st.booleans()):
            t = draw(_time)
            lb = [t, "fn", "w1", draw(st.sampled_from([None, t, 1.0]))]
        if worker is None:
            rows.append(TimelineRow(tid, lb=lb))
            continue
        intervals = [x for iv in draw(st.lists(_interval, max_size=4)) for x in iv]
        rows.append(TimelineRow(tid, worker, draw(st.sampled_from([None, 0, 1])),
                                {}, {}, intervals, True, lb))
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=_rows(), workers=st.permutations(["w0", "w1"]))
def test_span_order_equals_tuple_key_order(rows, workers):
    rank = {name: i for i, name in enumerate(workers)}
    owned = sorted((r for r in rows if r.worker is not None),
                   key=lambda r: (rank[r.worker], r.id))
    unsorted = [Span(name, t0, t1, str(r.id), r.shard)
                for r in owned for name, t0, t1 in interval_triples(r.intervals)]
    for r in rows:
        if r.lb is not None:
            t, fqdn, target, rpc_end = r.lb
            unsorted.append(Span("lb_pick", t, t, fqdn))
            if rpc_end is not None:
                unsorted.append(Span("lb_rpc", t, rpc_end, target))
    expected = sorted(unsorted, key=lambda s: (s.start, s.end, s.name))
    assert derive_spans(rows, workers) == expected


# ------------------------------------------------------------- breakdowns
def test_golden_breakdowns_from_rows_equal_contexts(golden_telemetry):
    breakdowns = golden_telemetry.breakdowns()
    assert breakdowns == decompose_contexts(_contexts(golden_telemetry))
    assert len(breakdowns) > 30


def test_pull_breakdowns_from_rows_equal_contexts():
    telemetry = pull_run()
    breakdowns = telemetry.breakdowns()
    assert breakdowns == decompose_contexts(_contexts(telemetry))
    assert any("claim_wait" in b.phases for b in breakdowns)


def test_sharded_breakdowns_equal_serial(golden_telemetry):
    config = TelemetryConfig(interval=1.0, sample_energy=True)
    merged = sharded_golden(2, telemetry_config=config).telemetry
    serial = decompose_contexts(_contexts(golden_telemetry))
    assert merged.breakdowns() == serial
    assert (merged.summary()["decomposition"]
            == golden_telemetry.summary()["decomposition"])


# ------------------------------------------------------------ record fold
# Completion times land on 5 s window boundaries when both parts are
# multiples of 2.5; the other values sit at or below the sketch's
# min_value, at zero, or anywhere in a wide range.
_latency = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-12, 1e-9, 2.5, 5.0]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
_record = st.builds(
    InvocationRecord,
    function=st.sampled_from(["fn-a", "fn-b"]),
    arrival=st.one_of(st.sampled_from([0.0, 2.5, 5.0, 7.5, 95.0]),
                      st.floats(min_value=0.0, max_value=100.0)),
    outcome=st.sampled_from(list(Outcome)),
    e2e_time=_latency,
    queue_time=_latency,
    overhead=_latency,
    cold=st.booleans(),
    worker=st.sampled_from(["", "w0", "w1", None]),
    invocation_id=st.integers(min_value=0, max_value=20),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(records=st.lists(_record, max_size=60),
       accuracy=st.sampled_from([0.01, 0.02]))
def test_record_fold_equals_per_sample_reference(records, accuracy):
    config = HealthConfig(window=5.0, relative_accuracy=accuracy)
    fold = RecordFold(config)
    for r in records:
        fold.add(r)
    assert fold.health == config.collector(records)

    done = [r for r in records
            if r.outcome not in (Outcome.DROPPED, Outcome.TIMEOUT)]
    dists = fold.distributions()
    assert list(dists) == sorted(LATENCY_HISTOGRAMS)
    for name, attr in zip(LATENCY_HISTOGRAMS,
                          ("e2e_time", "queue_time", "overhead")):
        sketch = DDSketch()
        for r in done:
            sketch.observe(getattr(r, attr))
        assert dists[name].sketch == sketch
        assert dists[name].total == math.fsum(getattr(r, attr) for r in done)

    outcomes: dict = {}
    for r in records:
        outcomes[r.outcome.value] = outcomes.get(r.outcome.value, 0) + 1
    assert fold.outcomes == outcomes
    assert fold.count == len(records)
    assert fold.overheads == {r.invocation_id: r.overhead
                              for r in records if r.invocation_id}


def test_one_function_over_many_windows():
    records = [InvocationRecord("fn", arrival=5.0 * i, outcome=Outcome.WARM,
                                e2e_time=0.1 * i, queue_time=0.01, overhead=0.02,
                                worker="w0")
               for i in range(40)]
    fold = RecordFold(HealthConfig(window=5.0))
    for r in records:
        fold.add(r)
    assert len(fold.health.e2e["fn"].sketches) == 40
    assert fold.health == HealthConfig(window=5.0).collector(records)


# -------------------------------------------------------------- heartbeat
class _OneStreamCollector(HealthCollector):
    """A collector that also folds every e2e sample into one windowed
    stream and reads the heartbeat's latest window from it."""

    __slots__ = ("overall",)

    def __init__(self, window: float = 10.0, relative_accuracy: float = 0.01):
        super().__init__(window, relative_accuracy)
        self.overall = WindowedSketch(window, relative_accuracy)

    def observe(self, function, t, *, completed, e2e_time=None, **kwargs):
        super().observe(function, t, completed=completed, e2e_time=e2e_time,
                        **kwargs)
        if completed and e2e_time is not None:
            self.overall.observe(t, e2e_time)

    def latest_e2e(self):
        sketches = self.overall.sketches
        return sketches[max(sketches)] if sketches else None


def _live_run(run_dir, capsys) -> tuple[str, str]:
    config = TelemetryConfig(interval=1.0, sample_energy=True, health=True)
    run_scenario(config, live_path=run_dir / "live.jsonl")
    assert main(["watch", str(run_dir), "--once"]) == 0
    frame = capsys.readouterr().out.replace(str(run_dir), "RUN")
    return (run_dir / "live.jsonl").read_text(), frame


def test_heartbeat_p99_equals_one_stream_sketch(tmp_path, capsys, monkeypatch):
    live, frame = _live_run(tmp_path / "merged", capsys)

    def one_stream(self, records=()):
        collector = _OneStreamCollector(self.window, self.relative_accuracy)
        for record in records:
            collector.observe_record(record)
        return collector

    monkeypatch.setattr(HealthConfig, "collector", one_stream)
    reference_live, reference_frame = _live_run(tmp_path / "reference", capsys)
    assert live == reference_live
    assert frame == reference_frame
    assert '"e2e_p99":0.' in live and "e2e p99" in frame
