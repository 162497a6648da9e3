"""Tests for the telemetry pipeline: export-time latency distributions,
sampler, decomposition, exporters, run directories and the inspect CLI."""

import json
import math
import re
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.core.config import WorkerConfig
from repro.core.function import FunctionRegistration
from repro.core.lifecycle import interval_triples
from repro.core.worker import Worker
from repro.loadbalancer.cluster import Cluster
from repro.health import DDSketch
from repro.metrics import MetricsRegistry
from repro.metrics.registry import InvocationRecord, Outcome
from repro.sim.core import Environment
from repro.telemetry import (
    LATENCY_HISTOGRAMS,
    PHASES,
    Telemetry,
    TelemetryConfig,
    TelemetrySampler,
    Timeseries,
    decompose_contexts,
    dump_timeseries_csv,
    inspect_report,
    latency_distributions,
    load_run,
    match_records,
    render_prometheus,
)

REG = FunctionRegistration(name="f", memory_mb=128, warm_time=0.1, cold_time=0.5)


def _run_worker(n_invocations=3, telemetry_config=None, until=30.0):
    """One worker, sequential invocations, optional telemetry attached."""
    env = Environment()
    worker = Worker(env, WorkerConfig(cores=2, memory_mb=4096))
    telemetry = None
    if telemetry_config is not None:
        telemetry = Telemetry(env, telemetry_config)
        telemetry.attach_worker(worker)
        telemetry.start()
    worker.start()
    worker.register_sync(REG)

    def drive():
        for _ in range(n_invocations):
            yield from worker.invoke(REG.fqdn())

    env.process(drive(), name="drive")
    env.run(until=until)
    if telemetry is not None:
        telemetry.stop()
    return worker, telemetry


# ------------------------------------------------------------ distributions
def _done(e2e, queue=0.0, overhead=0.0, arrival=0.0, worker=None):
    return InvocationRecord(
        function="f", arrival=arrival, outcome=Outcome.WARM, exec_time=0.1,
        e2e_time=e2e, queue_time=queue, overhead=overhead, worker=worker,
    )


def _e2e(samples):
    """The e2e distribution of completed records with these e2e times."""
    return latency_distributions([_done(v) for v in samples], [])["e2e_seconds"]


def test_histogram_bucket_semantics():
    dist = _e2e([0.0, 0.005, 0.0051, 100.0])
    sketch = dist.sketch
    pairs = list(dist.sketch.cumulative())
    # Zero bucket first (exact zeros cannot sit on a log scale), then one
    # bucket per occupied sketch key, then +Inf.
    assert pairs[0] == (sketch.min_value, 1)
    assert [c for _, c in pairs] == [1, 2, 3, 4, 4]
    for (prev, _), (bound, _), sample in zip(pairs, pairs[1:], (0.005, 0.0051, 100.0)):
        assert prev < sample <= bound
        assert bound == sketch.gamma ** sketch.key(sample)
    assert pairs[-1] == (float("inf"), 4)
    assert (sketch.minimum, sketch.maximum) == (0.0, 100.0)


def test_histogram_rejects_bad_samples():
    with pytest.raises(ValueError):
        _e2e([-1.0])
    with pytest.raises(ValueError):
        _e2e([float("nan")])


def test_histogram_validation():
    dists = latency_distributions([], [])
    assert sorted(dists) == sorted(LATENCY_HISTOGRAMS)  # claim wait: pull only
    summary = dists["e2e_seconds"].summary()
    assert summary["count"] == 0
    assert all(math.isnan(summary[k]) for k in ("mean", "min", "max", "p50", "p99"))
    with pytest.raises(ValueError):
        dists["e2e_seconds"].sketch.quantile(101)


def test_histogram_quantiles_bounded_by_bucket():
    samples = [0.01 * 1.07**i for i in range(150)]
    dist = _e2e(samples)
    accuracy = dist.sketch.relative_accuracy
    summary = dist.summary()
    samples.sort()
    for key, q in (("p50", 50), ("p90", 90), ("p99", 99)):
        exact = samples[max(1, math.ceil(q / 100 * len(samples))) - 1]
        # Within one sketch bucket: the relative accuracy of the exact
        # nearest-rank sample.
        assert abs(summary[key] - exact) <= accuracy * exact
    assert summary["max"] == samples[-1]


def test_histogram_merge():
    # Per-worker record lists merge by concatenation: count, extremes and
    # the exact sum (hence mean) come out of the union.
    a = [_done(v, worker="w0") for v in (0.1, 0.2)]
    b = [_done(v, worker="w1") for v in (0.4, 0.8)]
    dist = latency_distributions(a + b, [])["e2e_seconds"]
    assert dist.sketch.count == 4
    assert dist.total == math.fsum((0.1, 0.2, 0.4, 0.8))
    assert dist.summary()["mean"] == dist.total / 4
    assert dist.sketch.maximum == 0.8


def test_histogram_merge_mismatch_names_both_geometries():
    # Sketches of one geometry merge (the health windows fold into one
    # whole-run sketch); the error for any other names both geometries.
    with pytest.raises(ValueError, match=r"relative_accuracy 0\.01 vs 0\.05"):
        DDSketch().merge(DDSketch(relative_accuracy=0.05))
    with pytest.raises(ValueError, match=r"min_value 1e-09 vs 1e-06"):
        DDSketch().merge(DDSketch(min_value=1e-6))


def test_histogram_merge_empty_is_identity():
    done = [_done(v, queue=v / 2, overhead=v / 4) for v in (0.05, 0.2, 1.5)]
    cut_off = [
        InvocationRecord(function="f", arrival=9.0, outcome=outcome, e2e_time=50.0)
        for outcome in (Outcome.DROPPED, Outcome.TIMEOUT)
    ]
    # Dropped and timed-out records add nothing to any distribution.
    with_drops = latency_distributions(done + cut_off, [])
    alone = latency_distributions(done, [])
    for name in LATENCY_HISTOGRAMS:
        assert with_drops[name].sketch == alone[name].sketch
        assert with_drops[name].summary() == alone[name].summary()
        assert alone[name].sketch.count == 3


def test_histogram_quantile_after_merge_matches_single_stream():
    samples = [0.01 * (i + 1) for i in range(50)] + [2.0, 5.0, 9.0]
    whole = latency_distributions([_done(v) for v in samples], [])
    # Records of two shards, merged in a different order.
    shard_a = [_done(v) for i, v in enumerate(samples) if i % 2]
    shard_b = [_done(v) for i, v in enumerate(samples) if not i % 2]
    merged = latency_distributions(shard_b + shard_a, [])
    for name in LATENCY_HISTOGRAMS:
        assert merged[name].sketch == whole[name].sketch
        assert merged[name].summary() == whole[name].summary()


def test_histogram_cumulative_and_reset():
    pairs = list(_e2e([0.5, 0.05, 5.0, 0.5]).sketch.cumulative())
    cums = [c for _, c in pairs]
    assert cums == sorted(cums)  # cumulative counts are monotone
    assert pairs[-1] == (float("inf"), 4)
    # An empty distribution still renders its zero and +Inf buckets.
    assert list(_e2e([]).sketch.cumulative()) == [(1e-9, 0), (float("inf"), 0)]


def test_registry_latency_histograms_opt_in():
    reg = MetricsRegistry()
    rec = _done(0.15, queue=0.02, overhead=0.05)
    reg.record_invocation(rec)
    reg.record_invocation(
        InvocationRecord(function="f", arrival=0.0, outcome=Outcome.DROPPED)
    )
    # The registry keeps records and counters only ...
    assert not hasattr(reg, "histograms")
    assert reg.records[0] is rec and reg.count("invocations.completed") == 1
    # ... and the distributions are derived from the records at export.
    dists = latency_distributions(reg.records, [])
    for name in LATENCY_HISTOGRAMS:
        assert dists[name].sketch.count == 1  # drop not observed
    assert dists["e2e_seconds"].sketch.maximum == pytest.approx(0.15)


# --------------------------------------------------------------- timeseries
def test_timeseries_append_and_rows():
    ts = Timeseries(("t", "x"))
    ts.append(0.0, 1)
    ts.append(1.0, 2)
    assert len(ts) == 2
    assert ts.column("x") == [1, 2]
    assert list(ts.rows()) == [{"t": 0.0, "x": 1}, {"t": 1.0, "x": 2}]
    with pytest.raises(ValueError):
        ts.append(2.0)
    with pytest.raises(ValueError):
        Timeseries(())
    with pytest.raises(ValueError):
        Timeseries(("a", "a"))


def test_telemetry_config_validation():
    with pytest.raises(ValueError):
        TelemetryConfig(interval=0.0)
    with pytest.raises(ValueError):
        TelemetrySampler(Environment(), interval=-1.0)


# ------------------------------------------------------------------ sampler
def test_sampler_snapshots_on_grid():
    worker, telemetry = _run_worker(
        n_invocations=3, telemetry_config=TelemetryConfig(interval=1.0)
    )
    ts = telemetry.series[worker.name]
    assert set(ts.columns) == {
        "t", "queue_depth", "running", "warm_containers",
        "in_use_containers", "memory_used_mb", "busy_cores",
    }
    times = ts.column("t")
    assert times == [float(i) for i in range(1, len(times) + 1)]
    assert telemetry.sampler.samples == len(times)
    # The warm container parked after the run shows up in the tail samples.
    assert ts.column("warm_containers")[-1] == 1
    assert ts.column("memory_used_mb")[-1] == pytest.approx(128.0)


def test_sampler_energy_columns_opt_in():
    worker, telemetry = _run_worker(
        n_invocations=2,
        telemetry_config=TelemetryConfig(interval=1.0, sample_energy=True),
    )
    ts = telemetry.series[worker.name]
    assert "power_w" in ts.columns and "energy_j" in ts.columns
    energy = ts.column("energy_j")
    assert energy == sorted(energy)  # energy is non-decreasing
    assert energy[-1] > 0.0
    # Sampling must not have perturbed the monitor's own integration.
    assert worker.energy.joules_at(telemetry.env.now) >= energy[-1]


def test_sampler_double_start_and_duplicate_worker_rejected():
    env = Environment()
    worker = Worker(env, WorkerConfig())
    sampler = TelemetrySampler(env, interval=1.0)
    sampler.attach_worker(worker)
    with pytest.raises(ValueError):
        sampler.attach_worker(worker)
    sampler.start()
    with pytest.raises(RuntimeError):
        sampler.start()


# ------------------------------------------------------------ decomposition
def test_decomposition_phases_sum_to_recorded_overhead():
    worker, telemetry = _run_worker(
        n_invocations=4, telemetry_config=TelemetryConfig()
    )
    records = [r for r in telemetry.records()]
    breakdowns = telemetry.breakdowns()
    assert len(breakdowns) == 4
    assert breakdowns[0].cold and not breakdowns[1].cold
    by_id = {b.invocation_id: b for b in breakdowns}
    for rec in records:
        b = by_id[rec.invocation_id]
        assert b.overhead == pytest.approx(rec.overhead, abs=1e-9)
        assert b.exec_time == pytest.approx(rec.exec_time)
        assert set(b.phases) == set(PHASES)
    matched, compared = match_records(breakdowns, records)
    assert (matched, compared) == (4, 4)


def _context(inv_id, intervals, outcome=Outcome.WARM):
    """A stand-in for a closed InvocationContext whose collected
    ``(name, start, end)`` intervals are laid out flat, as a context
    keeps them."""
    flat = None if intervals is None else [x for iv in intervals for x in iv]
    return SimpleNamespace(inv=SimpleNamespace(id=inv_id),
                           intervals=flat, outcome=outcome)


def test_decomposition_skips_untagged_and_execless_groups():
    contexts = [
        _context(3, None),                           # not collected -> ignored
        _context(5, [("invoke", 0.0, 0.1)]),         # no exec interval -> skipped
        _context(9, [("invoke", 0.0, 0.1), ("exec", 0.1, 0.3)],
                 outcome=None),                      # still in flight -> skipped
        _context(7, [
            ("invoke", 0.0, 0.1),
            ("exec", 0.1, 0.3),
            ("weird_component", 0.3, 0.4),           # unknown -> "other"
        ]),
    ]
    out = decompose_contexts(contexts)
    assert len(out) == 1
    b = out[0]
    assert b.invocation_id == 7
    assert b.phases["queue"] == pytest.approx(0.1)
    assert b.phases["other"] == pytest.approx(0.1)
    assert b.exec_time == pytest.approx(0.2)


def test_decomposition_counts_queue_wait_gap():
    intervals = [
        ("add_item_to_q", 0.0, 0.1),
        ("dequeue", 0.6, 0.7),  # 0.5 s waiting in queue
        ("exec", 0.7, 1.0),
    ]
    b = decompose_contexts([_context(1, intervals)])[0]
    assert b.phases["queue"] == pytest.approx(0.1 + 0.1 + 0.5)


# ------------------------------------------------------- one timeline
def _replay_chbl(telemetry_config=None):
    """A small CH-BL cluster replaying an open-loop plan to completion."""
    from repro.loadgen.openloop import FunctionMix, build_plan, replay_plan
    from repro.sim.distributions import Exponential

    env = Environment()
    cluster = Cluster(env, num_workers=3, lb_policy="ch_bl",
                      config=WorkerConfig(cores=2, memory_mb=4096, seed=5,
                                          backend="null"))
    telemetry = None
    if telemetry_config is not None:
        telemetry = Telemetry(env, telemetry_config)
        cluster.attach_telemetry(telemetry)
        telemetry.start()
    cluster.start()
    cluster.register_sync(REG)
    plan = build_plan([FunctionMix(REG.fqdn(), Exponential(0.2))], 20.0, seed=3)
    invocations = replay_plan(env, cluster, plan, grace=10.0)
    cluster.stop()
    if telemetry is not None:
        telemetry.stop()
    assert invocations and all(i.completed_at is not None for i in invocations)
    return cluster, telemetry, invocations


def test_untelemetered_replay_keeps_no_per_invocation_timing():
    cluster, _, _ = _replay_chbl()
    for w in cluster.workers.values():
        assert not hasattr(w, "spans")
        assert w.lifecycle.contexts == []
    assert cluster.front.placement_log is None


def test_exported_spans_are_context_intervals_plus_lb_spans(tmp_path):
    """The exported timeline rows hold each context's intervals and each
    placement's LB entry once; the ``spans()`` view derives the worker
    and LB spans from them."""
    cluster, telemetry, invocations = _replay_chbl(TelemetryConfig(trace=True))
    paths = telemetry.export(tmp_path / "run")
    rows = [json.loads(line) for line in paths["traces"].read_text().splitlines()]
    exported = telemetry.spans()
    contexts = [ctx for w in cluster.workers.values()
                for ctx in w.lifecycle.contexts]
    assert len(contexts) == len(invocations)
    derived = [(name, start, end, str(ctx.inv.id))
               for ctx in contexts
               for name, start, end in interval_triples(ctx.intervals)]
    log = cluster.front.placement_log
    assert len(log) == len(invocations)
    # Log position + 1 is the placement ordinal, the invocation id.
    targets = {r.invocation_id: r.worker for r in cluster.records()}
    assert all(targets[k] == target
               for k, (_t, _fqdn, target) in enumerate(log, 1))
    rpc = cluster.rpc_latency
    assert [row["id"] for row in rows] == list(range(1, len(log) + 1))
    assert [row["lb"] for row in rows] == \
        [[t, fqdn, target, t + rpc] for t, fqdn, target in log]
    by_id = {ctx.inv.id: ctx for ctx in contexts}
    assert all(row["intervals"] == [list(i) for i in
                                    interval_triples(by_id[row["id"]].intervals)]
               for row in rows)
    lb = [row for t, fqdn, target in log
          for row in (("lb_pick", t, t, fqdn), ("lb_rpc", t, t + rpc, target))]
    assert len(exported) == len(derived) + len(lb)
    assert sorted((s.name, s.start, s.end, s.tag) for s in exported) == \
        sorted(derived + lb)
    assert [(s.start, s.end, s.name) for s in exported] == \
        sorted((s.start, s.end, s.name) for s in exported)


def _traced_pull_replay(seconds=250.0):
    """A small traced, health-graded ``pull_local`` replay; returns the
    cluster and its invocations."""
    from repro.sim.distributions import Exponential
    from repro.loadgen.openloop import FunctionMix, build_plan, replay_plan

    env = Environment()
    cluster = Cluster(env, num_workers=2,
                      config=WorkerConfig(cores=2, memory_mb=2048, seed=3,
                                          backend="null"),
                      lb_policy="pull_local")
    telemetry = Telemetry(env, TelemetryConfig(trace=True, health=True))
    cluster.attach_telemetry(telemetry)
    telemetry.start()
    cluster.start()
    regs = [FunctionRegistration(name=f"fn{i}", memory_mb=128,
                                 warm_time=0.1 + 0.05 * i, cold_time=0.6)
            for i in range(6)]
    for reg in regs:
        cluster.register_sync(reg)
    plan = build_plan([FunctionMix(r.fqdn(), Exponential(0.9)) for r in regs],
                      seconds, seed=5)
    invocations = replay_plan(env, cluster, plan, grace=60.0)
    cluster.stop()
    telemetry.stop()
    return cluster, invocations


def test_traced_pull_run_retains_few_gc_objects_per_invocation(monkeypatch):
    """Retaining every context for export must not make the cyclic GC
    walk a list per stage: stage times are flat dicts of floats, released
    contexts drop their regulator token, and records are slotted.  A
    traced ``pull_local`` replay retained 16 GC-tracked objects per
    invocation when stage times were ``[t0, t1]`` lists; about 6 now.
    The ``stage_times`` view still equals the ``{stage: [t0, t1|None]}``
    dict the tracker used to store, in stage-enter order."""
    import gc

    from repro.core.lifecycle import StageTracker

    gc.collect()
    before = len(gc.get_objects())
    _, invocations = _traced_pull_replay()
    gc.collect()
    retained = (len(gc.get_objects()) - before) / len(invocations)
    assert len(invocations) > 1000
    assert retained <= 8.0, f"{retained:.2f} GC-tracked objects per invocation"

    # A second, shorter run records the old dict-of-lists beside the
    # tracker's own stamps.
    stored: dict[int, dict] = {}
    enter, exit_ = StageTracker.stage_enter, StageTracker.stage_exit

    def stage_enter(self, ctx, stage):
        enter(self, ctx, stage)
        stored.setdefault(id(ctx), {})[stage] = [self.env.now, None]

    def stage_exit(self, ctx, stage):
        exit_(self, ctx, stage)
        stored[id(ctx)][stage][1] = self.env.now

    monkeypatch.setattr(StageTracker, "stage_enter", stage_enter)
    monkeypatch.setattr(StageTracker, "stage_exit", stage_exit)
    cluster, invocations = _traced_pull_replay(seconds=30.0)
    contexts = [c for w in cluster.workers.values() for c in w.lifecycle.contexts]
    assert len(contexts) == len(invocations) > 0
    for ctx in contexts:
        assert list(ctx.stage_times.items()) == list(stored[id(ctx)].items())


def test_one_push_cluster_per_pipeline():
    env = Environment()
    telemetry = Telemetry(env, TelemetryConfig())
    telemetry.attach_cluster(Cluster(env, num_workers=1))
    with pytest.raises(ValueError, match="one push cluster"):
        telemetry.attach_cluster(Cluster(env, num_workers=1))


def _single_invocation(until):
    """One cold invocation on a telemetry-attached worker, cut at ``until``;
    returns the worker, the pipeline and the retained context."""
    env = Environment()
    worker = Worker(env, WorkerConfig(cores=2, memory_mb=4096))
    telemetry = Telemetry(env, TelemetryConfig())
    telemetry.attach_worker(worker)
    worker.start()
    worker.register_sync(REG)
    env.process(worker.invoke(REG.fqdn()), name="one")
    env.run(until=until)
    (ctx,) = worker.lifecycle.contexts
    return worker, telemetry, ctx


def test_cut_off_invocation_exports_finished_spans_but_no_breakdown():
    from repro.core.lifecycle import COMPLETE

    _, _, whole = _single_invocation(until=30.0)
    entered = whole.stage_times[COMPLETE][0]
    # Cut inside return_container: after the exec interval was recorded,
    # before the invocation could close.
    worker, telemetry, ctx = _single_invocation(until=entered + 1e-6)
    assert ctx.stage == COMPLETE
    assert ctx.stage_times[COMPLETE] == [entered, None]
    assert ctx.outcome is None and worker.metrics.records == []
    names = ctx.intervals[0::3]
    assert "exec" in names and "download_result" in names
    assert "return_container" not in names
    spans = telemetry.spans()
    assert [(s.name, s.start, s.end) for s in spans] == \
        sorted(interval_triples(ctx.intervals),
               key=lambda t: (t[1], t[2], t[0]))
    assert all(s.tag == str(ctx.inv.id) for s in spans)
    assert telemetry.breakdowns() == []


def _cold_then_warm(until):
    """A cold invocation and then a warm one on a telemetry-attached
    worker, cut at ``until``; each retained context's intervals as
    ``(name, start, end)`` triples, in recording order."""
    env = Environment()
    worker = Worker(env, WorkerConfig(cores=2, memory_mb=4096))
    telemetry = Telemetry(env, TelemetryConfig())
    telemetry.attach_worker(worker)
    worker.start()
    worker.register_sync(REG)

    def two():
        yield from worker.invoke(REG.fqdn())
        yield from worker.invoke(REG.fqdn())

    env.process(two(), name="two")
    env.run(until=until)
    return [list(interval_triples(ctx.intervals))
            for ctx in worker.lifecycle.contexts]


def test_a_cut_run_keeps_exactly_the_components_that_finished():
    """Cut inside every interval an uncut run records, and at its exact
    end: the cut contexts keep the uncut run's intervals that ended at
    or before the cut, in the same order, and no others."""
    from repro.core.lifecycle import COMPONENT_STAGE

    whole = _cold_then_warm(until=30.0)
    assert {name for ctx in whole for name, _, _ in ctx} == set(COMPONENT_STAGE)
    for cut in sorted({t for ctx in whole for _, t0, t1 in ctx
                       for t in ((t0 + t1) / 2, t1)}):
        got = _cold_then_warm(until=cut)
        want = [[t for t in ctx if t[2] <= cut] for ctx in whole]
        assert got == want[:len(got)], cut
        assert not any(want[len(got):]), cut


# -------------------------------------------------------------- exporters
def test_timeseries_csv_round_trip(tmp_path):
    ts = Timeseries(("t", "v"))
    ts.append(0.0, 1.5)
    ts.append(1.0, 2.5)
    path = tmp_path / "ts.csv"
    assert dump_timeseries_csv(ts, path) == 2
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,v"
    assert lines[1] == "0.0,1.5"


PROM_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? '
    r"[0-9eE+.\-]+|[+-]Inf|NaN$"
)


def test_prometheus_rendering_parses():
    reg = MetricsRegistry()
    reg.incr("scheduler.bypass", 3)
    reg.set_gauge("pool.memory-used", 42.5)
    reg.record_invocation(_done(0.15, queue=0.02, overhead=0.05))
    text = render_prometheus(reg, latency_distributions(reg.records, []))
    assert text.endswith("\n")
    lines = text.splitlines()
    for line in lines:
        if not line or line.startswith("#"):
            continue
        assert PROM_LINE.match(line), f"bad exposition line: {line!r}"
    assert "repro_scheduler_bypass_total 3" in lines
    assert "repro_pool_memory_used 42.5" in lines
    # Histogram family: buckets, +Inf closer, sum and count.
    assert any(
        line.startswith("repro_e2e_seconds_bucket{le=") for line in lines
    )
    assert 'repro_e2e_seconds_bucket{le="+Inf"} 1' in lines
    assert "repro_e2e_seconds_count 1" in lines
    # TYPE declarations for all three metric kinds.
    joined = "\n".join(lines)
    for kind in ("counter", "gauge", "histogram"):
        assert f" {kind}" in joined


# A strict model of the text exposition format: metric name, optional
# label set (escaped values), float value.  Stricter than PROM_LINE — it
# recovers the label values so escaping can be checked round-trip.
_STRICT_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\\\"n])*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\\\"n])*\")*)\})?"
    r" (?P<value>[0-9eE+.\-]+|[+-]Inf|NaN)$"
)
_STRICT_LABEL = re.compile(
    r"([a-zA-Z_][a-zA-Z0-9_]*)=\"((?:[^\"\\\n]|\\[\\\"n])*)\"")


def _unescape_label(raw: str) -> str:
    out, i = [], 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\":
            nxt = raw[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}[nxt])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_exposition(text: str):
    """Parse exposition text strictly; returns (samples, helps, types)."""
    samples, helps, types = [], {}, {}
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, doc = line[len("# HELP "):].partition(" ")
            assert "\n" not in doc
            helps[name] = doc
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            assert kind in ("counter", "gauge", "histogram", "summary"), line
            types[name] = kind
            continue
        m = _STRICT_SAMPLE.match(line)
        assert m, f"malformed exposition line: {line!r}"
        labels = {
            k: _unescape_label(v)
            for k, v in _STRICT_LABEL.findall(m.group("labels") or "")
        }
        samples.append((m.group("name"), labels, m.group("value")))
    return samples, helps, types


def _family(name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def test_escape_label_value_specials():
    from repro.telemetry import escape_label_value

    assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
    assert _unescape_label(escape_label_value('a\\b"c\nd')) == 'a\\b"c\nd'
    assert escape_label_value("plain") == "plain"


def test_registry_prometheus_conformance_round_trip():
    reg = MetricsRegistry()
    reg.incr("scheduler.bypass", 3)
    reg.set_gauge("pool.memory-used", 42.5)
    # Queue times include an exact 0.0 (the sketch's zero bucket).
    for i, (e2e, queue) in enumerate(((0.15, 0.0), (0.4, 0.02), (2.5, 0.0), (0.4, 1.0))):
        reg.record_invocation(_done(e2e, queue=queue, overhead=0.05, arrival=i))
    breakdowns = [SimpleNamespace(phases={"claim_wait": w}) for w in (0.0, 0.003)]
    dists = latency_distributions(reg.records, breakdowns)
    samples, helps, types = _parse_exposition(render_prometheus(reg, dists))
    assert samples
    # Every sample belongs to a family with both # HELP and # TYPE.
    for name, _, _ in samples:
        family = _family(name)
        assert family in types, name
        assert family in helps, name
    # Counter/gauge/histogram kinds land where expected.
    assert types["repro_scheduler_bypass_total"] == "counter"
    assert types["repro_pool_memory_used"] == "gauge"
    assert types["repro_e2e_seconds"] == "histogram"
    # Sketch-backed histogram families: strictly increasing le bounds,
    # non-decreasing cumulative counts, +Inf last and equal to _count.
    values = {name: value for name, labels, value in samples if not labels}
    for name, dist in dists.items():
        family = f"repro_{name}"
        assert types[family] == "histogram"
        buckets = [(float(labels["le"]), int(value))
                   for sample, labels, value in samples
                   if sample == f"{family}_bucket"]
        bounds = [le for le, _ in buckets]
        counts = [c for _, c in buckets]
        assert all(a < b for a, b in zip(bounds, bounds[1:])), family
        assert counts == sorted(counts), family
        assert bounds[-1] == float("inf")
        assert counts[-1] == int(values[f"{family}_count"]) == dist.sketch.count
        assert float(values[f"{family}_sum"]) == dist.total
    # A 0.0 sample lands in the first (zero) bucket.
    first = {sample: int(value) for sample, labels, value in samples
             if sample.endswith("_bucket") and float(labels["le"]) == 1e-9}
    assert first["repro_queue_seconds_bucket"] == 2
    assert first["repro_claim_wait_seconds_bucket"] == 1
    assert first["repro_e2e_seconds_bucket"] == 0


def test_health_prometheus_conformance_and_label_escaping():
    from repro.health import HealthConfig
    from repro.telemetry import render_health_prometheus

    weird = 'fn"one\\two\nthree.1'
    config = HealthConfig(window=10.0, detectors=False)
    collector = config.collector()
    from repro.health import evaluate_health

    collector.observe(weird, 1.0, completed=True, e2e_time=0.5,
                      queue_time=0.1, overhead=0.2, worker="w-0")
    collector.observe("plain.1", 2.0, completed=True, e2e_time=1.5)
    report = evaluate_health(collector, config=config)
    text = render_health_prometheus(report.health)
    samples, helps, types = _parse_exposition(text)
    for name, _, _ in samples:
        assert name in types and name in helps, name
    # The weird function name survives the escape/parse round trip.
    fn_labels = {
        labels["function"] for name, labels, _ in samples
        if name == "repro_health_slo_violating_windows"
    }
    assert fn_labels == {weird, "plain.1"}
    quantiles = {
        labels["quantile"] for name, labels, _ in samples
        if name == "repro_health_e2e_seconds"
    }
    assert quantiles == {"0.5", "0.9", "0.99"}
    worker_samples = [
        labels for name, labels, _ in samples
        if name == "repro_health_queue_seconds"
    ]
    assert all(l["worker"] == "w-0" for l in worker_samples)


# ------------------------------------------------------ run dirs + inspect
def test_export_load_run_and_inspect(tmp_path):
    worker, telemetry = _run_worker(
        n_invocations=3,
        telemetry_config=TelemetryConfig(interval=1.0, sample_energy=True),
    )
    run_dir = tmp_path / "run"
    paths = telemetry.export(run_dir)
    assert sorted(p.name for p in paths.values()) == [
        "manifest.json", "metrics.prom", "records.jsonl",
        "summary.json", "timeseries.jsonl",
    ]
    data = load_run(run_dir)
    assert len(data["records"]) == 3
    assert data["summary"]["invocations"] == 3
    assert data["summary"]["decomposition"]["matched_records"] == 3
    assert data["metrics_text"].startswith("# HELP")
    # Every timeseries row round-trips with its series name attached.
    assert all(row["series"] == worker.name for row in data["timeseries"])
    ts_row = data["timeseries"][0]
    assert "power_w" in ts_row and "queue_depth" in ts_row

    report = inspect_report(run_dir)
    assert "overhead decomposition" in report
    assert "phase sums match 3/3 records" in report
    assert "latency distributions" in report


def test_inspect_empty_dir(tmp_path):
    report = inspect_report(tmp_path)
    assert "no telemetry artifacts" in report


def test_records_jsonl_schema(tmp_path):
    _, telemetry = _run_worker(n_invocations=2, telemetry_config=TelemetryConfig())
    telemetry.export(tmp_path)
    with open(tmp_path / "records.jsonl") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == 2
    assert rows[0]["outcome"] == "cold" and rows[1]["outcome"] == "warm"
    # IDs come from a global counter: positive, distinct, arrival-ordered.
    ids = [r["invocation_id"] for r in rows]
    assert all(i > 0 for i in ids) and ids == sorted(ids) and len(set(ids)) == 2
    assert rows[0]["e2e_time"] >= rows[0]["exec_time"]


# ------------------------------------------------------------- cluster + CLI
def test_cluster_telemetry_and_statusboard_publish(tmp_path):
    env = Environment()
    cluster = Cluster(
        env, num_workers=2,
        config=WorkerConfig(cores=2, memory_mb=4096),
        status_interval=5.0,
    )
    telemetry = Telemetry(env, TelemetryConfig(interval=1.0))
    cluster.attach_telemetry(telemetry)
    telemetry.start()
    cluster.start()
    cluster.register_sync(REG)

    def drive():
        for _ in range(6):
            yield from cluster.invoke(REG.fqdn())

    env.process(drive(), name="drive")
    env.run(until=30.0)
    telemetry.stop()

    assert set(telemetry.series) == set(cluster.workers)
    # The status board published the load values the balancer acted on.
    assert len(telemetry.sampler.lb_loads) > 0
    loads = list(telemetry.sampler.lb_loads.rows())
    assert all(row["worker"] in cluster.workers for row in loads)

    run_dir = tmp_path / "cluster-run"
    telemetry.export(run_dir)
    data = load_run(run_dir)
    series_names = {row["series"] for row in data["timeseries"]}
    assert "lb" in series_names
    # LB spans are retained but never confused with invocations.
    summary = data["summary"]
    assert summary["decomposition"]["invocations"] == 6
    assert summary["decomposition"]["matched_records"] == 6


def test_cli_inspect_command(tmp_path, capsys):
    _, telemetry = _run_worker(n_invocations=2, telemetry_config=TelemetryConfig())
    run_dir = tmp_path / "run"
    telemetry.export(run_dir)
    assert main(["inspect", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "overhead decomposition" in out
    assert "telemetry run" in out


def test_cli_telemetry_env_fallback(tmp_path, monkeypatch, capsys):
    run_dir = tmp_path / "env-run"
    monkeypatch.setenv("REPRO_TELEMETRY", str(run_dir))
    assert main(["--scale", "small", "cluster-study"]) == 0
    out = capsys.readouterr().out
    assert f"telemetry run exported to {run_dir}" in out
    assert (run_dir / "summary.json").exists()
