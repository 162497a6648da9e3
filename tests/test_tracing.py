"""Causal tracing: trace trees, critical paths, flight recorder, exports.

The contract under test, in the order the PR's acceptance gates state it:

* **Zero overhead when off** — with ``TelemetryConfig(trace=False)`` the
  golden reduction is exactly what it was before tracing existed, and
  the run dir holds no per-invocation timeline.
* **Rooted trees when on** — every invocation in the golden scenario
  yields one trace tree whose spine is an unbroken parent chain from the
  LB root to its terminal stage, serial and sharded alike; a pull run
  (no placement log) roots the chain at ``admit``.
* **Built on demand** — trace trees are views of the timeline rows (the
  retained contexts joined with the placement log): neither a traced
  replay nor its export builds a ``TraceEvent`` or ``Span``, the export
  writes one ``traces.jsonl`` row per invocation, and the old per-event
  and per-span files rebuilt from those rows equal the pinned digests
  in ``tests/data/trace_digests.json``.
* **Float-exact attribution** — the critical-path analyzer's per-phase
  sums equal ``Telemetry.breakdowns()`` (the ``decompose_contexts``
  pipeline) with exact float equality, at 1 and 4 shards.
* **Seam-transparent** — the sharded engine's merged trace stream
  reduces to the serial one (ids normalized, shard attribution dropped).
* **Flight recorder + manifest + Perfetto** — the coordinator's
  wall-clock log, the provenance manifest, and the Chrome trace-event
  export all round-trip through the run directory.
"""

import gc
import hashlib
import json
import sys
from pathlib import Path

import pytest

from tests.golden_scenario import GOLDEN_PATH, normalized, reduce_run, run_scenario
from tests.legacy_run_files import legacy_spans_jsonl, legacy_traces_jsonl
from tests.test_cluster_shard import sharded_golden
from repro.core.lifecycle import COMPLETE
from repro.metrics import Span
from repro.telemetry import PHASES, TelemetryConfig, inspect_report, load_run
from repro.tracing import (
    COMPONENT_STAGE,
    TraceEvent,
    build_traces,
    chrome_trace,
    critical_path,
    export_perfetto,
    load_trace_jsonl,
    render_critical_path,
    trace_report,
    verify_against_breakdowns,
)

TRACED = TelemetryConfig(interval=1.0, sample_energy=True, trace=True)
TRACE_DIGESTS = Path(__file__).parent / "data" / "trace_digests.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def traced():
    """One serial traced run of the golden scenario: (reduction, telemetry)."""
    return run_scenario(TRACED, return_telemetry=True)


@pytest.fixture(scope="module")
def sharded_traced():
    """One 2-shard traced run with the flight recorder on."""
    return sharded_golden(2, telemetry_config=TRACED, flight_recorder=True)


def _paths(telemetry):
    return [critical_path(t) for t in build_traces(telemetry.trace_events())]


# ------------------------------------------------------- zero perturbation
def test_tracing_on_preserves_golden_reduction(traced, golden):
    reduction, _ = traced
    assert normalized(reduction) == golden


def test_tracing_off_is_the_untraced_pipeline(golden):
    assert normalized(run_scenario()) == golden


# ------------------------------------------------------------ trace trees
def test_every_invocation_yields_a_rooted_tree(traced):
    _, telemetry = traced
    trees = build_traces(telemetry.trace_events())
    assert len(trees) == len(telemetry.records())
    assert all(t.rooted() for t in trees)
    # The spine roots at the LB pick and runs pick -> rpc -> admit -> ...
    for t in trees:
        chain = t.chain()
        assert chain[0].name == "lb_pick" and chain[0].parent is None
        assert chain[1].name == "lb_rpc" and chain[1].parent == "lb_pick"
        assert chain[2].parent == "lb_rpc"


def test_no_rpc_hop_roots_trees_at_the_pick():
    """With ``rpc_latency=0`` the front end records the pick alone: no
    ``lb_rpc`` span or event, and the stage chain hangs off ``lb_pick``."""
    from repro.core.config import WorkerConfig
    from repro.loadbalancer.cluster import Cluster
    from repro.sim.core import Environment
    from repro.telemetry import Telemetry
    from tests.golden_scenario import ARRIVALS, FUNCTIONS

    env = Environment()
    cluster = Cluster(env, num_workers=3, rpc_latency=0.0,
                      config=WorkerConfig(cores=2, memory_mb=4096, seed=13))
    telemetry = Telemetry(env, TRACED)
    cluster.attach_telemetry(telemetry)
    telemetry.start()
    cluster.start()
    for reg in FUNCTIONS:
        cluster.register_sync(reg)

    def submit(at, fqdn):
        yield env.timeout(at)
        yield from cluster.invoke(fqdn)

    for at, idx in ARRIVALS:
        env.process(submit(at, FUNCTIONS[idx].fqdn()), name=f"sub-{at}")
    env.run(until=120.0)
    telemetry.stop()

    assert not any(s.name == "lb_rpc" for s in telemetry.spans())
    trees = build_traces(telemetry.trace_events())
    assert sorted(t.trace_id for t in trees) == \
        list(range(1, len(ARRIVALS) + 1))
    for t in trees:
        chain = t.chain()
        assert chain[0].name == "lb_pick" and chain[0].parent is None
        assert chain[1].parent == "lb_pick"


def _pull_cluster_run(config):
    """The golden arrivals on a 3-worker ``pull_local`` cluster."""
    from repro.core.config import WorkerConfig
    from repro.loadbalancer.cluster import Cluster
    from repro.sim.core import Environment
    from repro.telemetry import Telemetry
    from tests.golden_scenario import ARRIVALS, FUNCTIONS

    env = Environment()
    cluster = Cluster(env, num_workers=3, lb_policy="pull_local",
                      config=WorkerConfig(cores=2, memory_mb=4096, seed=13))
    telemetry = Telemetry(env, config)
    cluster.attach_telemetry(telemetry)
    telemetry.start()
    cluster.start()
    for reg in FUNCTIONS:
        cluster.register_sync(reg)

    def submit(at, fqdn):
        yield env.timeout(at)
        yield from cluster.invoke(fqdn)

    for at, idx in ARRIVALS:
        env.process(submit(at, FUNCTIONS[idx].fqdn()), name=f"sub-{at}")
    env.run(until=120.0)
    telemetry.stop()
    return telemetry


def test_pull_traces_root_at_admit(tmp_path):
    """Pull dispatch keeps no placement log, so each stage chain roots
    itself: ``admit`` has no parent and takes seq 0."""
    telemetry = _pull_cluster_run(TRACED)
    trees = build_traces(telemetry.trace_events())
    assert len(trees) == len(telemetry.records()) == 42
    assert all(t.rooted() for t in trees)
    for t in trees:
        first = t.events[0]
        assert (first.name, first.seq, first.parent) == ("admit", 0, None)
        assert [e.seq for e in t.events] == list(range(len(t.events)))
    telemetry.export(tmp_path / "run")
    assert "42/42 rooted" in trace_report(tmp_path / "run")


def test_traced_export_matches_pinned_digests(tmp_path, traced):
    _, telemetry = traced
    run_dir = tmp_path / "run"
    telemetry.export(run_dir)
    digests = json.loads(TRACE_DIGESTS.read_text())["digests"]
    assert {
        "traces.jsonl": hashlib.sha256(legacy_traces_jsonl(run_dir)).hexdigest(),
        "spans.jsonl": hashlib.sha256(legacy_spans_jsonl(run_dir)).hexdigest(),
    } == digests


def _live_views() -> int:
    return sum(isinstance(o, (TraceEvent, Span)) for o in gc.get_objects())


def test_export_writes_one_row_per_invocation_and_builds_no_views(
        tmp_path, traced):
    """The export writes the timeline straight off the contexts: sampled
    at file writes throughout export(), no more TraceEvent or Span
    objects are alive than before it."""
    _, telemetry = traced
    gc.collect()
    before = _live_views()
    peak = [before]
    writes = [0]

    def probe(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") == "write":
            writes[0] += 1
            if writes[0] % 16 == 0:
                peak[0] = max(peak[0], _live_views())

    sys.setprofile(probe)
    try:
        paths = telemetry.export(tmp_path / "run")
    finally:
        sys.setprofile(None)
    assert writes[0] > 0 and peak[0] == before

    assert not (tmp_path / "run" / "spans.jsonl").exists()
    rows = [json.loads(line) for line in paths["traces"].read_text().splitlines()]
    ids = [row["id"] for row in rows]
    assert ids == sorted(set(ids))
    assert set(ids) == {r.invocation_id for r in telemetry.records()}


def test_traced_replay_holds_no_trace_events():
    """Tracing adds nothing to the replay: until export, no TraceEvent
    exists; the trees are derived afterwards from the same run."""
    def live_events():
        gc.collect()
        return sum(isinstance(o, TraceEvent) for o in gc.get_objects())

    # Other fixtures in this process may hold events; count the delta.
    before = live_events()
    _, telemetry = run_scenario(TRACED, return_telemetry=True)
    assert live_events() == before
    assert len(build_traces(telemetry.trace_events())) == 42


def test_completed_traces_terminate_in_complete(traced):
    _, telemetry = traced
    paths = _paths(telemetry)
    completed = [p for p in paths if p.breakdown is not None]
    assert completed and all(p.terminal == COMPLETE for p in completed)
    # The scenario's delta function always times out; those trees exist
    # too, just without an exec interval to decompose.
    assert any(p.terminal == "timeout" for p in paths)


def test_component_events_parent_on_their_stage(traced):
    _, telemetry = traced
    for e in telemetry.trace_events():
        if e.kind == "component":
            assert e.parent == COMPONENT_STAGE[e.name]


# -------------------------------------------------- critical-path analysis
@pytest.mark.parametrize("shards", [None, 1, 4])
def test_critical_path_matches_decomposition_exactly(shards, traced):
    """The acceptance gate: trace-derived phase sums == decompose_contexts
    to float precision, serial and at 1 and 4 shards."""
    if shards is None:
        _, telemetry = traced
    else:
        telemetry = sharded_golden(shards, telemetry_config=TRACED).telemetry
    paths = _paths(telemetry)
    breakdowns = telemetry.breakdowns()
    matched, compared = verify_against_breakdowns(paths, breakdowns)
    assert compared == len(breakdowns) > 0
    assert matched == compared


def test_critical_path_covers_e2e_and_finds_queue_wait(traced):
    _, telemetry = traced
    paths = _paths(telemetry)
    # Segments tile the path: first starts at path.start, last ends at end.
    for p in paths:
        assert p.segments[0].start == p.start
        assert max(s.end for s in p.segments) == p.end
        assert p.seam > 0.0          # the golden cluster models the RPC hop
        assert p.worker is not None
    # The burst arrivals must show synthesized queue-wait gaps somewhere.
    assert any(
        seg.kind == "wait" for p in paths for seg in p.segments
    )


def test_render_critical_path_lines(traced):
    _, telemetry = traced
    p = _paths(telemetry)[0]
    lines = render_critical_path(p, label="alpha--0-1 (success)")
    assert lines[0].startswith(f"trace {p.trace_id}")
    assert "e2e" in lines[0] and "(UNROOTED)" not in lines[0]
    assert len(lines) == 1 + len(p.segments)


# --------------------------------------------------------- seam equality
def test_sharded_traces_reduce_to_serial(traced, sharded_traced):
    """Bit-identical causal traces across the shard seam: same events,
    same times, same parents — ids normalized, shard attribution aside."""
    _, serial_tel = traced
    sharded_tel = sharded_traced.telemetry

    def reduce_events(events, records):
        base = min(r.invocation_id for r in records if r.invocation_id)
        return [
            (e.trace_id - base, e.seq, e.name, e.kind, e.start, e.end,
             e.parent, e.worker)
            for e in events
        ]

    serial = reduce_events(serial_tel.trace_events(), serial_tel.records())
    sharded = reduce_events(sharded_tel.trace_events(), sharded_tel.records())
    assert serial == sharded


def test_sharded_events_carry_owning_shard(sharded_traced):
    events = sharded_traced.telemetry.trace_events()
    worker_shards = {e.shard for e in events if e.kind != "lb"}
    assert worker_shards == {0, 1}
    # LB events live in the coordinator, not in any shard.
    assert all(e.shard is None for e in events if e.kind == "lb")
    # Shard attribution agrees with the partition (worker 0 | workers 1,2).
    for e in events:
        if e.worker is not None and e.kind != "lb":
            idx = int(e.worker.rsplit("-", 1)[1])
            assert e.shard == (0 if idx < 1 else 1)


def test_span_shard_tagging_follows_the_trace_switch(sharded_traced, golden):
    # Traced sharded runs tag worker spans with the owning shard...
    spans = sharded_traced.telemetry.spans()
    worker_spans = [s for s in spans if not s.name.startswith("lb_")]
    assert worker_spans and {s.shard for s in worker_spans} == {0, 1}
    assert all(s.shard is None for s in spans if s.name.startswith("lb_"))
    # ...untraced ones keep every span untagged (byte-identity with serial).
    untraced = sharded_golden(2, telemetry_config=TelemetryConfig(
        interval=1.0, sample_energy=True)).telemetry
    assert all(s.shard is None for s in untraced.spans())


# --------------------------------------------------------- flight recorder
def test_flight_recorder_totals(sharded_traced):
    log = sharded_traced.flight_log
    assert log is not None
    totals = log["totals"]
    assert totals["epochs"] == len(log["epochs"]) > 0
    assert totals["arrivals"] == 42
    assert totals["stall_s"] >= 0.0 and totals["overlap_s"] >= 0.0
    assert totals["payload_bytes"] > 0
    assert 0.0 <= totals["overlap_efficiency"] <= 1.0
    assert totals["wall_s"] > 0.0
    for row in log["epochs"]:
        assert set(row) == {"epoch", "sync_k", "arrivals", "stall_s",
                            "pick_s", "send_s", "overlap_s", "payload_bytes"}


def test_flight_recorder_off_by_default():
    outcome = sharded_golden(2)
    assert outcome.flight_log is None


# ------------------------------------------------------------ run-dir I/O
def test_traced_export_round_trips(tmp_path, traced):
    _, telemetry = traced
    run_dir = tmp_path / "run"
    paths = telemetry.export(run_dir)
    assert paths["traces"].name == "traces.jsonl"
    events = load_trace_jsonl(paths["traces"])
    assert events == telemetry.trace_events()
    data = load_run(run_dir)
    assert data["traces"] == events
    assert data["manifest"]["config"]["trace"] is True


def test_untraced_export_layout_is_unchanged(tmp_path):
    """Tracing off writes no per-invocation timeline: neither
    ``traces.jsonl`` nor a span file."""
    _, telemetry = run_scenario(return_telemetry=True)
    run_dir = tmp_path / "run"
    paths = telemetry.export(run_dir)
    assert "traces" not in paths and "flight" not in paths
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "manifest.json", "metrics.prom", "records.jsonl",
        "summary.json", "timeseries.jsonl",
    ]


def test_sharded_export_includes_flight_and_manifest(tmp_path, sharded_traced):
    run_dir = tmp_path / "run"
    sharded_traced.telemetry.export(run_dir)
    data = load_run(run_dir)
    assert data["flight"]["totals"]["epochs"] > 0
    assert data["flight"]["seam_stats"] == sharded_traced.seam_stats
    assert data["manifest"]["shards"] == 2
    assert len(data["traces"]) > 0


def test_manifest_hash_is_engine_invariant(tmp_path, traced, sharded_traced):
    serial_dir, sharded_dir = tmp_path / "serial", tmp_path / "sharded"
    traced[1].export(serial_dir)
    sharded_traced.telemetry.export(sharded_dir)
    a = json.loads((serial_dir / "manifest.json").read_text())
    b = json.loads((sharded_dir / "manifest.json").read_text())
    assert a["config_hash"] == b["config_hash"]
    assert a["workers"] == b["workers"]
    assert (a["shards"], b["shards"]) == (1, 2)
    assert a["version"] and a["config"]["trace"] is True


def test_trace_jsonl_omits_none_fields(tmp_path, traced, sharded_traced):
    """A serial row has no ``shard`` key; a traced sharded row has one,
    and its events carry it (LB events aside)."""
    _, telemetry = traced
    serial = telemetry.export(tmp_path / "serial")["traces"]
    rows = [json.loads(line) for line in serial.read_text().splitlines()]
    assert rows and all(
        set(row) == {"id", "worker", "stage_times", "intervals", "closed",
                     "lb"}
        for row in rows
    )
    sharded = sharded_traced.telemetry.export(tmp_path / "sharded")["traces"]
    rows = [json.loads(line) for line in sharded.read_text().splitlines()]
    assert {row["shard"] for row in rows} == {0, 1}
    events = load_trace_jsonl(sharded)
    assert {e.shard for e in events if e.kind == "lb"} == {None}
    assert {e.shard for e in events if e.kind != "lb"} == {0, 1}


# ---------------------------------------------------------------- perfetto
def test_chrome_trace_schema(traced):
    _, telemetry = traced
    events = telemetry.trace_events()
    doc = chrome_trace(events)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    rows = doc["traceEvents"]
    meta = [r for r in rows if r["ph"] == "M"]
    slices = [r for r in rows if r["ph"] == "X"]
    assert len(meta) == 1 + 3          # LB + three workers
    assert {m["args"]["name"] for m in meta} == {
        "load-balancer", "worker-0-0", "worker-0-1", "worker-0-2",
    }
    assert len(slices) == len(events)
    for r in slices:
        assert set(r) == {"ph", "name", "cat", "pid", "tid", "ts", "dur",
                          "args"}
        assert r["dur"] >= 0.0 and r["cat"] in ("lb", "stage", "component")
    # LB slices sit on pid 0; worker slices on their worker's pid.
    assert {r["pid"] for r in slices if r["cat"] == "lb"} == {0}
    assert {r["pid"] for r in slices if r["cat"] != "lb"} == {1, 2, 3}


def test_export_perfetto_round_trip(tmp_path, traced):
    _, telemetry = traced
    run_dir = tmp_path / "run"
    telemetry.export(run_dir)
    out = tmp_path / "trace.json"
    slices = export_perfetto(run_dir, out)
    assert slices == len(telemetry.trace_events())
    doc = json.loads(out.read_text())     # parses as strict JSON
    assert len([r for r in doc["traceEvents"] if r["ph"] == "X"]) == slices


def test_export_perfetto_requires_traces(tmp_path):
    with pytest.raises(FileNotFoundError, match="--trace"):
        export_perfetto(tmp_path, tmp_path / "out.json")


# ------------------------------------------------------------- the report
def test_trace_report_renders(tmp_path, traced):
    _, telemetry = traced
    run_dir = tmp_path / "run"
    telemetry.export(run_dir)
    text = trace_report(run_dir, top=3, percentile=50.0)
    assert "42 traces (38 completed, 42/42 rooted)" in text
    assert "critical-path attribution" in text
    for phase in (*PHASES, "lb_seam", "(exec)"):
        assert phase in text
    assert "top 3 slowest invocations:" in text
    assert "p50 drill-down" in text
    # Labels join through the records: function names appear in the paths.
    assert "beta.1 (cold)" in text and "(timeout)" in text


def test_trace_report_without_traces_is_graceful(tmp_path):
    text = trace_report(tmp_path)
    assert "not traced" in text and "--trace" in text


def test_inspect_report_surfaces_tracing_artifacts(tmp_path, sharded_traced):
    run_dir = tmp_path / "run"
    sharded_traced.telemetry.export(run_dir)
    text = inspect_report(run_dir)
    assert "manifest: version=" in text and "shards=2" in text
    assert "sharded seam: epochs=" in text
    assert "flight recorder: stall=" in text
    assert "causal traces:" in text and "repro trace" in text


# ------------------------------------------------------------------- CLI
def test_cli_trace_command(tmp_path, traced, capsys):
    from repro.cli import main

    _, telemetry = traced
    run_dir = tmp_path / "run"
    telemetry.export(run_dir)
    out_json = tmp_path / "perfetto.json"
    assert main(["trace", str(run_dir), "--top", "2",
                 "--perfetto", str(out_json)]) == 0
    captured = capsys.readouterr().out
    assert "top 2 slowest invocations:" in captured
    assert "trace slices" in captured
    json.loads(out_json.read_text())


def test_cli_trace_flag_requires_telemetry(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["cluster-study", "--trace"])
    assert "--trace requires --telemetry" in capsys.readouterr().err
