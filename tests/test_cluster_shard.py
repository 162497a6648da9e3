"""The sharded cluster engine must be invisible in the results.

Three layers of evidence:

* **Golden equivalence** — the fixed golden scenario replayed through
  ``run_sharded_replay`` at 1, 2, and 4 shards reduces bit-for-bit to
  ``tests/data/golden_cluster_study.json``, the fixture captured on the
  single-process invocation path.  Records, spans, per-invocation phase
  breakdowns, and the aggregate phase totals all match exactly.
* **Study equivalence** — ``run_cluster_study(shards=2)`` returns the
  same :class:`ClusterStudyResult` as the serial path on a real sampled
  trace (live-load balancing, so every arrival is a sync point).
* **Lookahead contract** — the epoch barrier never delivers a cross-seam
  dispatch earlier than ``pick_time + rpc_latency``; with the golden
  fixture the delivery time is *exactly* that, for every arrival.
* **One front end** — both engines drive the same push placement core,
  so the serial run's LB spans, LB load reads and trace events (ids
  included) equal the sharded run's, and a repeated serial study exports
  the same bytes.

Shard processes genuinely fork/spawn here; in sandboxes where they
cannot start the engine raises :class:`ShardingUnavailable` and the
process-backed tests skip (the pure-logic protocol tests still run).
"""

import dataclasses
import json

import numpy as np
import pytest

from tests.golden_scenario import (
    ARRIVALS,
    FUNCTIONS,
    GOLDEN_PATH,
    normalized,
    reduce_run,
)
from repro.cluster_shard import (
    ShardingUnavailable,
    partition_workers,
    resolve_shards,
    run_sharded_replay,
    sync_indices,
)
from repro.core.config import WorkerConfig
from repro.experiments import SMALL
from repro.experiments.cluster_study import (
    reduce_summaries,
    run_cluster_study,
    summary_rows,
    trace_registrations,
)
from repro.loadbalancer.cluster import Cluster
from repro.loadgen.openloop import InvocationPlan, plan_from_trace, replay_plan
from repro.sim.core import Environment
from repro.telemetry import Telemetry, TelemetryConfig
from repro.trace.azure import AzureTraceConfig, generate_dataset
from repro.trace.azure_io import load_azure_csvs, write_azure_csvs
from repro.trace.replay import expand_dataset

TINY = dataclasses.replace(SMALL, dataset_functions=400, dataset_minutes=120,
                           representative_n=50)

GOLDEN_CONFIG = WorkerConfig(cores=2, memory_mb=4096, seed=13,
                             backend="containerd")


def golden_plan() -> InvocationPlan:
    ts = np.array([at for at, _ in ARRIVALS])
    fqdns = [FUNCTIONS[idx].fqdn() for _, idx in ARRIVALS]
    return InvocationPlan(ts, fqdns, float(ts[-1]))


def sharded_golden(shards: int, **kwargs):
    try:
        return run_sharded_replay(
            golden_plan(),
            num_workers=3,
            shards=shards,
            registrations=FUNCTIONS,
            config=GOLDEN_CONFIG,
            status_interval=2.0,
            horizon=120.0,
            **kwargs,
        )
    except ShardingUnavailable as exc:  # pragma: no cover - sandbox dependent
        pytest.skip(f"shard processes unavailable here: {exc}")


# ---------------------------------------------------------------- protocol
def test_partition_workers_contiguous_and_balanced():
    assert partition_workers(6, 2) == [range(0, 3), range(3, 6)]
    assert partition_workers(5, 2) == [range(0, 2), range(2, 5)]
    parts = partition_workers(32, 5)
    assert [len(p) for p in parts] == [6, 6, 7, 6, 7]
    assert [i for p in parts for i in p] == list(range(32))


def test_partition_workers_clamps_shards():
    # More shards than workers degrades to one worker per shard; zero or
    # negative shard counts degrade to a single partition.
    assert partition_workers(2, 8) == [range(0, 1), range(1, 2)]
    assert partition_workers(3, 0) == [range(0, 3)]


def test_resolve_shards_env(monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    assert resolve_shards(None) == 1
    assert resolve_shards(3) == 3
    monkeypatch.setenv("REPRO_SHARDS", "4")
    assert resolve_shards(None) == 4
    assert resolve_shards(2) == 2  # explicit argument wins
    monkeypatch.setenv("REPRO_SHARDS", "banana")
    with pytest.raises(ValueError):
        resolve_shards(None)


def test_sync_indices_round_robin_never_syncs():
    ts = np.array([0.1, 0.2, 0.3])
    assert sync_indices(ts, "round_robin", None) == frozenset()


def test_sync_indices_live_syncs_every_arrival():
    ts = np.array([0.1, 0.2, 0.3])
    assert sync_indices(ts, "ch_bl", None) == frozenset({0, 1, 2})


def test_sync_indices_snapshot_refresh_walk():
    # Mirrors StatusBoard's refresh rule: first read snapshots, then a new
    # snapshot only once the interval has elapsed since the *epoch-floored*
    # snapshot time.
    ts = np.array([at for at, _ in ARRIVALS])
    assert sync_indices(ts, "ch_bl", 2.0) == frozenset({0, 16, 23, 30, 36, 40})


def test_rpc_latency_must_be_positive():
    with pytest.raises(ValueError, match="lookahead"):
        run_sharded_replay(
            golden_plan(), num_workers=3, shards=2,
            registrations=FUNCTIONS, config=GOLDEN_CONFIG, rpc_latency=0.0,
        )


# ---------------------------------------------------------------- golden A/B
@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_golden_is_bit_identical(shards, golden):
    """The tentpole contract: N shard processes, same bits out."""
    outcome = sharded_golden(
        shards, telemetry_config=TelemetryConfig(interval=1.0, sample_energy=True)
    )
    tel = outcome.telemetry
    reduced = normalized(
        reduce_run(tel.records(), tel.spans(), tel.breakdowns())
    )
    assert reduced["invocations"] == golden["invocations"]
    assert reduced["phase_totals"] == golden["phase_totals"]
    assert reduced["records"] == golden["records"]
    assert reduced["spans"] == golden["spans"]
    assert reduced["breakdowns"] == golden["breakdowns"]


def test_sharded_golden_summaries_cover_all_arrivals():
    outcome = sharded_golden(2)
    assert [s[0] for s in outcome.summaries] == list(range(len(ARRIVALS)))
    assert outcome.placements == len(ARRIVALS)
    assert sum(outcome.per_worker_records.values()) == sum(
        1 for s in outcome.summaries if not s[1] and s[2]
    )


# ---------------------------------------------------------------- seam budget
def test_coordinator_sends_at_most_one_message_per_shard_per_epoch():
    """The epoch-batching contract, asserted at the protocol level: the
    coordinator's send count never exceeds one message per epoch plus the
    pipeline-priming sync request."""
    outcome = sharded_golden(2)
    stats = outcome.seam_stats
    assert stats is not None
    assert stats["sync_points"] == len(
        sync_indices(golden_plan().timestamps, "ch_bl", 2.0)
    )
    assert stats["epochs"] >= stats["sync_points"]
    assert 0 < stats["messages_per_shard"] <= stats["epochs"] + 1


def test_chunked_epochs_stay_bit_identical():
    """Splitting epochs into tiny chunks must not change a single bit —
    only the message count."""
    whole = sharded_golden(2)
    chunked = sharded_golden(2, chunk_size=4)
    assert chunked.summaries == whole.summaries
    assert chunked.per_worker_records == whole.per_worker_records
    assert chunked.seam_stats["messages_per_shard"] >= (
        whole.seam_stats["messages_per_shard"]
    )


# ---------------------------------------------------------------- seam log
def test_empty_plan_with_collect_seam():
    """Satellite regression: seam-log assembly on a plan with no arrivals
    must return an empty log, not trip over unbound locals."""
    plan = InvocationPlan(np.empty(0), [], 1.0)
    try:
        outcome = run_sharded_replay(
            plan, num_workers=3, shards=2, registrations=FUNCTIONS,
            config=GOLDEN_CONFIG, status_interval=2.0, horizon=5.0,
            collect_seam=True,
        )
    except ShardingUnavailable as exc:  # pragma: no cover - sandbox dependent
        pytest.skip(f"shard processes unavailable here: {exc}")
    assert outcome.summaries == []
    assert outcome.seam_log == []
    assert outcome.placements == 0
    assert outcome.seam_stats["epochs"] == 0


def test_assemble_seam_log_merges_and_orders():
    from repro.cluster_shard.coordinator import _assemble_seam_log

    ts = np.array([1.0, 2.0, 3.0])
    parts = [[(2, 3.5), (0, 1.5)], [], None, [(1, 2.5)]]
    assert _assemble_seam_log(ts, parts) == [
        (0, 1.0, 1.5), (1, 2.0, 2.5), (2, 3.0, 3.5),
    ]
    assert _assemble_seam_log(ts, []) == []
    assert _assemble_seam_log(np.empty(0), [[], []]) == []


# ---------------------------------------------------------------- lookahead
def test_seam_never_beats_the_lookahead():
    """Conservative-epoch soundness: no cross-seam message is delivered
    to a worker earlier than its pick time plus the seam latency."""
    latency = 0.0005
    outcome = sharded_golden(2, rpc_latency=latency, collect_seam=True)
    assert outcome.seam_log, "collect_seam produced no entries"
    assert len(outcome.seam_log) == len(ARRIVALS)
    for k, pick_t, deliver_t in outcome.seam_log:
        assert deliver_t >= pick_t + latency - 1e-12, (
            f"arrival {k} delivered at {deliver_t}, "
            f"before pick {pick_t} + lookahead {latency}"
        )
        # With a frozen-clock seam the delivery is exactly the lookahead.
        assert deliver_t == pytest.approx(pick_t + latency, abs=1e-12)


# ---------------------------------------------------------------- study path
def test_cluster_study_sharded_matches_serial():
    serial = run_cluster_study(TINY, duration_cap=400.0, num_workers=3,
                               cores_per_worker=4, shards=1)
    try:
        sharded = run_cluster_study(TINY, duration_cap=400.0, num_workers=3,
                                    cores_per_worker=4, shards=2)
    except ShardingUnavailable as exc:  # pragma: no cover - sandbox dependent
        pytest.skip(f"shard processes unavailable here: {exc}")
    assert sharded.as_dict() == serial.as_dict()
    assert sharded.per_worker_invocations == serial.per_worker_invocations


AZURE_CSV_CONFIG = WorkerConfig(cores=2, memory_mb=8192.0, backend="null",
                                keepalive_policy="GD", seed=99)


def _azure_csv_trace(tmp_path):
    """A small synthetic dataset written as an Azure-schema CSV directory
    and read back through the public loader."""
    data_dir = write_azure_csvs(
        generate_dataset(AzureTraceConfig(num_functions=25,
                                          duration_minutes=6, seed=99)),
        tmp_path / "azure",
    )
    return expand_dataset(load_azure_csvs(data_dir), name="azure-csv")


def _serial_csv_summary(trace):
    env = Environment()
    cluster = Cluster(env, num_workers=3, config=AZURE_CSV_CONFIG,
                      status_interval=2.0)
    cluster.start()
    for reg in trace_registrations(trace):
        cluster.register_sync(reg)
    summary = reduce_summaries(
        summary_rows(replay_plan(env, cluster, plan_from_trace(trace))))
    cluster.stop()
    return summary


def test_azure_csv_directory_replays(tmp_path):
    """An Azure-schema CSV directory loads and replays on the serial engine,
    and every planned arrival is accounted for."""
    trace = _azure_csv_trace(tmp_path)
    summary = _serial_csv_summary(trace)
    assert summary["invocations"] > 0
    assert summary["invocations"] == len(plan_from_trace(trace))


def test_azure_csv_replay_sharded_matches_serial(tmp_path):
    """An Azure-schema CSV directory replays through the public API to the
    same reduced outcome on the serial engine and on 2 shards."""
    trace = _azure_csv_trace(tmp_path)
    serial = _serial_csv_summary(trace)
    try:
        outcome = run_sharded_replay(
            plan_from_trace(trace), num_workers=3, shards=2,
            registrations=trace_registrations(trace),
            config=AZURE_CSV_CONFIG, status_interval=2.0,
        )
    except ShardingUnavailable as exc:  # pragma: no cover - sandbox dependent
        pytest.skip(f"shard processes unavailable here: {exc}")
    assert serial["invocations"] > 0
    assert reduce_summaries(outcome.summaries) == serial


def test_cluster_study_shards_fall_back_serially(monkeypatch):
    """When shard processes cannot start the study still answers."""
    import repro.experiments.cluster_study as mod

    def boom(*args, **kwargs):
        raise ShardingUnavailable("test: no processes here")

    monkeypatch.setattr(mod, "run_sharded_replay", boom)
    with pytest.warns(RuntimeWarning, match="sharding unavailable"):
        result = run_cluster_study(TINY, duration_cap=300.0, num_workers=2,
                                   cores_per_worker=4, shards=2)
    assert result.invocations > 0


# ---------------------------------------------------------------- front end
def _lb_spans(spans):
    return [(s.name, s.start, s.end, s.tag, s.shard)
            for s in spans if s.name in ("lb_pick", "lb_rpc")]


def _unsharded(events):
    return [dataclasses.replace(e, shard=None) for e in events]


def test_serial_and_sharded_front_ends_emit_the_same_streams():
    """The same plan, serial in-process and on 2 shards: equal LB spans,
    LB load reads and trace events, floats and invocation ids exact."""
    config = TelemetryConfig(interval=1.0, trace=True)
    sharded = sharded_golden(2, telemetry_config=config).telemetry

    plan = golden_plan()
    env = Environment()
    cluster = Cluster(env, num_workers=3, config=GOLDEN_CONFIG,
                      status_interval=2.0)
    serial = Telemetry(env, config)
    cluster.attach_telemetry(serial)
    serial.start()
    cluster.start()
    for reg in FUNCTIONS:
        cluster.register_sync(reg)
    replay_plan(env, cluster, plan, grace=120.0 - plan.duration)
    cluster.stop()
    serial.stop()

    lb = _lb_spans(serial.spans())
    assert len(lb) == 2 * len(ARRIVALS)
    assert lb == _lb_spans(sharded.spans())
    assert sorted(r.invocation_id for r in serial.records()) == \
        list(range(1, len(ARRIVALS) + 1))
    loads = list(serial.sampler.lb_loads.rows())
    assert loads and loads == list(sharded.lb_loads.rows())
    events = serial.trace_events()
    assert events and events == _unsharded(sharded.trace_events())


def test_repeated_serial_study_exports_identical_bytes(tmp_path):
    """Serial invocation ids are placement ordinals, not draws from a
    process-global counter: a second run in the same process exports the
    same records and timeline, byte for byte."""
    runs = []
    for name in ("first", "second"):
        run_dir = tmp_path / name
        run_cluster_study(TINY, duration_cap=300.0, num_workers=3,
                          cores_per_worker=4, shards=1,
                          telemetry_dir=str(run_dir), trace_invocations=True)
        runs.append(run_dir)
    for name in ("records.jsonl", "traces.jsonl"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
