"""One number everywhere: the artifacts of one run dir agree on counts.

``summary.json``, ``records.jsonl``, ``health.json`` and ``metrics.prom``
are all derived from the same merged records at export, so the invocation
and completion counts each reports must be equal — on a serial pull run
and on a sharded push run alike.
"""

import json

import pytest

from tests.test_cluster_shard import FUNCTIONS, GOLDEN_CONFIG, golden_plan
from repro.cluster_shard import ShardingUnavailable, run_sharded_replay
from repro.core.config import WorkerConfig
from repro.loadbalancer.cluster import Cluster
from repro.sim.core import Environment
from repro.telemetry import Telemetry, TelemetryConfig

HEALTH_TC = TelemetryConfig(interval=1.0, health=True)


def _pull_run(run_dir):
    """A serial pull_local cluster; no function here can time out."""
    env = Environment()
    cluster = Cluster(env, num_workers=3, lb_policy="pull_local",
                      config=WorkerConfig(cores=2, memory_mb=4096, seed=13,
                                          backend="null"))
    telemetry = Telemetry(env, HEALTH_TC)
    cluster.attach_telemetry(telemetry)
    telemetry.start()
    cluster.start()
    functions = [f for f in FUNCTIONS if f.timeout is None]
    for reg in functions:
        cluster.register_sync(reg)

    def submit(at, fqdn):
        yield env.timeout(at)
        yield from cluster.invoke(fqdn)

    for i in range(60):
        fqdn = functions[i % len(functions)].fqdn()
        env.process(submit(0.05 * i + (i % 7) * 0.3, fqdn), name=f"s{i}")
    env.run(until=120.0)
    cluster.stop()
    telemetry.stop()
    telemetry.export(run_dir)
    return run_dir


def _sharded_chbl_run(run_dir):
    try:
        outcome = run_sharded_replay(
            golden_plan(), num_workers=3, shards=2, registrations=FUNCTIONS,
            config=GOLDEN_CONFIG, status_interval=2.0, horizon=120.0,
            lb_policy="ch_bl", telemetry_config=HEALTH_TC,
        )
    except ShardingUnavailable as exc:  # pragma: no cover - sandbox dependent
        pytest.skip(f"shard processes unavailable here: {exc}")
    outcome.telemetry.export(run_dir)
    return run_dir


def _prom_samples(text):
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = value
    return samples


def _check_counts(run_dir):
    """Assert the cross-artifact equalities; returns (summary, completed)."""
    summary = json.loads((run_dir / "summary.json").read_text())
    health = json.loads((run_dir / "health.json").read_text())
    with open(run_dir / "records.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    completed = sum(1 for r in records if r["outcome"] not in ("dropped", "timeout"))
    assert records and completed
    assert summary["invocations"] == len(records) == health["totals"]["total"]
    e2e_count = summary["histograms"]["e2e_seconds"]["count"]
    assert e2e_count == health["totals"]["completed"] == completed
    prom = _prom_samples((run_dir / "metrics.prom").read_text())
    assert int(prom["repro_e2e_seconds_count"]) == completed
    assert int(prom['repro_e2e_seconds_bucket{le="+Inf"}']) == completed
    return summary, records, completed


def test_serial_pull_run_dir_counts_agree(tmp_path):
    summary, records, completed = _check_counts(_pull_run(tmp_path / "pull"))
    assert not any(r["outcome"] == "timeout" for r in records)
    assert summary["histograms"]["claim_wait_seconds"]["count"] == completed


def test_sharded_chbl_run_dir_counts_agree(tmp_path):
    summary, records, completed = _check_counts(_sharded_chbl_run(tmp_path / "chbl"))
    # The golden workload times out: completions are not all invocations.
    assert completed < len(records)
    assert "claim_wait_seconds" not in summary["histograms"]
