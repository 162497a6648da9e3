"""The golden A/B scenario: a small, fully deterministic cluster study.

One fixed workload — three workers behind CH-BL, four functions with
overlapping bursts (cold starts, warm reuse, queueing, and a function
whose execution limit always fires) — replayed with telemetry attached.
:func:`run_scenario` reduces the run to a JSON-stable structure:

* ``records``      — every invocation record, sorted;
* ``spans``        — the merged retained span stream, sorted;
* ``breakdowns``   — per-invocation phase decomposition;
* ``phase_totals`` — the aggregate per-phase sums (the Table-2 numbers).

``tests/data/golden_cluster_study.json`` holds the output captured on the
pre-refactor invocation path (commit 8f4f807); ``tests/test_golden_ab.py``
replays the scenario on the current code and diffs bit-for-bit, pinning
the lifecycle refactor to be behaviour-preserving.

The fixture was captured when serial ids came from a process-global
counter, so the scenario normalizes ids to be relative to the smallest id
it observes (push clusters now number invocations by placement ordinal);
everything else is deterministic from the fixed seed and arrival list.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.config import WorkerConfig
from repro.core.function import FunctionRegistration
from repro.loadbalancer.cluster import Cluster
from repro.sim.core import Environment
from repro.telemetry import PHASES, Telemetry, TelemetryConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_cluster_study.json"

FUNCTIONS = [
    FunctionRegistration(name="alpha", memory_mb=256, warm_time=0.08, cold_time=0.6),
    FunctionRegistration(name="beta", memory_mb=512, warm_time=0.3, cold_time=1.1),
    FunctionRegistration(name="gamma", memory_mb=128, warm_time=0.02, cold_time=0.25),
    # Always exceeds its execution limit: pins the timeout-kill path.
    FunctionRegistration(
        name="delta", memory_mb=128, warm_time=2.0, cold_time=2.5, timeout=0.5
    ),
]

# (arrival time, function index): bursts that force queueing and cold
# starts, lulls that exercise warm reuse, one timeout per burst.
ARRIVALS = [
    (0.10, 0), (0.12, 1), (0.15, 0), (0.20, 2), (0.22, 3), (0.25, 0),
    (0.30, 1), (0.35, 2), (0.40, 0), (0.45, 1), (0.90, 2), (0.95, 0),
    (1.00, 1), (1.05, 2), (1.10, 0), (1.20, 3), (2.50, 0), (2.55, 1),
    (2.60, 2), (2.65, 0), (2.70, 1), (2.75, 2), (2.80, 0), (4.00, 3),
    (5.00, 0), (5.05, 1), (5.10, 2), (5.15, 0), (5.20, 1), (5.25, 2),
    (8.00, 0), (8.02, 0), (8.04, 0), (8.06, 0), (8.08, 0), (8.10, 0),
    (12.0, 1), (12.1, 2), (12.2, 3), (12.3, 0), (20.0, 0), (20.1, 1),
]


def reduce_run(records, spans, breakdowns) -> dict:
    """Reduce one run's telemetry views to the JSON-stable structure.

    Invocation ids are normalized relative to the smallest id observed in
    the records, so runs that number invocations from a process-global
    counter (single-process) and runs that number them by arrival ordinal
    (the cluster-shard engine) reduce identically.
    """
    base_id = min(r.invocation_id for r in records if r.invocation_id)

    def rel(invocation_id):
        return invocation_id - base_id if invocation_id else invocation_id

    def rel_tag(tag):
        return str(int(tag) - base_id) if tag is not None and tag.isdigit() else tag

    record_rows = sorted(
        [r.function, r.arrival, r.outcome.value, r.exec_time, r.e2e_time,
         r.queue_time, r.overhead, r.cold, r.worker, rel(r.invocation_id)]
        for r in records
    )
    span_rows = sorted(
        [s.name, s.start, s.end, rel_tag(s.tag)] for s in spans
    )
    breakdown_rows = sorted(
        [rel_tag(b.tag), b.exec_time, b.cold, b.start, b.end,
         [b.phases[p] for p in PHASES]]
        for b in breakdowns
    )
    phase_totals = {
        p: sum(b.phases[p] for b in breakdowns) for p in PHASES
    }
    return {
        "invocations": len(records),
        "records": record_rows,
        "spans": span_rows,
        "breakdowns": breakdown_rows,
        "phase_totals": phase_totals,
    }


def run_scenario(telemetry_config: TelemetryConfig = None,
                 return_telemetry: bool = False,
                 live_path=None, env=None):
    """Replay the fixed workload; return the JSON-stable reduction.

    ``telemetry_config`` overrides the default pipeline config (tests use
    it to opt the same fixed workload into causal tracing);
    ``return_telemetry`` additionally returns the live :class:`Telemetry`
    object as ``(reduction, telemetry)`` so callers can read views the
    reduction drops (trace events, contexts); ``live_path`` turns on the
    health heartbeat file (requires a health-enabled config); ``env``
    replays on a given environment (default: a fresh :class:`Environment`).
    """
    env = Environment() if env is None else env
    cluster = Cluster(
        env,
        num_workers=3,
        config=WorkerConfig(cores=2, memory_mb=4096, seed=13, backend="containerd"),
        status_interval=2.0,
    )
    telemetry = Telemetry(
        env,
        telemetry_config or TelemetryConfig(interval=1.0, sample_energy=True),
    )
    cluster.attach_telemetry(telemetry)
    telemetry.start()
    if live_path is not None:
        telemetry.enable_live(live_path)
    cluster.start()
    for reg in FUNCTIONS:
        cluster.register_sync(reg)

    def submit(at, fqdn):
        yield env.timeout(at)
        yield from cluster.invoke(fqdn)

    for at, idx in ARRIVALS:
        env.process(submit(at, FUNCTIONS[idx].fqdn()), name=f"sub-{at}")
    env.run(until=120.0)
    cluster.stop()
    telemetry.stop()

    reduction = reduce_run(
        telemetry.records(), telemetry.spans(), telemetry.breakdowns()
    )
    if return_telemetry:
        return reduction, telemetry
    return reduction


def normalized(data: dict) -> dict:
    """Round-trip through JSON so floats compare bit-for-bit with disk."""
    return json.loads(json.dumps(data))


if __name__ == "__main__":  # pragma: no cover - fixture (re)generation
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(run_scenario(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
