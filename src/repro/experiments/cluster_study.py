"""Full-stack cluster study: an Azure-like day on a CH-BL cluster.

Not a single paper figure, but the composition the paper's platform
exists for: a sampled Azure-like trace, re-profiled onto FunctionBench
timings, load-fitted with Little's law, replayed against a cluster of
Ilúvatar workers behind consistent hashing with bounded loads — reporting
the end-to-end health metrics a provider watches (cold ratio, drops,
latency percentiles, locality, per-worker balance).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from ..cache import CacheLike
from ..cluster_shard import ShardingUnavailable, resolve_shards, run_sharded_replay
from ..cluster_shard.protocol import summary_row
from ..core.config import WorkerConfig
from ..core.function import FunctionRegistration
from ..loadbalancer.cluster import Cluster
from ..loadgen.openloop import plan_from_trace, replay_plan
from ..metrics.stats import percentile
from ..parallel.pool import run_parallel
from ..sim.core import Environment
from ..trace.model import Trace
from ..trace.scaling import little_load, scale_to_load
from ..workloads.mapping import map_trace_to_catalog
from .defaults import MEDIUM, Scale
from .keepalive_sweep import make_traces

__all__ = [
    "ClusterStudyResult",
    "reduce_summaries",
    "run_cluster_study",
    "run_cluster_lb_sweep",
    "summary_rows",
    "trace_registrations",
]


@dataclass(frozen=True)
class ClusterStudyResult:
    """Cluster-wide outcome of the study."""

    invocations: int
    completed: int
    dropped: int
    cold: int
    e2e_p50_ms: float
    e2e_p99_ms: float
    overhead_p50_ms: float
    forwards: int
    placements: int
    per_worker_invocations: dict
    total_load: float

    @property
    def cold_ratio(self) -> float:
        return self.cold / self.completed if self.completed else float("nan")

    @property
    def drop_ratio(self) -> float:
        return self.dropped / self.invocations if self.invocations else float("nan")

    def as_dict(self) -> dict:
        return {
            "invocations": self.invocations,
            "completed": self.completed,
            "dropped": self.dropped,
            "cold_ratio": self.cold_ratio,
            "e2e_p50_ms": self.e2e_p50_ms,
            "e2e_p99_ms": self.e2e_p99_ms,
            "overhead_p50_ms": self.overhead_p50_ms,
            "forwards": self.forwards,
            "placements": self.placements,
            "littles_load": self.total_load,
        }


def trace_registrations(trace: Trace) -> list[FunctionRegistration]:
    """One registration per function of ``trace``, in trace order."""
    return [
        FunctionRegistration(
            name=f.name,
            memory_mb=f.memory_mb,
            warm_time=f.warm_time,
            cold_time=f.cold_time,
        )
        for f in trace.functions
    ]


def summary_rows(invocations) -> list[tuple]:
    """A serial replay's invocations as the sharded engine's summary rows
    (:func:`~repro.cluster_shard.protocol.summary_row`).  ``replay_plan``
    returns triggered invocations in plan order, so the enumeration index
    is the plan index whenever nothing was left untriggered."""
    return [summary_row(k, i) for k, i in enumerate(invocations)]


def reduce_summaries(rows) -> dict:
    """The reduced outcome of summary rows — the equality surface across
    engines (keys are :class:`ClusterStudyResult` fields)."""
    done = [r for r in rows if not r[1] and r[2]]
    e2e = [r[4] for r in done]
    overheads = [r[5] for r in done]
    return {
        "invocations": len(rows),
        "completed": len(done),
        "dropped": sum(1 for r in rows if r[1]),
        "cold": sum(1 for r in done if r[3]),
        "e2e_p50_ms": percentile(e2e, 50) * 1000.0,
        "e2e_p99_ms": percentile(e2e, 99) * 1000.0,
        "overhead_p50_ms": percentile(overheads, 50) * 1000.0,
    }


def _run_study_sharded(
    trace: Trace,
    plan,
    num_workers: int,
    config: WorkerConfig,
    lb_policy: str,
    status_interval: Optional[float],
    shards: int,
    telemetry_dir: Optional[str],
    trace_on: bool = False,
    health=None,
):
    """The sharded engine's outcome: ``(rows, forwards, placements,
    per_worker_invocations)``."""
    telemetry_config = None
    live_path = None
    if telemetry_dir is not None:
        from ..telemetry import TelemetryConfig

        telemetry_config = TelemetryConfig(trace=trace_on, health=health)
        if telemetry_config.health is not None:
            from pathlib import Path

            from ..telemetry import RUN_FILES

            live_path = Path(telemetry_dir) / RUN_FILES["live"]
    outcome = run_sharded_replay(
        plan,
        num_workers=num_workers,
        shards=shards,
        registrations=trace_registrations(trace),
        config=config,
        lb_policy=lb_policy,
        status_interval=status_interval,
        grace=300.0,
        telemetry_config=telemetry_config,
        flight_recorder=trace_on,
        live_path=live_path,
    )
    if outcome.telemetry is not None:
        outcome.telemetry.export(telemetry_dir)
    # Summaries arrive in arrival order, mirroring replay_plan's return.
    return (outcome.summaries, outcome.forwards, outcome.placements,
            dict(outcome.per_worker_records))


def _run_study_serial(
    trace: Trace,
    plan,
    num_workers: int,
    config: WorkerConfig,
    lb_policy: str,
    status_interval: Optional[float],
    telemetry_dir: Optional[str],
    trace_on: bool = False,
    health=None,
):
    """The single-process engine's outcome, shaped like
    :func:`_run_study_sharded`'s."""
    env = Environment()
    cluster = Cluster(
        env,
        num_workers=num_workers,
        config=config,
        lb_policy=lb_policy,
        status_interval=status_interval,
    )
    telemetry = None
    if telemetry_dir is not None:
        # Deferred import: the pipeline only loads when somebody opts in.
        from ..telemetry import RUN_FILES, Telemetry, TelemetryConfig

        telemetry = Telemetry(env, TelemetryConfig(trace=trace_on, health=health))
        cluster.attach_telemetry(telemetry)
        telemetry.start()
        if telemetry.config.health is not None:
            from pathlib import Path

            telemetry.enable_live(Path(telemetry_dir) / RUN_FILES["live"])
    cluster.start()
    for registration in trace_registrations(trace):
        cluster.register_sync(registration)
    invocations = replay_plan(env, cluster, plan, grace=300.0)
    cluster.stop()
    if telemetry is not None:
        telemetry.stop()
        telemetry.export(telemetry_dir)
    per_worker = {
        name: len(w.metrics.records) for name, w in cluster.workers.items()
    }
    return (summary_rows(invocations), cluster.status()["forwards"],
            cluster.placements, per_worker)


def run_cluster_study(
    scale: Scale = MEDIUM,
    trace: Optional[Trace] = None,
    num_workers: int = 4,
    cores_per_worker: int = 8,
    memory_per_worker_mb: float = 8192.0,
    target_load_fraction: float = 0.6,
    duration_cap: float = 1800.0,
    lb_policy: str = "ch_bl",
    status_interval: Optional[float] = None,
    cache: CacheLike = None,
    telemetry_dir: Optional[str] = None,
    shards: Optional[int] = None,
    trace_invocations: bool = False,
    health=False,
) -> ClusterStudyResult:
    """Replay (a clip of) the representative trace on a cluster.

    ``target_load_fraction`` positions the Little's-law load relative to
    total cluster cores (0.6 = comfortably loaded, not saturated).
    ``status_interval`` makes balancer decisions act on periodic status
    snapshots instead of live state (None = live, the idealized default).
    ``telemetry_dir``, when set, attaches the opt-in telemetry pipeline
    and exports the run directory (timeseries, spans, records, metrics,
    summary) there after the replay.
    ``shards`` > 1 (default ``$REPRO_SHARDS``, else 1) runs the same
    replay across that many shard processes via ``repro.cluster_shard``;
    the records are bit-identical, only the wall clock changes.  Falls
    back to the single-process path when shard processes cannot start.
    ``trace_invocations`` (requires ``telemetry_dir``) additionally
    collects causal trace trees (``repro.tracing``) into the run
    directory's ``traces.jsonl`` and, on sharded runs, the coordinator's
    flight-recorder log into ``flight.json``.
    ``health`` (requires ``telemetry_dir``) turns on the streaming
    health/SLO pipeline (``repro.health``): pass ``True`` for the default
    :class:`~repro.health.HealthConfig` or a configured instance; the run
    directory gains ``health.json``, ``slo.jsonl``, ``health.prom`` and
    ``live.jsonl`` heartbeats for ``repro watch``.
    """
    if not 0 < target_load_fraction:
        raise ValueError("target_load_fraction must be positive")
    if trace is None:
        trace = make_traces(scale, cache=cache)["representative"]
    if trace.duration > duration_cap:
        trace = trace.clipped(duration_cap, name=f"{trace.name}-study")
    trace = map_trace_to_catalog(trace)
    target = target_load_fraction * num_workers * cores_per_worker
    trace = scale_to_load(trace, target_load=target)

    config = WorkerConfig(
        cores=cores_per_worker,
        memory_mb=memory_per_worker_mb,
        backend="null",
        keepalive_policy="GD",
        seed=scale.seed,
    )
    plan = plan_from_trace(trace)
    shards = min(resolve_shards(shards), num_workers)
    outcome = None
    if shards > 1:
        try:
            outcome = _run_study_sharded(
                trace, plan, num_workers, config, lb_policy,
                status_interval, shards, telemetry_dir,
                trace_on=trace_invocations,
                health=health or None,
            )
        except ShardingUnavailable as exc:
            warnings.warn(
                f"cluster sharding unavailable ({exc}); running "
                "single-process",
                RuntimeWarning,
                stacklevel=2,
            )
    if outcome is None:
        outcome = _run_study_serial(
            trace, plan, num_workers, config, lb_policy, status_interval,
            telemetry_dir, trace_on=trace_invocations, health=health or None,
        )
    rows, forwards, placements, per_worker = outcome
    return ClusterStudyResult(
        **reduce_summaries(rows),
        forwards=forwards,
        placements=placements,
        per_worker_invocations=per_worker,
        total_load=little_load(trace),
    )


def _lb_sweep_row(study: dict, lb_policy: str) -> ClusterStudyResult:
    """One policy's study (top-level for pool workers); ``study`` holds
    the scale, the trace, the cluster shape and the shard count every
    policy shares."""
    return run_cluster_study(lb_policy=lb_policy, **study)


def run_cluster_lb_sweep(
    scale: Scale = MEDIUM,
    lb_policies: Sequence[str] = ("ch_bl", "round_robin", "least_loaded"),
    trace: Optional[Trace] = None,
    num_workers: int = 4,
    cores_per_worker: int = 8,
    memory_per_worker_mb: float = 8192.0,
    target_load_fraction: float = 0.6,
    duration_cap: float = 1800.0,
    n_jobs: Optional[int] = None,
    cache: CacheLike = None,
    shards: Optional[int] = None,
) -> list[dict]:
    """The full-stack study repeated per LB policy, one process per run.

    The (expensive) trace generates once in the parent and ships to each
    worker via the pool initializer; every policy then replays the same
    invocation sequence.  Returns one row per policy in ``lb_policies``
    order.

    With ``shards`` > 1, parallelism moves *inside* each run: policies
    execute one after another, each sharded across that many worker
    processes (pool workers are daemonic and cannot host shard children,
    so per-policy pooling and intra-run sharding are mutually exclusive).
    """
    if trace is None:
        trace = make_traces(scale, cache=cache)["representative"]
    shards = resolve_shards(shards)
    study = dict(
        scale=scale,
        trace=trace,
        num_workers=num_workers,
        cores_per_worker=cores_per_worker,
        memory_per_worker_mb=memory_per_worker_mb,
        target_load_fraction=target_load_fraction,
        duration_cap=duration_cap,
        shards=shards,
    )
    results = run_parallel(_lb_sweep_row, [(p,) for p in lb_policies],
                           n_jobs=1 if shards > 1 else n_jobs, shared=study)
    return [
        {"lb_policy": policy, **result.as_dict()}
        for policy, result in zip(lb_policies, results)
    ]
