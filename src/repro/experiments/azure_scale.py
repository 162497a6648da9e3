"""Azure-scale replay throughput: the sharded seam under a day-scale trace.

The cluster study answers "does the sharded engine reproduce the serial
run bit for bit"; this runner answers "how fast, and in how much memory,
does it chew through an Azure-shaped trace".  It expands a dataset in the
Azure CSV schema (a directory from ``repro export-azure`` / the real
download, or a synthetic one generated in-process), streams the resulting
invocation plan through the cluster once per requested shard count — the
serial engine for one shard, the epoch-batched seam for more — and
records a ``BENCH_azure_scale.json`` scaling curve at the repo root:
wall-clock invocations/second, peak RSS, the seam's message accounting,
and — on sharded rows — the coordinator flight recorder's totals (stall
vs overlapped wall-clock at the seam, payload bytes, merge time) per row,
with the reduced result summary asserted equal across every row (the
determinism contract, restated as data).

Machine provenance follows the repo's benchmark convention: the record
carries ``cpu_count``, and on machines with fewer cores than the largest
shard count a ``WARNING`` is written into the JSON itself — a scaling
curve measured on one core is seam overhead wearing a speedup label.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from ..cluster_shard import ShardingUnavailable, run_sharded_replay
from ..core.config import WorkerConfig
from ..loadbalancer.cluster import Cluster
from ..loadgen.openloop import plan_from_trace, replay_plan
from ..sim.core import Environment
from ..trace.azure import AzureTraceConfig, generate_dataset
from ..trace.azure_io import load_azure_csvs
from ..trace.replay import expand_dataset
from .cluster_study import reduce_summaries, summary_rows, trace_registrations

__all__ = ["AzureScaleRow", "AzureScaleReport", "run_azure_scale"]

BENCH_NAME = "BENCH_azure_scale.json"


@dataclass(frozen=True)
class AzureScaleRow:
    """One shard count's replay measurement."""

    shards: int
    engine: str                    # "serial" or "sharded"
    wall_s: float
    invocations: int
    inv_per_sec: float
    peak_rss_mb: float             # process+children high-water mark (see note)
    summary: dict                  # reduced outcome, equal across rows
    seam_stats: Optional[dict] = None
    flight: Optional[dict] = None  # FlightRecorder totals (sharded rows)
    health: Optional[dict] = None  # SLO violation/alert tallies (opt-in)
    fallback_reason: Optional[str] = None

    def as_dict(self) -> dict:
        out = {
            "shards": self.shards,
            "engine": self.engine,
            "wall_s": round(self.wall_s, 3),
            "invocations": self.invocations,
            "inv_per_sec": round(self.inv_per_sec, 1),
            "peak_rss_mb": round(self.peak_rss_mb, 1),
        }
        if self.seam_stats is not None:
            out["seam_stats"] = dict(self.seam_stats)
        if self.health is not None:
            out["health"] = dict(self.health)
        if self.flight is not None:
            out["flight"] = {
                k: (round(v, 6) if isinstance(v, float) else v)
                for k, v in self.flight.items()
            }
        if self.fallback_reason is not None:
            out["fallback_reason"] = self.fallback_reason
        return out


@dataclass(frozen=True)
class AzureScaleReport:
    """The full scaling curve plus the shared reduced summary."""

    rows: list = field(default_factory=list)       # AzureScaleRow per shard count
    summary: dict = field(default_factory=dict)    # the (shared) reduced outcome
    summaries_match: bool = True
    dataset: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)     # what was written to disk


def _peak_rss_mb() -> float:
    """High-water-mark RSS of this process and exited children, in MB.

    ``ru_maxrss`` never decreases over a process lifetime, so in a
    multi-row run later rows inherit earlier peaks; rows are ordered by
    shard count precisely so the column stays interpretable (each row is
    an upper bound for its own run).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # Linux reports KB; macOS reports bytes.
    scale = 1024.0 if os.uname().sysname != "Darwin" else 1024.0 * 1024.0
    return peak / scale


def _run_serial(plan, registrations, num_workers, config, lb_policy,
                status_interval, grace):
    env = Environment()
    cluster = Cluster(
        env,
        num_workers=num_workers,
        config=config,
        lb_policy=lb_policy,
        status_interval=status_interval,
    )
    cluster.start()
    for reg in registrations:
        cluster.register_sync(reg)
    invocations = replay_plan(env, cluster, plan, grace=grace)
    cluster.stop()
    return summary_rows(invocations), None, None


def _run_sharded(plan, registrations, num_workers, config, lb_policy,
                 status_interval, grace, shards, chunk_size):
    outcome = run_sharded_replay(
        plan,
        num_workers=num_workers,
        shards=shards,
        registrations=registrations,
        config=config,
        lb_policy=lb_policy,
        status_interval=status_interval,
        grace=grace,
        chunk_size=chunk_size,
        flight_recorder=True,
    )
    flight = (
        outcome.flight_log["totals"] if outcome.flight_log is not None else None
    )
    return list(outcome.summaries), outcome.seam_stats, flight


def run_azure_scale(
    dataset_dir: Optional[Union[str, Path]] = None,
    *,
    num_functions: int = 120,
    minutes: int = 60,
    seed: int = 0xFAA5,
    num_workers: int = 8,
    cores_per_worker: int = 2,
    memory_per_worker_mb: float = 8192.0,
    shard_counts: Sequence[int] = (1, 2),
    lb_policy: str = "ch_bl",
    status_interval: Optional[float] = 2.0,
    grace: float = 300.0,
    chunk_size: Optional[int] = None,
    out_path: Optional[Union[str, Path]] = None,
    health=False,
) -> AzureScaleReport:
    """Replay an Azure-schema dataset at each shard count; record the curve.

    ``dataset_dir`` points at invocations/durations/memory CSVs (the
    ``repro export-azure`` output or the real Azure Functions release);
    ``None`` generates a synthetic dataset of ``num_functions`` over
    ``minutes`` in-process.  The expanded trace and invocation plan are
    built **once** and reused for every row — only the replay is timed.
    Shard counts of 1 use the single-process engine; larger counts go
    through the epoch-batched seam, falling back (and saying so in the
    row) when shard processes cannot start.  Writes the record to
    ``out_path`` (default ``BENCH_azure_scale.json`` next to the repo's
    other BENCH files) and returns it as an :class:`AzureScaleReport`.
    ``health`` (``True`` or a :class:`~repro.health.HealthConfig`) grades
    every row's raw outcomes against the SLO engine *outside* the timed
    region, adding violation/alert tallies to each row.
    """
    health_cfg = None
    if health:
        from ..health import HealthConfig, normalize_health

        health_cfg = normalize_health(health) or HealthConfig()
    if dataset_dir is not None:
        dataset = load_azure_csvs(dataset_dir)
        source = str(dataset_dir)
    else:
        dataset = generate_dataset(AzureTraceConfig(
            num_functions=num_functions,
            duration_minutes=minutes,
            seed=seed,
        ))
        source = "synthetic"
    trace = expand_dataset(dataset, name="azure-scale")
    plan = plan_from_trace(trace)
    registrations = trace_registrations(trace)
    config = WorkerConfig(
        cores=cores_per_worker,
        memory_mb=memory_per_worker_mb,
        backend="null",
        keepalive_policy="GD",
        seed=seed,
    )

    rows: list[AzureScaleRow] = []
    for shards in sorted(set(int(s) for s in shard_counts)):
        if shards < 1:
            raise ValueError("shard counts must be >= 1")
        engine = "serial" if shards == 1 else "sharded"
        fallback = None
        seam_stats = None
        flight = None
        t0 = time.perf_counter()
        if shards == 1:
            raw, seam_stats, flight = _run_serial(
                plan, registrations, num_workers, config, lb_policy,
                status_interval, grace,
            )
        else:
            try:
                raw, seam_stats, flight = _run_sharded(
                    plan, registrations, num_workers, config, lb_policy,
                    status_interval, grace, shards, chunk_size,
                )
            except ShardingUnavailable as exc:
                fallback = str(exc)
                engine = "serial"
                raw, seam_stats, flight = _run_serial(
                    plan, registrations, num_workers, config, lb_policy,
                    status_interval, grace,
                )
        wall = time.perf_counter() - t0
        summary = reduce_summaries(raw)
        row_health = None
        if health_cfg is not None:
            # Graded after the clock stops: SLO accounting is reporting,
            # not replay work, and must not skew the throughput curve.
            from ..health import summaries_health

            row_health = summaries_health(
                plan.fqdns, plan.timestamps, raw, config=health_cfg,
            )
        rows.append(AzureScaleRow(
            shards=shards,
            engine=engine,
            wall_s=wall,
            invocations=summary["invocations"],
            inv_per_sec=(summary["invocations"] / wall) if wall > 0 else 0.0,
            peak_rss_mb=_peak_rss_mb(),
            summary=summary,
            seam_stats=seam_stats,
            flight=flight,
            health=row_health,
            fallback_reason=fallback,
        ))

    summaries_match = all(r.summary == rows[0].summary for r in rows)
    cores = os.cpu_count() or 1
    max_shards = max((r.shards for r in rows), default=1)
    record = {
        "benchmark": "azure-scale sharded replay",
        "dataset": {
            "source": source,
            "functions": dataset.num_functions,
            "invocations": len(plan),
            "duration_s": plan.duration,
        },
        "cpu_count": cores,
        "num_workers": num_workers,
        "cores_per_worker": cores_per_worker,
        "lb_policy": lb_policy,
        "status_interval": status_interval,
        "rows": [r.as_dict() for r in rows],
        "summaries_match": summaries_match,
        "summary": dict(rows[0].summary) if rows else {},
        "scaling_meaningful": cores >= max_shards,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "rss_note": (
            "peak_rss_mb is the ru_maxrss high-water mark of the runner and "
            "its exited shard children; it never decreases, so later rows "
            "inherit earlier rows' peaks"
        ),
    }
    if cores < max_shards:
        record["WARNING"] = (
            f"MEASURED ON A {cores}-CORE MACHINE: {max_shards} shard "
            "processes cannot run concurrently, so the throughput curve "
            "measures seam IPC overhead, NOT parallel scaling. Re-record "
            "on a machine with >= {0} cores before comparing.".format(max_shards)
        )
    if out_path is None:
        # src/repro/experiments/azure_scale.py -> repo root.
        out_path = Path(__file__).resolve().parents[3] / BENCH_NAME
    Path(out_path).write_text(json.dumps(record, indent=2) + "\n")
    return AzureScaleReport(
        rows=rows,
        summary=dict(rows[0].summary) if rows else {},
        summaries_match=summaries_match,
        dataset=record["dataset"],
        record=record,
    )
