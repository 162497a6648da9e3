"""Queueing-policy and design-choice ablations (Section 4 mechanisms).

No single paper figure covers these, but the design section makes
testable claims this module measures:

* discipline ablation — FCFS vs SJF vs EEDF vs RARE on a heterogeneous
  mix (SJF/EEDF cut short-function latency; FCFS lets long jobs block);
* bypass ablation — short-function bypass on/off;
* regulator ablation — fixed concurrency limit vs AIMD dynamic;
* cold-path ablations — namespace pool on/off, HTTP client cache on/off
  (the paper attributes ~100 ms and up to ~3 ms respectively).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.config import WorkerConfig
from ..core.worker import Worker
from ..loadgen.openloop import FunctionMix, build_plan, replay_plan
from ..metrics.stats import percentile
from ..parallel.pool import run_parallel
from ..sim.core import Environment
from ..sim.distributions import Exponential
from ..workloads.lookbusy import lookbusy_function

__all__ = [
    "heterogeneous_mix",
    "run_queue_policy_ablation",
    "run_bypass_ablation",
    "run_regulator_ablation",
    "run_coldpath_ablation",
]


def heterogeneous_mix(duration: float, seed: int = 11):
    """A short-hot + long-lukewarm function mix and its registrations."""
    functions = [
        lookbusy_function("short-a", run_time=0.05, memory_mb=64, init_time=0.2),
        lookbusy_function("short-b", run_time=0.08, memory_mb=64, init_time=0.2),
        lookbusy_function("long-a", run_time=2.5, memory_mb=512, init_time=1.5),
        lookbusy_function("long-b", run_time=4.0, memory_mb=512, init_time=2.0),
    ]
    mixes = [
        FunctionMix("short-a.1", Exponential(0.2)),
        FunctionMix("short-b.1", Exponential(0.3)),
        FunctionMix("long-a.1", Exponential(2.0)),
        FunctionMix("long-b.1", Exponential(3.0)),
    ]
    return functions, build_plan(mixes, duration, seed=seed)


def _run_workload(config: WorkerConfig, duration: float, seed: int = 11) -> dict:
    functions, plan = heterogeneous_mix(duration, seed=seed)
    env = Environment()
    worker = Worker(env, config)
    worker.start()
    for f in functions:
        worker.register_sync(f)
    invocations = replay_plan(env, worker, plan, grace=120.0)
    worker.stop()
    done = [i for i in invocations if not i.dropped and i.completed_at is not None]
    short = [i for i in done if i.function.warm_time <= 0.1]
    longf = [i for i in done if i.function.warm_time > 0.1]
    return {
        "completed": len(done),
        "dropped": sum(1 for i in invocations if i.dropped),
        "cold": sum(1 for i in done if i.cold),
        "short_p50_ms": percentile([i.e2e_time for i in short], 50) * 1000.0,
        "short_p99_ms": percentile([i.e2e_time for i in short], 99) * 1000.0,
        "long_p99_ms": percentile([i.e2e_time for i in longf], 99) * 1000.0,
        "mean_stretch": float(
            np.mean([i.stretch for i in done if i.exec_time > 0])
        ),
    }


def _queue_policy_row(policy: str, duration: float, cores: int) -> dict:
    """One discipline's row (top-level so pool workers can import it)."""
    cfg = WorkerConfig(
        cores=cores,
        memory_mb=8192.0,
        backend="null",
        queue_policy=policy,
        bypass_enabled=False,
    )
    row = {"policy": policy}
    row.update(_run_workload(cfg, duration))
    return row


def run_queue_policy_ablation(
    duration: float = 120.0,
    policies: Sequence[str] = ("fcfs", "sjf", "eedf", "rare", "mqfq"),
    cores: int = 4,
    n_jobs: Optional[int] = None,
) -> list[dict]:
    cells = [(policy, duration, cores) for policy in policies]
    return run_parallel(_queue_policy_row, cells, n_jobs=n_jobs)


def run_bypass_ablation(duration: float = 120.0, cores: int = 4) -> list[dict]:
    rows = []
    for bypass in (False, True):
        cfg = WorkerConfig(
            cores=cores,
            memory_mb=8192.0,
            backend="null",
            queue_policy="eedf",
            bypass_enabled=bypass,
        )
        row = {"bypass": bypass}
        row.update(_run_workload(cfg, duration))
        rows.append(row)
    return rows


def run_regulator_ablation(duration: float = 120.0, cores: int = 4) -> list[dict]:
    rows = []
    for dynamic in (False, True):
        cfg = WorkerConfig(
            cores=cores,
            memory_mb=8192.0,
            backend="null",
            queue_policy="eedf",
            dynamic_concurrency=dynamic,
        )
        row = {"dynamic_concurrency": dynamic}
        row.update(_run_workload(cfg, duration))
        rows.append(row)
    return rows


def run_coldpath_ablation(cold_starts: int = 50) -> list[dict]:
    """Cold-start latency with/without the namespace pool and HTTP cache.

    Each trial cold-starts ``cold_starts`` distinct functions sequentially
    and reports the mean cold end-to-end latency.
    """
    rows = []
    for ns_pool, http_cache in ((True, True), (False, True), (True, False), (False, False)):
        env = Environment()
        cfg = WorkerConfig(
            cores=8,
            memory_mb=65536.0,
            backend="containerd",
            namespace_pool_enabled=ns_pool,
            namespace_pool_size=64 if ns_pool else 0,
            http_client_cache_enabled=http_cache,
            bypass_enabled=False,
        )
        worker = Worker(env, cfg)
        worker.start()
        cold_lat, warm_lat = [], []
        for i in range(cold_starts):
            f = lookbusy_function(f"cold-{i}", run_time=0.05, memory_mb=64,
                                  init_time=0.1)
            worker.register_sync(f)
            inv = env.run_process(worker.invoke(f.fqdn()))
            assert inv.cold
            cold_lat.append(inv.e2e_time)
            # Warm follow-ups: where the HTTP-client cache matters.  The
            # first warm call populates the client cache; the second
            # measures the steady state (or the per-call cost when the
            # cache is disabled).
            env.run_process(worker.invoke(f.fqdn()))
            warm = env.run_process(worker.invoke(f.fqdn()))
            assert not warm.cold
            warm_lat.append(warm.e2e_time)
        worker.stop()
        rows.append(
            {
                "namespace_pool": ns_pool,
                "http_client_cache": http_cache,
                "cold_e2e_mean_ms": float(np.mean(cold_lat)) * 1000.0,
                "warm_overhead_mean_ms": float(
                    np.mean(warm_lat) - 0.05
                ) * 1000.0,
            }
        )
    return rows
