"""Load-balancer ablation: CH-BL bound factor (Section 3.1) and the
push-vs-pull dispatch race.

CH-BL trades locality (warm starts) against load spread: a tight bound
(c→1) forwards eagerly and sacrifices warm hits; a loose bound keeps
functions home but lets hot workers saturate.  This experiment replays a
skewed multi-function workload against a cluster for several bound
factors and reports warm ratio, forwards, and latency.

:func:`run_dispatch_race` races push CH-BL against the pull policies
(shared logical queue, idle workers claim) under the three regimes where
pull scheduling is argued to win: skewed function popularity, worker
heterogeneity (push is blind to capacity differences; pull workers claim
at the rate they drain), and flash crowds.  Each row decomposes the
pull-only claim-wait phase out of the telemetry breakdown, so the tail
cost of queueing at the dispatch layer is attributed explicitly rather
than folded into end-to-end latency.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.config import WorkerConfig
from ..loadbalancer.cluster import Cluster
from ..loadgen.openloop import FunctionMix, InvocationPlan, build_plan, replay_plan
from ..metrics.stats import percentile
from ..parallel.pool import run_parallel
from ..sim.core import Environment
from ..sim.distributions import Exponential
from ..workloads.lookbusy import lookbusy_function

__all__ = [
    "DISPATCH_RACE_SCENARIOS",
    "run_dispatch_race",
    "run_lb_ablation",
    "run_lb_policy_comparison",
]


def _lb_policy_row(
    policy: str, num_workers: int, duration: float, seed: int
) -> dict:
    """One LB policy's row (top-level so pool workers can import it)."""
    functions = [
        lookbusy_function(f"fn-{i}", run_time=0.3 + 0.2 * (i % 4),
                          memory_mb=128.0, init_time=1.5)
        for i in range(24)
    ]
    mixes = [FunctionMix(f.fqdn(), Exponential(2.0 + 0.5 * (i % 8)))
             for i, f in enumerate(functions)]
    env = Environment()
    cluster = Cluster(
        env,
        num_workers=num_workers,
        config=WorkerConfig(cores=4, memory_mb=1024.0, backend="null",
                            free_memory_buffer_mb=128.0, seed=seed),
        lb_policy=policy,
    )
    cluster.start()
    for f in functions:
        cluster.register_sync(f)
    plan = build_plan(mixes, duration, seed=seed)
    invocations = replay_plan(env, cluster, plan, grace=120.0)
    cluster.stop()
    done = [i for i in invocations if not i.dropped and i.completed_at]
    warm = sum(1 for i in done if not i.cold)
    e2e = [i.e2e_time for i in done]
    return {
        "policy": policy,
        "completed": len(done),
        "warm_ratio": warm / max(len(done), 1),
        "e2e_p50_ms": percentile(e2e, 50) * 1000.0,
        "e2e_p99_ms": percentile(e2e, 99) * 1000.0,
    }


def run_lb_policy_comparison(
    policies: Sequence[str] = ("ch_bl", "round_robin", "least_loaded"),
    num_workers: int = 4,
    duration: float = 180.0,
    seed: int = 23,
    n_jobs: Optional[int] = None,
) -> list[dict]:
    """CH-BL vs locality-blind baselines on the same skewed workload.

    The paper's argument for CH-BL is locality: keeping a function on its
    home worker converts invocations into warm starts.  Round-robin
    destroys locality entirely; least-loaded partially.  Worker memory is
    sized so no single worker can hold the whole function population —
    the regime in which placement locality decides the warm-hit rate."""
    cells = [(policy, num_workers, duration, seed) for policy in policies]
    return run_parallel(_lb_policy_row, cells, n_jobs=n_jobs)


def _bound_factor_row(
    factor: float, num_workers: int, duration: float, seed: int
) -> dict:
    """One CH-BL bound factor's row (top-level for pool workers)."""
    functions = [
        lookbusy_function(f"fn-{i}", run_time=0.3 + 0.2 * (i % 4),
                          memory_mb=128.0, init_time=1.5)
        for i in range(12)
    ]
    # A skewed mix: the first two functions are hot (bursty home nodes).
    mixes = [
        FunctionMix(functions[0].fqdn(), Exponential(0.15)),
        FunctionMix(functions[1].fqdn(), Exponential(0.25)),
    ] + [FunctionMix(f.fqdn(), Exponential(2.0)) for f in functions[2:]]

    env = Environment()
    cluster = Cluster(
        env,
        num_workers=num_workers,
        config=WorkerConfig(cores=2, memory_mb=4096.0, backend="null",
                            seed=seed),
        bound_factor=factor,
    )
    cluster.start()
    for f in functions:
        cluster.register_sync(f)
    plan = build_plan(mixes, duration, seed=seed)
    invocations = replay_plan(env, cluster, plan, grace=120.0)
    cluster.stop()

    done = [i for i in invocations if not i.dropped and i.completed_at]
    warm = sum(1 for i in done if not i.cold)
    e2e = [i.e2e_time for i in done]
    return {
        "bound_factor": factor,
        "completed": len(done),
        "warm_ratio": warm / max(len(done), 1),
        "forwards": cluster.balancer.forwards,
        "e2e_p50_ms": percentile(e2e, 50) * 1000.0,
        "e2e_p99_ms": percentile(e2e, 99) * 1000.0,
    }


def run_lb_ablation(
    bound_factors: Sequence[float] = (1.0, 1.2, 1.5, 2.0),
    num_workers: int = 4,
    duration: float = 180.0,
    seed: int = 23,
    n_jobs: Optional[int] = None,
) -> list[dict]:
    """One row per bound factor: locality/latency outcomes of CH-BL."""
    cells = [(factor, num_workers, duration, seed) for factor in bound_factors]
    return run_parallel(_bound_factor_row, cells, n_jobs=n_jobs)


# ------------------------------------------------------- dispatch race

DISPATCH_RACE_SCENARIOS = ("skewed", "heterogeneous", "flash_crowd")


def _merge_plans(a: InvocationPlan, b: InvocationPlan) -> InvocationPlan:
    """Interleave two plans into one sorted schedule (stable on ties)."""
    ts = np.concatenate([a.timestamps, b.timestamps])
    fqdns = list(a.fqdns) + list(b.fqdns)
    order = np.argsort(ts, kind="stable")
    return InvocationPlan(
        timestamps=ts[order],
        fqdns=[fqdns[i] for i in order],
        duration=max(a.duration, b.duration),
    )


def _race_workload(scenario: str, duration: float, seed: int):
    """(functions, plan) for one race scenario."""
    functions = [
        lookbusy_function(f"fn-{i}", run_time=0.3 + 0.2 * (i % 4),
                          memory_mb=128.0, init_time=1.5)
        for i in range(16)
    ]
    if scenario == "skewed":
        # Zipf-flavoured popularity: two hot heads, a long cool tail.
        mixes = [
            FunctionMix(functions[0].fqdn(), Exponential(0.12)),
            FunctionMix(functions[1].fqdn(), Exponential(0.25)),
        ] + [FunctionMix(f.fqdn(), Exponential(3.0)) for f in functions[2:]]
        return functions, build_plan(mixes, duration, seed=seed)
    if scenario == "heterogeneous":
        # Moderate uniform load; the interesting asymmetry is in the
        # workers (see _race_cluster), not the trace.
        mixes = [FunctionMix(f.fqdn(), Exponential(0.9))
                 for f in functions]
        return functions, build_plan(mixes, duration, seed=seed)
    if scenario == "flash_crowd":
        # A light steady mix with a dense single-function burst one third
        # of the way in: the regime where a shared queue absorbs the spike
        # instead of hashing it all onto one home worker.
        mixes = [FunctionMix(f.fqdn(), Exponential(2.0)) for f in functions]
        base = build_plan(mixes, duration, seed=seed)
        crowd_start = duration / 3.0
        crowd = build_plan(
            [FunctionMix(functions[0].fqdn(), Exponential(0.02),
                         start_offset=crowd_start)],
            crowd_start + 12.0,
            seed=seed + 1,
        )
        return functions, _merge_plans(base, crowd)
    raise ValueError(
        f"unknown dispatch-race scenario {scenario!r}; "
        f"choose from {sorted(DISPATCH_RACE_SCENARIOS)}"
    )


def _race_cluster(env: Environment, policy: str, scenario: str,
                  num_workers: int, seed: int) -> Cluster:
    base = WorkerConfig(cores=4, memory_mb=1024.0, backend="null",
                        free_memory_buffer_mb=128.0, seed=seed)
    override = None
    if scenario == "heterogeneous":
        # Alternate small/large workers.  Push CH-BL hashes by function
        # name and bounds on queue length only; pull workers naturally
        # claim in proportion to drain rate.
        override = [
            cfg.with_overrides(cores=(2 if i % 2 else 8))
            for i, cfg in enumerate(Cluster.worker_configs(base, num_workers))
        ]
    return Cluster(
        env,
        num_workers=num_workers,
        config=base,
        lb_policy=policy,
        worker_configs_override=override,
    )


def _dispatch_race_row(
    policy: str, scenario: str, num_workers: int, duration: float, seed: int
) -> dict:
    """One (policy, scenario) cell of the race (top-level for the pool)."""
    from ..telemetry import Telemetry, TelemetryConfig
    from ..telemetry.decomposition import CLAIM_WAIT_PHASE, aggregate_phases

    functions, plan = _race_workload(scenario, duration, seed)
    env = Environment()
    cluster = _race_cluster(env, policy, scenario, num_workers, seed)
    telemetry = Telemetry(env, TelemetryConfig(interval=max(duration / 8.0, 1.0)))
    cluster.attach_telemetry(telemetry)
    telemetry.start()
    cluster.start()
    for f in functions:
        cluster.register_sync(f)
    invocations = replay_plan(env, cluster, plan, grace=120.0)
    cluster.stop()
    telemetry.stop()

    done = [i for i in invocations if not i.dropped and i.completed_at]
    warm = sum(1 for i in done if not i.cold)
    e2e = [i.e2e_time for i in done]
    claims = [i.claimed_at - i.offered_at for i in invocations
              if i.claimed_at is not None]
    phases = aggregate_phases(telemetry.breakdowns())
    claim_phase = phases.get(CLAIM_WAIT_PHASE, {})
    return {
        "scenario": scenario,
        "policy": policy,
        "completed": len(done),
        "dropped": sum(1 for i in invocations if i.dropped),
        "warm_ratio": warm / max(len(done), 1),
        "e2e_p50_ms": percentile(e2e, 50) * 1000.0,
        "e2e_p99_ms": percentile(e2e, 99) * 1000.0,
        "claim_p50_ms": percentile(claims, 50) * 1000.0 if claims else 0.0,
        "claim_p99_ms": percentile(claims, 99) * 1000.0 if claims else 0.0,
        "claim_share_pct": claim_phase.get("share", 0.0) * 100.0,
    }


def run_dispatch_race(
    policies: Sequence[str] = ("ch_bl", "pull", "pull_local"),
    scenarios: Sequence[str] = DISPATCH_RACE_SCENARIOS,
    num_workers: int = 4,
    duration: float = 120.0,
    seed: int = 29,
    n_jobs: Optional[int] = None,
) -> list[dict]:
    """Race push CH-BL against the pull policies, one row per
    (scenario, policy).

    Tail latency (p99) is the headline; ``claim_*`` columns decompose how
    much of a pull row's latency was spent waiting on the shared queue
    (always zero for push rows, whose invocations are never offered)."""
    cells = [
        (policy, scenario, num_workers, duration, seed)
        for scenario in scenarios
        for policy in policies
    ]
    return run_parallel(_dispatch_race_row, cells, n_jobs=n_jobs)
