"""Figures 4 and 5: keep-alive policy sweep over the Azure-like traces.

For each of the three trace samples (representative / rare / random) and
each cache size, every policy replays the trace through the keep-alive
simulator.  Figure 4 plots the % increase in execution time; Figure 5 the
cold-start (miss) fraction; both come from the same sweep, so one run
yields both artifacts.

Paper shapes this must reproduce:
* representative: GD >=3x lower overhead than TTL across 15-80 GB, and GD
  reaches its floor at ~3x smaller cache than other variants;
* rare: LRU ~2x better than TTL; HIST beats TTL but trails caching
  policies by ~50%;
* random: recency dominates; TTL ~ LRU convergence for rare objects.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..cache import CacheLike
from ..keepalive.policies import POLICY_NAMES
from ..keepalive.simulator import KeepAliveResult, simulate
from ..parallel.pool import run_parallel
from ..trace.azure import AzureTraceConfig, generate_dataset
from ..trace.model import Trace
from ..trace.sampling import standard_samples
from .defaults import MEDIUM, Scale

__all__ = ["make_traces", "run_keepalive_sweep", "fig4_rows", "fig5_rows"]


def make_traces(scale: Scale = MEDIUM, cache: CacheLike = None) -> dict[str, Trace]:
    """The three paper evaluation traces at the requested scale.

    ``cache`` memoizes both the generated dataset and the expanded trace
    samples on disk (defaults to ``$REPRO_CACHE`` when set); a warm cache
    skips generation entirely and is bit-identical to a cold run.
    """
    dataset = generate_dataset(
        AzureTraceConfig(
            num_functions=scale.dataset_functions,
            duration_minutes=scale.dataset_minutes,
            seed=scale.seed,
        ),
        cache=cache,
    )
    return standard_samples(
        dataset,
        rare_n=scale.rare_n,
        representative_n=scale.representative_n,
        random_n=scale.random_n,
        cache=cache,
    )


def _keepalive_row(traces: dict, trace_name: str, policy: str,
                   cache_size_mb: float) -> tuple[str, KeepAliveResult]:
    """One grid cell (top-level for pool workers): replay
    ``traces[trace_name]`` under one policy and cache size."""
    return trace_name, simulate(traces[trace_name], policy, cache_size_mb)


def run_keepalive_sweep(
    scale: Scale = MEDIUM,
    policies: Sequence[str] = POLICY_NAMES,
    traces: Optional[dict[str, Trace]] = None,
    n_jobs: Optional[int] = None,
    cache: CacheLike = None,
) -> list[tuple[str, KeepAliveResult]]:
    """(trace_name, result) for every trace x policy x cache size.

    Every cell is an independent replay, so the grid fans out over
    ``n_jobs`` worker processes (default: serial; see
    :func:`repro.parallel.resolve_jobs`).  The traces ship to each
    worker once via the pool initializer, and results come back in grid
    order — identical rows and ordering at any ``n_jobs``.
    """
    traces = traces if traces is not None else make_traces(scale, cache=cache)
    cells = [
        (trace_name, policy, size_gb * 1024.0)
        for trace_name in traces
        for policy in policies
        for size_gb in scale.cache_sizes_gb
    ]
    return run_parallel(_keepalive_row, cells, n_jobs=n_jobs, shared=traces)


def fig4_rows(results: Sequence[tuple[str, KeepAliveResult]]) -> list[dict]:
    """Figure 4 series: % increase in execution time."""
    return [
        {
            "trace": name,
            "policy": r.policy,
            "cache_gb": r.cache_size_mb / 1024.0,
            "exec_increase_pct": r.exec_increase_pct,
        }
        for name, r in results
    ]


def fig5_rows(results: Sequence[tuple[str, KeepAliveResult]]) -> list[dict]:
    """Figure 5 series: cold-start fraction."""
    return [
        {
            "trace": name,
            "policy": r.policy,
            "cache_gb": r.cache_size_mb / 1024.0,
            "cold_fraction": r.cold_ratio,
        }
        for name, r in results
    ]
