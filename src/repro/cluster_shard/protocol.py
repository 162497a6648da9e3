"""The LB-seam protocol between the shard coordinator and shard processes.

A sharded cluster run partitions the workers into N shard processes, each
simulating its own :class:`~repro.sim.core.Environment`.  Workers never
interact directly — every cross-worker effect crosses the load-balancer
seam, and the LB→worker dispatch RPC has latency ``rpc_latency`` — so the
seam latency is the conservative **lookahead**: a placement decided at
simulated time ``t`` cannot affect any worker before ``t + rpc_latency``,
and a shard may simulate up to the next seam event before hearing from
the coordinator again.

The seam is **epoch batched**: the coordinator precomputes the arrivals
at which the balancer reads worker loads (:func:`sync_indices`), walks
the plan one *epoch* (the arrivals between two consecutive sync points)
at a time, and sends each shard at most one compact columnar message per
epoch instead of one entry per invocation.  Full walkthrough in
``docs/SHARDING.md``.

Seam message schema (picklable tuples; times non-decreasing within and
across messages):

coordinator → shard:

``("E", ks, ts, codes, locs, sync)``
    One epoch chunk.  ``ks``/``ts``/``codes``/``locs`` are parallel numpy
    arrays over this shard's dispatches in the chunk: plan arrival index
    (``int64``), arrival timestamp (``float64``), fqdn id into the
    :class:`ShardSpec` vocabulary (``int32``), and shard-local worker
    index (``int32``).  The shard walks them in order, advancing to each
    ``t`` and starting the forward process that delivers to the worker at
    ``t + rpc_latency`` with ``invocation_id = k + 1``.  ``sync`` is
    ``None`` or ``(k, t)``: after the dispatches, advance to ``t``,
    report worker loads for sync arrival ``k``, and block until the next
    message.  Pipelining: the sync request for epoch ``e+1``'s boundary
    rides in epoch ``e``'s message, so shards compute the loads while the
    coordinator is still accounting for epoch ``e``.
``("F",)``
    No more arrivals; the shard runs out its horizon and streams results.

shard → coordinator:

``("loads", k, {worker: load})``
    Queue-plus-running load of every worker in this shard, observed at
    the sync arrival's timestamp — the exact value a single-process
    balancer would read live.
``("part", kind, chunk)``
    One bounded chunk of a terminal result stream (``kind`` in
    ``{"summaries", "seam", "records", "breakdowns", "timeline"}``; the
    telemetry kinds, the last three, only when the run has telemetry).
    ``timeline`` rows are the shard's per-invocation rows (schema in
    ``tracing/events.py``), without the LB entries the coordinator joins
    from its placement log.  Telemetry kinds arrive pre-sorted by the
    merge key so the coordinator can k-way merge without re-sorting.
``("result", payload)``
    Terminal message after all parts: per-worker record counts plus the
    small telemetry leftovers (metric registries, gauge series, sample
    count).
``("error", traceback_text)``
    The shard died; the coordinator re-raises with the shard index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..dispatch.registry import is_pull_policy
from ..loadbalancer.policies import balancer_class, snap_to_grid

__all__ = [
    "SHARDS_ENV_VAR",
    "EPOCH_CHUNK",
    "RESULT_CHUNK",
    "ShardingUnavailable",
    "ShardSpec",
    "resolve_shards",
    "partition_workers",
    "sync_indices",
    "plan_epochs",
]

# Environment-variable fallback for the --shards CLI flag.
SHARDS_ENV_VAR = "REPRO_SHARDS"

# Arrivals per seam message when an epoch (or a no-sync stream) is larger
# than this: bounds the coordinator's working set and each pickle's size
# while keeping the one-message-per-epoch property for every epoch that
# fits (status-interval epochs are orders of magnitude smaller).
EPOCH_CHUNK = 16384

# Items per ("part", kind, chunk) result message: shards stream their
# terminal payloads in bounded pieces instead of one giant pickle.
RESULT_CHUNK = 4096


class ShardingUnavailable(RuntimeError):
    """Raised when shard processes cannot be started (sandboxed fork,
    daemonic parent, ...); callers fall back to the single-process path."""


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard process needs, shipped once at spawn."""

    index: int
    worker_configs: tuple          # WorkerConfig per worker, cluster order
    registrations: tuple           # FunctionRegistration, broadcast order
    rpc_latency: float
    horizon: float                 # absolute sim time to run until
    fqdn_vocab: tuple = ()         # fqdn strings, indexed by dispatch codes
    telemetry: Optional[object] = None   # TelemetryConfig or None
    collect_seam: bool = False     # record (k, delivery time) per dispatch


def resolve_shards(shards: Optional[int] = None) -> int:
    """Resolve the shard count: explicit arg > ``REPRO_SHARDS`` env > 1.

    ``0`` or a negative value (either source) means "all cores".
    """
    if shards is None:
        raw = os.environ.get(SHARDS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            shards = int(raw)
        except ValueError:
            raise ValueError(
                f"{SHARDS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    shards = int(shards)
    if shards <= 0:
        return max(os.cpu_count() or 1, 1)
    return shards


def partition_workers(num_workers: int, shards: int) -> list[range]:
    """Contiguous worker-index ranges, one per shard, sizes within one.

    Never more shards than workers; a worker's shard assignment is a pure
    function of ``(num_workers, shards)``, identical in the coordinator
    and in every equivalence test.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    shards = max(1, min(int(shards), num_workers))
    bounds = [(s * num_workers) // shards for s in range(shards + 1)]
    return [range(bounds[s], bounds[s + 1]) for s in range(shards)]


def sync_indices(
    timestamps: Sequence[float],
    lb_policy: str,
    status_interval: Optional[float],
) -> frozenset:
    """Arrival indices at which the balancer reads worker loads.

    Precomputable from the plan alone, so the coordinator and every shard
    agree without negotiation: a live status board (``interval=None``)
    reads loads at every pick; a snapshot board only when the arrival
    rolls the board into a new interval epoch (mirroring
    :meth:`repro.loadbalancer.policies.StatusBoard.load`, including its
    ``snap_to_grid`` epoch floor — the two share the helper, bit for
    bit); a balancer that never reads loads (``reads_load`` false, i.e.
    round robin) streams dispatches with no synchronization at all.

    The walk is epoch-jumping rather than per-arrival: each refresh
    binary-searches for the next arrival past ``snapped + interval`` and
    then fixes the boundary up with the *exact* ``t - snapped >=
    interval`` predicate the status board evaluates, so the result is
    identical to a per-arrival scan at a cost of
    ``O(epochs · log(arrivals))``.  Empty plans and duplicate timestamps
    inside one epoch are handled (duplicates never re-sync: their delta
    to the epoch floor is unchanged).
    """
    if is_pull_policy(lb_policy):
        # Pull dispatch claims from one shared logical queue: every claim
        # is a cross-shard interaction, so the conservative-epoch seam
        # (which only carries dispatch and load-read traffic) cannot
        # replay it.  Refuse loudly rather than stream unsynchronized —
        # callers catch this and fall back to the single-process engine.
        raise ShardingUnavailable(
            f"pull dispatch policy {lb_policy!r} claims from a shared "
            "logical queue; the epoch seam carries no claim traffic, so "
            "pull runs are serial-only"
        )
    if not balancer_class(lb_policy).reads_load:
        return frozenset()
    ts = np.asarray(timestamps, dtype=np.float64)
    n = int(ts.size)
    if n == 0:
        return frozenset()
    if status_interval is None:
        return frozenset(range(n))
    interval = float(status_interval)
    out = []
    i = 0
    while i < n:
        out.append(i)
        snapped = snap_to_grid(float(ts[i]), interval)
        # Candidate boundary via binary search, then an exact-predicate
        # fixup: ``t >= snapped + interval`` and ``t - snapped >=
        # interval`` can disagree by one ulp, and the board evaluates the
        # latter.
        j = int(np.searchsorted(ts, snapped + interval, side="left"))
        if j <= i:
            j = i + 1
        while j > i + 1 and float(ts[j - 1]) - snapped >= interval:
            j -= 1
        while j < n and float(ts[j]) - snapped < interval:
            j += 1
        i = j
    return frozenset(out)


def plan_epochs(
    num_arrivals: int, syncs: Sequence[int]
) -> list[tuple[Optional[int], int, int]]:
    """Split ``range(num_arrivals)`` into seam epochs.

    Returns ``(sync_k, start, end)`` segments covering the arrival range:
    ``sync_k`` is the sync arrival whose loads must be in hand before the
    segment's picks (always the segment's own ``start``), or ``None`` for
    a segment needing no loads (a no-load policy's whole plan, or the
    prefix before the first sync).  Segments are contiguous, half-open,
    and in order; an empty plan yields no segments.
    """
    if num_arrivals < 0:
        raise ValueError("num_arrivals must be >= 0")
    if num_arrivals == 0:
        return []
    ks = sorted(syncs)
    if ks and (ks[0] < 0 or ks[-1] >= num_arrivals):
        raise ValueError("sync index out of plan range")
    segments: list[tuple[Optional[int], int, int]] = []
    if not ks:
        return [(None, 0, num_arrivals)]
    if ks[0] > 0:
        segments.append((None, 0, ks[0]))
    bounds = ks + [num_arrivals]
    for e in range(len(ks)):
        segments.append((ks[e], bounds[e], bounds[e + 1]))
    return segments
