"""Sharded multi-process cluster simulation with a time-synchronized
load-balancer seam.

A ``cluster-study`` at N shards partitions the cluster's workers across N
child processes, each simulating its own DES environment, while the
parent runs the load balancer and advances simulated time in conservative
epochs — the lookahead is the LB→worker dispatch latency, the only
channel through which workers ever interact.  The sharded run reproduces
the single-process run's invocation records **bit for bit** (pinned
against the golden fixture by ``tests/test_cluster_shard.py``); it exists
purely to spend more cores on the same simulation.

Opt in with ``--shards N`` / ``REPRO_SHARDS``; protocol, lookahead
contract and determinism argument are documented in ``docs/SHARDING.md``.
"""

from .coordinator import ShardedOutcome, run_sharded_replay
from .protocol import (
    EPOCH_CHUNK,
    RESULT_CHUNK,
    SHARDS_ENV_VAR,
    ShardSpec,
    ShardingUnavailable,
    partition_workers,
    plan_epochs,
    resolve_shards,
    sync_indices,
)

__all__ = [
    "EPOCH_CHUNK",
    "RESULT_CHUNK",
    "SHARDS_ENV_VAR",
    "ShardSpec",
    "ShardedOutcome",
    "ShardingUnavailable",
    "partition_workers",
    "plan_epochs",
    "resolve_shards",
    "run_sharded_replay",
    "sync_indices",
]
