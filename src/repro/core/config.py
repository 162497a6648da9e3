"""Worker configuration (JSON-configurable, like the paper's workers).

Ilúvatar workers take a JSON config with policy options (queueing,
keep-alive, timeouts, networking, logging); experiments inject values on
top of a base file.  :func:`load_config` mirrors that: a dict/JSON file
plus keyword overrides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Optional, Union

from ..errors import ConfigurationError

__all__ = ["WorkerLatencyProfile", "WorkerConfig", "load_config"]


@dataclass(frozen=True)
class WorkerLatencyProfile:
    """Control-plane component latencies (seconds), calibrated to paper
    Table 2 (mean per-component times of a warm invocation).

    These are *spent* as DES timeouts on the invocation path, so the
    measured span breakdown reproduces the table by construction and the
    end-to-end overhead (~2 ms warm) matches Figure 1's Ilúvatar line.
    Each field is named after the component interval it spends: the
    lifecycle looks its base up by that name.
    """

    invoke: float = 0.000026
    sync_invoke: float = 0.000013
    enqueue_invocation: float = 0.000017
    add_item_to_q: float = 0.000020
    spawn_worker: float = 0.000029
    dequeue: float = 0.000020
    acquire_container: float = 0.000096
    try_lock_container: float = 0.000014
    prepare_invoke: float = 0.000154
    download_result: float = 0.000032
    return_container: float = 0.000017
    return_results: float = 0.000266
    jitter_fraction: float = 0.10  # exponential tail, mean = fraction*base

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigurationError(f"{f.name} must be non-negative")


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to run."""

    name: str = "worker-0"
    cores: int = 48
    memory_mb: float = 32768.0
    backend: str = "null"
    # Queueing.
    queue_policy: str = "eedf"
    queue_max_len: Optional[int] = None  # None = unbounded (burst tolerant)
    concurrency_limit: Optional[int] = None  # None -> cores (no overcommit)
    dynamic_concurrency: bool = False  # AIMD mode
    bypass_enabled: bool = True
    bypass_duration: float = 0.100
    bypass_load_limit: float = 0.9
    # Memory admission: how long a cold start may wait for memory before
    # the invocation is shed.
    memory_wait_timeout: float = 30.0
    # Keep-alive.
    keepalive_policy: str = "GD"
    eviction_interval: float = 2.0   # background eviction period
    free_memory_buffer_mb: float = 1024.0
    # Snapshot-accelerated cold starts (Section 3.2: "from a previous
    # snapshot if available").  Off by default: the paper's headline
    # numbers are snapshot-free.
    snapshots_enabled: bool = False
    # Namespace pool / HTTP client cache (ablation knobs).
    namespace_pool_size: int = 32
    namespace_pool_enabled: bool = True
    http_client_cache_enabled: bool = True
    # Monitoring.
    load_sample_interval: float = 1.0
    latency: WorkerLatencyProfile = field(default_factory=WorkerLatencyProfile)
    seed: int = 1

    def __post_init__(self):
        if self.cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {self.cores}")
        if self.memory_mb <= 0:
            raise ConfigurationError("memory_mb must be positive")
        if self.concurrency_limit is not None and self.concurrency_limit < 1:
            raise ConfigurationError("concurrency_limit must be >= 1")
        if self.queue_max_len is not None and self.queue_max_len < 1:
            raise ConfigurationError("queue_max_len must be >= 1")
        if self.bypass_duration < 0:
            raise ConfigurationError("bypass_duration must be non-negative")
        if self.memory_wait_timeout < 0:
            raise ConfigurationError("memory_wait_timeout must be non-negative")
        if self.eviction_interval <= 0:
            raise ConfigurationError("eviction_interval must be positive")
        if self.free_memory_buffer_mb < 0:
            raise ConfigurationError("free_memory_buffer_mb must be non-negative")
        if self.free_memory_buffer_mb >= self.memory_mb:
            raise ConfigurationError("free buffer must be smaller than total memory")
        if self.namespace_pool_size < 0:
            raise ConfigurationError("namespace_pool_size must be non-negative")
        if self.load_sample_interval <= 0:
            raise ConfigurationError("load_sample_interval must be positive")

    @property
    def effective_concurrency(self) -> int:
        return self.concurrency_limit if self.concurrency_limit else self.cores

    def with_overrides(self, **overrides: Any) -> "WorkerConfig":
        return replace(self, **overrides)


def load_config(
    source: Union[None, str, Path, dict] = None, **overrides: Any
) -> WorkerConfig:
    """Build a WorkerConfig from a JSON file / dict plus overrides."""
    data: dict[str, Any] = {}
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            data = json.load(fh)
    elif isinstance(source, dict):
        data = dict(source)
    elif source is not None:
        raise ConfigurationError(f"unsupported config source: {type(source)!r}")
    data.update(overrides)
    if "latency" in data and isinstance(data["latency"], dict):
        data["latency"] = WorkerLatencyProfile(**data["latency"])
    known = {f.name for f in fields(WorkerConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    return WorkerConfig(**data)
