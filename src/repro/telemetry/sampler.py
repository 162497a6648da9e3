"""Sim-time telemetry sampling: periodic gauge snapshots into timeseries.

Ilúvatar's worker monitors itself — queue depth, container counts, memory,
energy — and publishes periodic status snapshots that feed the load
balancer and the paper's overhead/energy plots (Section 5.1, §6).  The
:class:`TelemetrySampler` is that loop for the simulated control plane: a
DES process that wakes on a fixed simulated-time grid and appends one row
per worker to an in-memory columnar :class:`Timeseries`.

Observation must not perturb the schedule.  Every probe is read-only
(point-in-time gauge reads, no RNG, no state mutation), so a run with the
sampler attached produces bit-identical invocation records to one without
— pinned by ``tests/test_telemetry_determinism.py``.  When telemetry is
not attached, no sampler process exists and the worker's hot path is
untouched: a true no-op, per the paper's "tracing must cost nothing when
off" design point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterator, Optional, Sequence

__all__ = [
    "TelemetryConfig",
    "Timeseries",
    "TelemetrySampler",
    "WORKER_COLUMNS",
    "ENERGY_COLUMNS",
]

# Per-worker gauges snapshotted every tick.
WORKER_COLUMNS = (
    "t",
    "queue_depth",
    "running",
    "warm_containers",
    "in_use_containers",
    "memory_used_mb",
    "busy_cores",
)
# Appended when energy sampling is enabled (default-off).
ENERGY_COLUMNS = ("power_w", "energy_j")


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of the telemetry pipeline (everything here is opt-in: the
    pipeline itself only exists when an experiment constructs it)."""

    interval: float = 1.0          # sampling period, simulated seconds
    sample_energy: bool = False    # add power/energy columns (default-off)
    trace: bool = False            # collect causal trace trees (repro.tracing)
    # Streaming health/SLO layer (repro.health): None/False = off,
    # True = defaults, or a repro.health.HealthConfig.  Normalized to a
    # HealthConfig (or None) at construction.
    health: Optional[object] = None

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")
        if self.health is not None:
            from ..health.slo import normalize_health

            object.__setattr__(self, "health", normalize_health(self.health))


class Timeseries:
    """A columnar in-memory timeseries: named parallel lists.

    Columns are fixed at construction; :meth:`append` takes one value per
    column.  Column storage keeps the per-sample cost to N list appends
    and lets reductions run vectorized afterwards.
    """

    __slots__ = ("columns", "_data")

    def __init__(self, columns: Sequence[str]):
        if not columns:
            raise ValueError("a timeseries needs at least one column")
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names: {columns}")
        self.columns = tuple(columns)
        self._data: dict[str, list] = {c: [] for c in self.columns}

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values ({self.columns}), "
                f"got {len(values)}"
            )
        data = self._data
        for c, v in zip(self.columns, values):
            data[c].append(v)

    def column(self, name: str) -> list:
        return self._data[name]

    def __len__(self) -> int:
        return len(self._data[self.columns[0]])

    def rows(self) -> Iterator[dict]:
        """Row-oriented view (for JSONL export and tests)."""
        cols = self.columns
        data = [self._data[c] for c in cols]
        for values in zip(*data):
            yield dict(zip(cols, values))


class TelemetrySampler:
    """Periodic sampler of attached workers, driven by the DES kernel.

    ``attach_worker`` builds a read-only probe closure over the worker's
    gauges; ``start`` launches the sampling process.  All probes fire at
    the same instants, so rows across workers share timestamps.
    """

    def __init__(self, env, interval: float = 1.0, sample_energy: bool = False):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.env = env
        self.interval = float(interval)
        self.sample_energy = bool(sample_energy)
        self.series: dict[str, Timeseries] = {}
        # Load values the status board published to the balancer (staleness
        # -aware LB signal), kept separately from the gauge grid.
        self.lb_loads = Timeseries(("t", "worker", "load"))
        self._probes: list[Callable[[], None]] = []
        self._running = False
        self.samples = 0

    # -- wiring ------------------------------------------------------------
    def attach_worker(self, worker) -> Timeseries:
        """Register a worker; returns its (initially empty) timeseries."""
        name = worker.name
        if name in self.series:
            raise ValueError(f"worker {name!r} already attached")
        columns = WORKER_COLUMNS + (ENERGY_COLUMNS if self.sample_energy else ())
        ts = self.series[name] = Timeseries(columns)
        env = self.env
        queue = worker.queue
        load = worker.load
        pool = worker.pool
        memory = worker.memory
        energy = worker.energy

        if self.sample_energy:
            def probe() -> None:
                now = env.now
                available, in_use = pool.occupancy()
                ts.append(
                    now,
                    len(queue),
                    load.running,
                    available,
                    in_use,
                    memory.in_use,
                    load.busy_cores,
                    energy.power,
                    energy.joules_at(now),
                )
        else:
            def probe() -> None:
                available, in_use = pool.occupancy()
                ts.append(
                    env.now,
                    len(queue),
                    load.running,
                    available,
                    in_use,
                    memory.in_use,
                    load.busy_cores,
                )
        self._probes.append(probe)
        return ts

    def record_lb_load(self, worker: str, t: float, value: float) -> None:
        """StatusBoard publish hook: one balancer-visible load reading."""
        self.lb_loads.append(t, worker, value)

    # -- sampling ----------------------------------------------------------
    def sample_once(self) -> None:
        """Snapshot every attached worker at the current simulated time."""
        for probe in self._probes:
            probe()
        self.samples += 1

    def _run(self) -> Generator:
        while self._running:
            yield self.env.timeout(self.interval)
            self.sample_once()

    def start(self) -> None:
        if self._running:
            raise RuntimeError("sampler already started")
        self._running = True
        self.env.process(self._run(), name="telemetry-sampler")

    def stop(self) -> None:
        self._running = False
