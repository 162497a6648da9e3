"""An OpenWhisk-like control plane model (the paper's baseline).

This worker exposes the same ``register_sync`` / ``invoke`` /
``async_invoke`` surface as :class:`repro.core.worker.Worker` so load
generators and experiments are backend-agnostic, and it drives the same
:class:`repro.core.lifecycle.InvocationContext` through the stages whose
semantics it shares (``admit → enqueue → acquire → (warm | cold_create)
→ execute → complete/drop``) — but its latency components and queueing
reproduce OpenWhisk's architecture and failure modes:

* NGINX → controller → **shared Kafka queue** → invoker → container, with
  a **CouchDB write on the critical path** (those are its ``enqueue`` and
  ``complete`` stages);
* **JVM GC pauses** stalling the pipeline;
* **no invocation queue or concurrency regulation** — admission is by
  container *memory* only, so CPUs are overcommitted and execution times
  stretch under load (processor sharing); there is no ``dispatch`` stage
  because there is no dispatcher;
* a bounded activation buffer: invocations that cannot obtain memory
  within a timeout, or that arrive to a full buffer, are **dropped**;
* keep-alive by **10-minute TTL** (LRU order under pressure) by default.

Setting ``keepalive_policy="GD"`` turns this model into **FaasCache** —
the paper's system is OpenWhisk with Greedy-Dual keep-alive — which is
exactly the comparison Figures 6 and 7 make.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from ..containers.backends import NullBackend
from ..core.characteristics import CharacteristicsMap
from ..core.container_pool import ContainerPool
from ..core.function import FunctionRegistration, Invocation
from ..core.lifecycle import (
    ACQUIRE,
    ADMIT,
    COLD_CREATE,
    COMPLETE,
    ENQUEUE,
    EXECUTE,
    WARM,
    InvocationContext,
    StageTracker,
)
from ..errors import DuplicateRegistration, FunctionNotRegistered
from ..keepalive.policies import make_policy
from ..metrics.registry import MetricsRegistry, Outcome
from ..sim.core import Environment, Event
from ..sim.resources import Gauge
from .components import ControllerModel, CouchDBModel, GCModel, KafkaModel, NginxModel

__all__ = ["OpenWhiskConfig", "OpenWhiskWorker"]


@dataclass(frozen=True)
class OpenWhiskConfig:
    """Knobs for the OpenWhisk/FaasCache model."""

    name: str = "openwhisk-0"
    cores: int = 48
    memory_mb: float = 32768.0
    keepalive_policy: str = "TTL"      # "GD" => FaasCache
    keepalive_ttl: float = 600.0
    container_create_mean: float = 0.450  # Docker-era OpenWhisk cold create
    # Admission/drops.
    buffer_max: int = 256               # max in-flight + queued activations
    memory_wait_timeout: float = 2.0    # OW sheds quickly when memory-starved
    # CPU overcommitment: execution stretches when running > cores.
    enable_cpu_stretch: bool = True
    seed: int = 7

    def __post_init__(self):
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.memory_mb <= 0:
            raise ValueError("memory_mb must be positive")
        if self.buffer_max < 1:
            raise ValueError("buffer_max must be >= 1")


class OpenWhiskWorker:
    """The modeled OpenWhisk (or FaasCache) single-server deployment."""

    def __init__(self, env: Environment, config: Optional[OpenWhiskConfig] = None):
        self.env = env
        self.config = config or OpenWhiskConfig()
        cfg = self.config
        self.name = cfg.name
        self.rng = np.random.default_rng(cfg.seed)

        # Pipeline components.
        self.nginx = NginxModel()
        self.controller = ControllerModel()
        self.kafka = KafkaModel()
        self.couchdb = CouchDBModel()
        self.gc = GCModel(env, self.rng)
        self.gc.bind_load(lambda: self.inflight)

        # Invoker state: containers via the null backend (execution is
        # simulated), keep-alive per configured policy.
        self.backend = NullBackend(env, create_latency=0.0)
        self.memory = Gauge(env, capacity=cfg.memory_mb)
        policy_kwargs = {"ttl": cfg.keepalive_ttl} if cfg.keepalive_policy.upper() == "TTL" else {}
        self.keepalive_policy = make_policy(cfg.keepalive_policy, **policy_kwargs)
        self.pool = ContainerPool(
            env,
            self.backend,
            self.keepalive_policy,
            self.memory,
            free_buffer_mb=0.0,          # OpenWhisk evicts on demand only
            eviction_interval=10.0,       # TTL reaper cadence
        )

        self.characteristics = CharacteristicsMap()
        self.metrics = MetricsRegistry(clock=lambda: env.now)
        # The shared stage contract: same context type, stage names and
        # terminal path as the Ilúvatar worker's pipeline, OpenWhisk
        # semantics.
        self.lifecycle = StageTracker(env, self.name, self.metrics)
        self.registrations: dict[str, FunctionRegistration] = {}
        self.inflight = 0          # activations inside the pipeline
        self.executing = 0         # activations actually on-CPU
        self.kafka_backlog = 0
        self._started = False

    # ---------------------------------------------------------------- API
    def start(self) -> None:
        if self._started:
            raise RuntimeError("worker already started")
        self._started = True
        self.env.process(self.gc.collector(), name=f"{self.name}-gc")
        self.env.process(self.pool.evictor(), name=f"{self.name}-ttl-reaper")

    def stop(self) -> None:
        self.gc.stop()
        self.pool.stop()

    def register_sync(self, registration: FunctionRegistration) -> str:
        fqdn = registration.fqdn()
        if fqdn in self.registrations:
            raise DuplicateRegistration(fqdn)
        self.registrations[fqdn] = registration
        return fqdn

    def invoke(self, fqdn: str, args=None) -> Generator:
        done = self.async_invoke(fqdn, args)
        inv = yield done
        return inv

    def async_invoke(self, fqdn: str, args=None) -> Event:
        registration = self.registrations.get(fqdn)
        if registration is None:
            raise FunctionNotRegistered(fqdn)
        done = self.env.event()
        inv = Invocation(function=registration, arrival=self.env.now, args=args)
        self.env.process(self._pipeline(inv, done), name=f"ow-{inv.id}")
        return done

    # ------------------------------------------------------------ pipeline
    def _pipeline(self, inv: Invocation, done: Event) -> Generator:
        """Drive the shared stage sequence with OpenWhisk's components."""
        lc = self.lifecycle
        ctx = lc.open(inv, done)
        self.characteristics.record_arrival(inv.function.fqdn(), self.env.now)

        if not self._admit(ctx):
            self.lifecycle.drop(ctx, "activation buffer full")
            return

        self.inflight += 1
        try:
            yield from self._frontend(ctx)
            ok = yield from self._acquire(ctx)
            if not ok:
                return
            yield from self._execute(ctx)
            yield from self._complete(ctx)
        finally:
            self.inflight -= 1

    def _admit(self, ctx: InvocationContext) -> bool:
        """Admit stage: the bounded activation buffer is the only gate."""
        lc = self.lifecycle
        lc.stage_enter(ctx, ADMIT)
        admitted = self.inflight < self.config.buffer_max
        lc.stage_exit(ctx, ADMIT)
        return admitted

    def _frontend(self, ctx: InvocationContext) -> Generator:
        """Enqueue stage: NGINX → controller → the shared Kafka queue.

        OpenWhisk's "queue" is this front-end pipeline; ``enqueued_at`` is
        the moment the activation reaches the invoker.
        """
        lc = self.lifecycle
        lc.stage_enter(ctx, ENQUEUE)
        yield self.env.timeout(self.nginx.latency(self.rng))
        yield from self.gc.stall()
        yield self.env.timeout(self.controller.latency(self.rng, self.inflight))

        # Shared Kafka queue (controller -> invoker).
        self.kafka_backlog += 1
        try:
            yield self.env.timeout(
                self.kafka.latency(self.rng, self.kafka_backlog)
            )
        finally:
            self.kafka_backlog -= 1
        yield from self.gc.stall()
        ctx.inv.enqueued_at = self.env.now
        lc.stage_exit(ctx, ENQUEUE)

    def _acquire(self, ctx: InvocationContext) -> Generator:
        """Acquire + warm/cold_create stages: admission by memory only
        (CPU is overcommitted).  False when the invocation was shed."""
        cfg = self.config
        lc = self.lifecycle
        inv = ctx.inv
        lc.stage_enter(ctx, ACQUIRE)
        ctx.entry = self.pool.try_acquire(inv.function.fqdn())
        lc.stage_exit(ctx, ACQUIRE)
        if ctx.entry is not None:
            # Warm reuse costs OpenWhisk nothing beyond the front end.
            lc.stage_enter(ctx, WARM)
            inv.cold = False
            lc.stage_exit(ctx, WARM)
        else:
            inv.cold = True
            lc.stage_enter(ctx, COLD_CREATE)
            took = yield from self.pool.take_memory(
                inv.function.memory_mb, cfg.memory_wait_timeout
            )
            if not took:
                lc.stage_exit(ctx, COLD_CREATE)
                lc.drop(ctx, "insufficient memory")
                return False
            # Docker container create (no namespace pool, no reuse).
            create = cfg.container_create_mean
            yield self.env.timeout(
                create + float(self.rng.exponential(0.15 * create))
            )
            container = yield from self.backend.create(inv.function)
            ctx.entry = self.pool.add_in_use(
                container, init_cost=inv.function.init_time
            )
            lc.stage_exit(ctx, COLD_CREATE)
        inv.dispatched_at = self.env.now
        return True

    def _execute(self, ctx: InvocationContext) -> Generator:
        """Execute stage, with processor-sharing stretch under overcommit
        (OpenWhisk has no concurrency regulation: when more activations
        execute than there are cores, everyone slows)."""
        cfg = self.config
        lc = self.lifecycle
        inv = ctx.inv
        lc.stage_enter(ctx, EXECUTE)
        base_exec = inv.function.cold_time if inv.cold else inv.function.warm_time
        ctx.exec_time = base_exec
        self.executing += 1
        try:
            stretch = 1.0
            if cfg.enable_cpu_stretch:
                stretch = max(1.0, self.executing / cfg.cores)
            exec_time = base_exec * stretch
            inv.exec_started_at = self.env.now
            yield self.env.process(
                self.backend.invoke(ctx.entry.container, exec_time)
            )
        finally:
            self.executing -= 1
        inv.exec_finished_at = inv.exec_started_at + base_exec
        # (overhead accounting treats the stretch beyond the base
        # execution as control-plane-induced slowdown, which is how
        # the paper's "overhead" subtraction observes it too)
        lc.stage_exit(ctx, EXECUTE)

    def _complete(self, ctx: InvocationContext) -> Generator:
        """Complete stage: container back to the pool, then the CouchDB
        result write on the critical path."""
        lc = self.lifecycle
        inv = ctx.inv
        lc.stage_enter(ctx, COMPLETE)
        self.pool.return_entry(ctx.entry)
        ctx.entry = None

        yield from self.gc.stall()
        yield self.env.timeout(
            self.couchdb.write_latency(self.rng, self.inflight)
        )

        inv.completed_at = self.env.now
        self.characteristics.record_execution(
            inv.function.fqdn(), ctx.exec_time, inv.cold
        )
        lc.finish(ctx, COMPLETE, Outcome.COLD if inv.cold else Outcome.WARM)

    # -------------------------------------------------------------- status
    @property
    def dropped(self) -> int:
        """Activations shed (buffer full / memory), as recorded."""
        return self.metrics.count("invocations.dropped")

    def status(self) -> dict:
        return {
            "name": self.name,
            "inflight": self.inflight,
            "executing": self.executing,
            "kafka_backlog": self.kafka_backlog,
            "free_memory_mb": self.memory.level,
            "warm_containers": self.pool.available_count(),
            "dropped": self.dropped,
            "gc_pauses": self.gc.pauses,
        }
