"""The Ilúvatar worker (Sections 3 and 4).

Worker-centric control plane for one server: it owns registration, the
per-worker invocation queue with its concurrency regulator and bypass, the
warm-container pool with background keep-alive eviction, the namespace and
HTTP-client caches, and all metrics.  The API mirrors the paper's —
``register``, ``invoke``, ``async_invoke``, ``prewarm`` — and is identical
whether the worker runs under a load balancer or standalone.

The per-invocation control flow lives in
:class:`repro.core.lifecycle.InvocationLifecycle` as an explicit stage
pipeline (``admit → enqueue → dispatch → acquire → (warm | cold_create) →
execute → complete/drop/timeout``); this module keeps the public API, the
background processes, and the wiring that assembles the subsystems the
pipeline drives.  Every control-plane component *spends* its latency as a
DES timeout (means from paper Table 2 with a small exponential tail), so
measured component intervals and end-to-end overheads are consistent
with the paper's warm-path numbers by construction, while queueing and
cold-start behaviour emerge from the actual control flow.
"""

from __future__ import annotations

from functools import partial
from typing import Generator, Optional

import numpy as np

from ..containers.agent import HttpClientPool
from ..containers.backends import make_backend
from ..containers.base import ContainerBackend
from ..containers.image import ImageRegistry
from ..containers.namespace_pool import NamespacePool
from ..containers.snapshots import SnapshotStore
from ..errors import DuplicateRegistration, FunctionNotRegistered
from ..keepalive.policies import make_policy
from ..metrics.energy import EnergyMonitor
from ..metrics.registry import MetricsRegistry
from ..queueing.bypass import NoBypass, ShortFunctionBypass
from ..queueing.policies import make_queue_policy
from ..queueing.regulator import AIMDConfig, ConcurrencyRegulator, LoadTracker
from ..sim.core import Environment, Event
from ..sim.resources import Gauge, PriorityStore
from .characteristics import CharacteristicsMap
from .config import WorkerConfig
from .container_pool import ContainerPool
from .function import FunctionRegistration, Invocation
from .lifecycle import InvocationLifecycle
from .results import AsyncResult, ResultStore

__all__ = ["Worker"]


class Worker:
    """A single Ilúvatar worker on a DES environment."""

    def __init__(
        self,
        env: Environment,
        config: Optional[WorkerConfig] = None,
        backend: Optional[ContainerBackend] = None,
        registry: Optional[ImageRegistry] = None,
    ):
        self.env = env
        self.config = config or WorkerConfig()
        cfg = self.config
        self.rng = np.random.default_rng(cfg.seed)
        self.name = cfg.name

        self.backend = backend or make_backend(cfg.backend, env)
        self.image_registry = registry or ImageRegistry(env)

        self.characteristics = CharacteristicsMap()
        # partial(getattr, env, "now") is a C-level clock callable — no
        # Python frame per sample.  One callable is shared by every
        # clocked subsystem.
        clock = partial(getattr, env, "now")
        self.metrics = MetricsRegistry(clock=clock)
        # Simulated RAPL: integrates a linear power model over busy cores
        # (Section 5.1's self-contained system monitoring).
        self.energy = EnergyMonitor(clock=clock)

        self.memory = Gauge(env, capacity=cfg.memory_mb)
        self.keepalive_policy = make_policy(cfg.keepalive_policy)
        self.pool = ContainerPool(
            env,
            self.backend,
            self.keepalive_policy,
            self.memory,
            free_buffer_mb=cfg.free_memory_buffer_mb,
            eviction_interval=cfg.eviction_interval,
        )

        self.load = LoadTracker(cores=cfg.cores, interval=cfg.load_sample_interval)
        aimd = AIMDConfig(max_limit=4 * cfg.cores) if cfg.dynamic_concurrency else None
        self.regulator = ConcurrencyRegulator(
            env, cfg.effective_concurrency, load=self.load, aimd=aimd
        )

        self.queue = PriorityStore(env)
        self.queue_policy = make_queue_policy(cfg.queue_policy, self.characteristics)
        if cfg.bypass_enabled:
            self.bypass = ShortFunctionBypass(
                self.characteristics,
                self.load,
                duration_threshold=cfg.bypass_duration,
                load_limit=cfg.bypass_load_limit,
            )
        else:
            self.bypass = NoBypass()

        self.namespaces = NamespacePool(
            env,
            target_size=cfg.namespace_pool_size,
            enabled=cfg.namespace_pool_enabled,
        )
        self.http_clients = HttpClientPool(enabled=cfg.http_client_cache_enabled)
        self.snapshots = SnapshotStore(enabled=cfg.snapshots_enabled)

        self.registrations: dict[str, FunctionRegistration] = {}
        self.results = ResultStore(clock=clock)
        self._started = False
        # The invocation path itself: built last, over the assembled
        # subsystems.
        self.lifecycle = InvocationLifecycle(self)

    # ------------------------------------------------------------------ life
    def start(self) -> None:
        """Launch the worker's background processes."""
        if self._started:
            raise RuntimeError("worker already started")
        self._started = True
        self.env.process(self.pool.evictor(), name=f"{self.name}-evictor")
        self.env.process(self.load.sampler(self.env), name=f"{self.name}-loadavg")
        self.env.process(self._dispatcher(), name=f"{self.name}-dispatcher")
        if self.config.namespace_pool_enabled:
            self.env.process(self.namespaces.refiller(), name=f"{self.name}-netns")
        if self.config.dynamic_concurrency:
            self.env.process(self.regulator.controller(), name=f"{self.name}-aimd")

    def stop(self) -> None:
        self.pool.stop()
        self.namespaces.stop()
        self.regulator.stop()

    # ------------------------------------------------------------------ API
    def register(self, registration: FunctionRegistration) -> Generator:
        """DES process: register a function (image pull is out-of-band)."""
        fqdn = registration.fqdn()
        if fqdn in self.registrations:
            raise DuplicateRegistration(fqdn)
        yield self.env.process(
            self.image_registry.pull(registration.image)
        )
        self.registrations[fqdn] = registration
        return fqdn

    def register_sync(self, registration: FunctionRegistration) -> str:
        """Register without modelling the image pull (tests/experiments)."""
        fqdn = registration.fqdn()
        if fqdn in self.registrations:
            raise DuplicateRegistration(fqdn)
        self.registrations[fqdn] = registration
        return fqdn

    def prewarm(self, fqdn: str) -> Generator:
        """DES process: start a container + agent and add it to the pool."""
        registration = self._lookup(fqdn)
        took = yield from self.lifecycle.take_memory(registration.memory_mb)
        if not took:
            return False
        entry = yield from self.lifecycle.create_container(
            registration, prewarmed=True
        )
        self.pool.return_entry(entry)
        return True

    def invoke(self, fqdn: str, args=None) -> Generator:
        """DES process: synchronous invocation; returns the Invocation."""
        done = self.async_invoke(fqdn, args)
        inv = yield done
        return inv

    def async_invoke(
        self, fqdn: str, args=None, *, invocation_id: Optional[int] = None,
        offered_at: Optional[float] = None,
    ) -> Event:
        """Fire an invocation; returns an event that succeeds with the
        completed :class:`Invocation` (dropped invocations also complete,
        with ``dropped=True``).

        ``invocation_id`` presets the id instead of drawing from the
        process-global counter — push clusters (serial and sharded) pass
        the placement ordinal and pull clusters the claim ordinal, so a
        repeated run reproduces its ids; standalone callers leave it
        unset.

        ``offered_at`` marks a pull-dispatch claim: the invocation was
        offered to the cluster queue at that (earlier) time, so it becomes
        the arrival — end-to-end latency then charges the claim wait to
        the control plane, and the lifecycle attributes it as an explicit
        ``claim_wait`` interval.
        """
        registration = self._lookup(fqdn)
        done = self.env.event()
        arrival = self.env.now if offered_at is None else offered_at
        if invocation_id is None:
            inv = Invocation(function=registration, arrival=arrival, args=args)
        else:
            inv = Invocation(
                function=registration,
                arrival=arrival,
                args=args,
                id=invocation_id,
            )
        if offered_at is not None:
            inv.offered_at = offered_at
            inv.claimed_at = self.env.now
        self.env.process(
            self.lifecycle.ingest(inv, done), name=f"ingest-{inv.id}"
        )
        return done

    def async_invoke_cookie(self, fqdn: str, args=None) -> str:
        """The paper's async API: fire and return a cookie immediately;
        poll :meth:`check_async_invocation` for the result."""
        cookie = self.results.register()
        done = self.async_invoke(fqdn, args)
        done.callbacks.append(
            lambda event: self.results.complete(cookie, event.value)
        )
        return cookie

    def check_async_invocation(self, cookie: str, collect: bool = True) -> AsyncResult:
        """Poll an async cookie; DONE results are collected (one-shot)."""
        return self.results.check(cookie, collect=collect)

    def _lookup(self, fqdn: str) -> FunctionRegistration:
        registration = self.registrations.get(fqdn)
        if registration is None:
            raise FunctionNotRegistered(fqdn)
        return registration

    # ------------------------------------------------------------- pipeline
    def _dispatcher(self) -> Generator:
        """The queue-monitor thread: regulator-gated dispatch loop.

        Pops the next :class:`~repro.core.lifecycle.InvocationContext`
        once the regulator grants a token, then hands it to the
        lifecycle's dispatched half in a fresh handler process.
        """
        while True:
            token = self.regulator.tokens.request()
            yield token
            ctx = yield self.queue.get()
            ctx.token = token
            ctx.inv.dispatched_at = self.env.now
            self.queue_policy.on_dispatch(ctx.inv)
            self.env.process(
                self.lifecycle.handle(ctx), name=f"handler-{ctx.inv.id}"
            )

    # ---------------------------------------------------------- telemetry
    def attach_telemetry(self, telemetry) -> None:
        """Register this worker with a :class:`repro.telemetry.Telemetry`
        pipeline (gauge sampling, latency histograms, span retention).
        Equivalent to ``telemetry.attach_worker(self)``."""
        telemetry.attach_worker(self)

    # ------------------------------------------------------------- status
    @property
    def dropped(self) -> int:
        """Invocations shed (admission / overflow); counted by the pipeline."""
        return self.lifecycle.dropped

    @property
    def timeouts(self) -> int:
        """Invocations killed at their execution limit."""
        return self.lifecycle.timeouts

    def status(self) -> dict:
        """Load/status snapshot, as served to the load balancer."""
        return {
            "name": self.name,
            "queue_length": len(self.queue),
            "running": self.load.running,
            "loadavg": self.load.loadavg,
            "normalized_load": self.load.normalized,
            "concurrency_limit": self.regulator.limit,
            "free_memory_mb": self.memory.level,
            "warm_containers": self.pool.available_count(),
            "dropped": self.dropped,
            "timeouts": self.timeouts,
            "async_pending": self.results.pending_count,
            "energy_joules": self.energy.joules,
        }
