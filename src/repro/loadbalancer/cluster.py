"""A cluster: several workers behind a pluggable dispatch policy.

The cluster front end exposes the same invocation surface as a single
worker (the worker API is deliberately a subset of the overall API, per
the paper), so experiments and load generators can target either.
Registrations are broadcast to every worker; placement is per-invocation.

The engine is chosen once, from the policy name.  Push policies (CH-BL,
round-robin, least-loaded) place through the
:class:`~repro.loadbalancer.frontend.PushFrontEnd` — the same placement
core the cluster-shard coordinator drives, so a serial run is the
in-process case of a sharded one: invocations are numbered by placement
ordinal, and an observed front end logs each placement at pick time.
Pull policies route through a :class:`~repro.dispatch.engine.PullEngine`
whose per-worker claim loops drain a shared logical queue.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.config import WorkerConfig
from ..core.function import FunctionRegistration
from ..core.worker import Worker
from ..dispatch import PullEngine, is_pull_policy, make_dispatch
from ..errors import FunctionNotRegistered
from ..sim.core import Environment, Event
from .frontend import PushFrontEnd, load_signal, start_forward

__all__ = ["Cluster"]


class Cluster:
    """A load-balanced pool of Ilúvatar workers (CH-BL by default).

    ``lb_policy`` selects the dispatch scheme: push ("ch_bl",
    "round_robin", "least_loaded") or pull ("pull", "pull_local");
    ``status_interval`` makes push load decisions act on periodic status
    snapshots instead of live state (None = live); ``claim_latency`` is
    the pull queue round-trip cost (None = reuse ``rpc_latency``);
    ``worker_configs_override`` supplies explicit per-worker configs
    (heterogeneous clusters) in place of the ones derived from ``config``.
    """

    def __init__(
        self,
        env: Environment,
        num_workers: int = 2,
        config: Optional[WorkerConfig] = None,
        bound_factor: float = 1.2,
        rpc_latency: float = 0.0005,
        lb_policy: str = "ch_bl",
        status_interval: Optional[float] = None,
        claim_latency: Optional[float] = None,
        worker_configs_override: Optional[Sequence[WorkerConfig]] = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if rpc_latency < 0:
            raise ValueError("rpc_latency must be non-negative")
        self.env = env
        base = config or WorkerConfig()
        self.workers: dict[str, Worker] = {}
        cfgs = (list(worker_configs_override) if worker_configs_override
                else self.worker_configs(base, num_workers))
        for cfg in cfgs:
            self.workers[cfg.name] = Worker(env, cfg)
        self.rpc_latency = float(rpc_latency)
        # Exactly one of front (push) and _pull (pull) is set.
        self.front: Optional[PushFrontEnd] = None
        self._pull: Optional[PullEngine] = None
        if is_pull_policy(lb_policy):
            self.dispatch = make_dispatch(lb_policy, env=env,
                                          warm_fn=self._worker_warm)
            for name in self.workers:
                self.dispatch.add_worker(name)
            self._pull = PullEngine(
                env,
                self.workers,
                self.dispatch,
                claim_latency=(self.rpc_latency if claim_latency is None
                               else float(claim_latency)),
            )
            self.balancer = self.status_board = None
        else:
            self.front = PushFrontEnd(
                lb_policy,
                load_signal(self.workers),
                self.workers,
                bound_factor=bound_factor,
                status_interval=status_interval,
                rpc_latency=self.rpc_latency,
            )
            self.dispatch = None
            self.balancer = self.front.balancer
            self.status_board = self.front.status_board
        self.registrations: dict[str, FunctionRegistration] = {}

    @staticmethod
    def worker_configs(base: WorkerConfig, num_workers: int) -> list[WorkerConfig]:
        """The per-worker configs a cluster of ``num_workers`` derives from
        ``base``: index-suffixed names and consecutive seeds.  The cluster
        -shard engine builds each shard's workers from the same list, so a
        sharded cluster is worker-for-worker identical to this one."""
        return [
            base.with_overrides(name=f"{base.name}-{i}", seed=base.seed + i)
            for i in range(num_workers)
        ]

    def _worker_warm(self, name: str, fqdn: str) -> bool:
        return self.workers[name].pool.has_available(fqdn)

    @property
    def placements(self) -> int:
        """Invocations placed so far (picks on push, claims on pull)."""
        return (self.front or self._pull).placements

    # ---------------------------------------------------------------- API
    def start(self) -> None:
        for w in self.workers.values():
            w.start()
        if self._pull is not None:
            self._pull.start()

    def stop(self) -> None:
        for w in self.workers.values():
            w.stop()

    def register_sync(self, registration: FunctionRegistration) -> str:
        fqdn = registration.fqdn()
        self.registrations[fqdn] = registration
        for w in self.workers.values():
            if fqdn not in w.registrations:
                w.register_sync(registration)
        return fqdn

    def async_invoke(self, fqdn: str, args=None) -> Event:
        if fqdn not in self.registrations:
            raise FunctionNotRegistered(fqdn)
        front = self.front
        if front is None:
            return self._pull.submit(fqdn, args)
        env = self.env
        t = env.now
        target = front.place(fqdn, t)
        k = front.placements
        worker = self.workers[target]
        if self.rpc_latency <= 0:
            return worker.async_invoke(fqdn, args, invocation_id=k)
        # Model the LB->worker RPC hop without blocking the caller.
        return start_forward(env, self.rpc_latency, worker, fqdn, args, k)

    def invoke(self, fqdn: str, args=None):
        done = self.async_invoke(fqdn, args)
        inv = yield done
        return inv

    # ----------------------------------------------------------- telemetry
    def attach_telemetry(self, telemetry) -> None:
        """Register the whole cluster with a :class:`repro.telemetry.Telemetry`
        pipeline: every worker's gauges are sampled, the status board
        publishes its load snapshots into the sampler, and the front end
        logs its placements.  Equivalent to
        ``telemetry.attach_cluster(self)``."""
        telemetry.attach_cluster(self)

    def dispatch_info(self) -> dict:
        """Summary-stable description of the active dispatch policy."""
        if self.front is not None:
            return self.front.info()
        return {"policy": self.dispatch.name, "kind": "pull",
                "claim_latency": self._pull.claim_latency}

    # -------------------------------------------------------------- status
    def status(self) -> dict:
        return {
            "workers": {name: w.status() for name, w in self.workers.items()},
            "policy": self.dispatch_info()["policy"],
            "forwards": getattr(self.balancer, "forwards", 0),
            "placements": self.placements,
        }

    def records(self) -> list:
        out = []
        for w in self.workers.values():
            out.extend(w.metrics.records)
        return out
