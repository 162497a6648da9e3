"""The explicit invocation-lifecycle pipeline (the control plane's spine).

The paper's Table 2 describes an invocation as a fixed sequence of
control-plane steps; this module makes that sequence a first-class
pipeline instead of control flow buried inside one worker method:

    admit -> enqueue -> dispatch -> acquire -> (warm | cold_create)
          -> execute -> complete / drop / timeout

Two pieces make up the seam:

* :class:`InvocationContext` — one invocation's full control-plane state:
  the invocation (and through it the registration), the completion event,
  the container entry, per-stage enter/exit timestamps, the component
  intervals telemetry decomposes, and the final outcome or drop reason.
  Stage times are two flat ``{stage: float}`` dicts, which the cyclic
  GC does not track, and the component intervals one flat list,
  ``[name, start, end, name, start, end, ...]`` in recording order, so
  a run that retains every context for export does not grow the GC's
  work by a container per stage or per interval.
* :class:`InvocationLifecycle` — the worker's stages as named units with
  a uniform enter/exit contract.  Each stage spends its component
  latencies as DES timeouts, exactly as the worker's previous inlined
  control flow did: the pipeline is behaviour-preserving by
  construction, pinned bit-for-bit by the determinism suites and the
  golden A/B fixture under ``tests/data/``.

:class:`StageTracker` is the substrate the OpenWhisk baseline shares: it
owns the context store, the enter/exit contract and the terminal
:meth:`~StageTracker.finish` / :meth:`~StageTracker.drop`, which write
every invocation record, while the baseline keeps its own latency
components and queueing semantics.

Hot-path discipline: each component is one line,
``yield self._spend(ctx, name)``, which draws the component's latency
and returns its timeout.  It is neither a ``_spend`` sub-generator
(``yield from``), which costs a generator per component per invocation,
nor a timeout held in a local across the yield, which the kernel cannot
recycle (it recycles a timeout only when nothing else references it).
Container operations — backend create, restore and destroy — are
sub-generators of the invoking process (``yield from``), never helper
processes: a null-backend operation that costs no time then costs no
calendar entry either, as the paper's in-situ simulation makes it a
plain sleep (§3.4).  So is the backend call of a function without an
execution limit; only a limit needs the call as a process of its own,
which the kill can interrupt while the invocation waits on the call or
the limit.  Stage stamps and per-invocation interval collection cost one
attribute test unless telemetry attached; a collecting context's
component interval is recorded by a callback on its timeout, when it
fires.  The context ``intervals`` are the only per-invocation record of
component timing: spans, phase breakdowns, trace trees and Table 2 are
all derived from them (trace trees together with the stage times), and
:data:`COMPONENT_STAGE` names the stage that owns each of them.
"""

from __future__ import annotations

from typing import Generator, Iterator, Optional, Sequence

from ..keepalive.policies import HistogramPolicy
from ..metrics.registry import InvocationRecord, Outcome
from ..sim.core import Event, Timeout
from .function import FunctionRegistration, Invocation

__all__ = [
    "ADMIT",
    "ENQUEUE",
    "DISPATCH",
    "ACQUIRE",
    "WARM",
    "COLD_CREATE",
    "EXECUTE",
    "COMPLETE",
    "DROP",
    "TIMEOUT",
    "STAGES",
    "COMPONENT_STAGE",
    "interval_triples",
    "InvocationContext",
    "StageTracker",
    "InvocationLifecycle",
]

# Stage names, in pipeline order.  ``warm`` and ``cold_create`` are the
# two branches of container acquisition; ``complete``/``drop``/``timeout``
# are the three terminal stages.
ADMIT = "admit"
ENQUEUE = "enqueue"
DISPATCH = "dispatch"
ACQUIRE = "acquire"
WARM = "warm"
COLD_CREATE = "cold_create"
EXECUTE = "execute"
COMPLETE = "complete"
DROP = "drop"
TIMEOUT = "timeout"

STAGES = (
    ADMIT,
    ENQUEUE,
    DISPATCH,
    ACQUIRE,
    WARM,
    COLD_CREATE,
    EXECUTE,
    COMPLETE,
    DROP,
    TIMEOUT,
)

# The stage that owns each component interval, in paper Table 2 order
# (``http_client_create`` and the execution window ``exec`` are not
# Table 2 rows).  The one statement of which stage spends what: trace
# trees parent component events on it, and the phase decomposition and
# Table 2's groups are read off the owning stage.  The latency profile
# names its components the same way (see _spend).
COMPONENT_STAGE: dict[str, str] = {
    "invoke": ADMIT,
    "sync_invoke": ADMIT,
    "enqueue_invocation": ENQUEUE,
    "add_item_to_q": ENQUEUE,
    "spawn_worker": DISPATCH,
    "dequeue": DISPATCH,
    "acquire_container": ACQUIRE,
    "try_lock_container": WARM,
    "cold_create": COLD_CREATE,
    "prepare_invoke": EXECUTE,
    "http_client_create": EXECUTE,
    "exec": EXECUTE,
    "call_container": EXECUTE,
    "download_result": EXECUTE,
    "return_container": COMPLETE,
    "return_results": COMPLETE,
}


def interval_triples(intervals: Sequence) -> Iterator[tuple]:
    """The ``(name, start, end)`` triples of a flat interval list, in
    recording order."""
    it = iter(intervals)
    return zip(it, it, it)


class InvocationContext:
    """One invocation's state as it travels the stage pipeline.

    Carries the :class:`~repro.core.function.Invocation` (and through it
    the registration and its accumulating timestamps), the completion
    event, the regulator token and container entry currently held, the
    per-stage ``entered``/``exited`` times and the component
    ``intervals`` telemetry decomposes (one flat ``[name, start, end,
    ...]`` list; all stamped only while contexts are collected, i.e.
    when a :class:`~repro.telemetry.Telemetry` pipeline attached), and
    the terminal ``outcome``.
    """

    __slots__ = (
        "inv",
        "done",
        "collect",
        "token",
        "entry",
        "stage",
        "entered",
        "exited",
        "intervals",
        "warm_available",
        "exec_time",
        "outcome",
    )

    def __init__(
        self,
        inv: Invocation,
        done: Event,
        collect: bool = False,
    ):
        self.inv = inv
        self.done = done
        self.collect = collect
        self.token = None
        self.entry = None
        self.stage: Optional[str] = None
        self.entered: Optional[dict] = {} if collect else None
        self.exited: Optional[dict] = {} if collect else None
        self.intervals: Optional[list] = [] if collect else None
        self.warm_available = False
        self.exec_time: Optional[float] = None
        self.outcome: Optional[Outcome] = None

    @property
    def stage_times(self) -> Optional[dict]:
        """``{stage: [t0, t1|None]}`` in stage-enter order (``t1`` is
        ``None`` for a stage not yet exited); ``None`` unless collected.
        A fresh dict per read: the context stores the flat times."""
        if not self.collect:
            return None
        exited = self.exited
        return {stage: [t0, exited.get(stage)]
                for stage, t0 in self.entered.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InvocationContext(id={self.inv.id}, "
            f"function={self.inv.function.fqdn()!r}, stage={self.stage!r}, "
            f"outcome={self.outcome})"
        )


class StageTracker:
    """The uniform stage enter/exit contract, the context store and the
    one way an invocation ends.

    Shared by the worker's :class:`InvocationLifecycle` and the OpenWhisk
    baseline: both stamp stage boundaries through :meth:`stage_enter` /
    :meth:`stage_exit`, end every invocation through :meth:`finish` (or
    :meth:`drop`, which ends in it), and retain every opened context for
    telemetry when ``keep_contexts`` is set (flipped by
    ``Telemetry.attach_worker``).  ``name`` labels the records and
    ``metrics`` receives them; drop and timeout counts are read back
    from ``metrics``.
    """

    def __init__(self, env, name: str, metrics):
        self.env = env
        self.name = name
        self.metrics = metrics
        self.keep_contexts = False
        self.contexts: list[InvocationContext] = []
        # Dispatch-layer completion seam: when a pull engine drives this
        # tracker it registers itself here and finish() notifies it for
        # *every* terminal outcome — complete, drop, and timeout — so
        # claim slots can never leak.
        self.dispatch_seam = None

    def open(self, inv: Invocation, done: Event) -> InvocationContext:
        """A new context; retained from here on when ``keep_contexts`` is
        set, so an invocation still in flight when the run stops keeps
        the component intervals it finished."""
        ctx = InvocationContext(inv, done, collect=self.keep_contexts)
        if ctx.collect:
            self.contexts.append(ctx)
        return ctx

    def stage_enter(self, ctx: InvocationContext, stage: str) -> None:
        ctx.stage = stage
        if ctx.collect:
            ctx.entered[stage] = self.env.now

    def stage_exit(self, ctx: InvocationContext, stage: str) -> None:
        if ctx.collect:
            ctx.exited[stage] = self.env.now

    def finish(self, ctx: InvocationContext, stage: str, outcome: Outcome) -> None:
        """End terminal ``stage``: record the invocation (a dropped one
        carries no times), exit the stage, set the outcome, notify the
        dispatch seam and succeed ``ctx.done``."""
        inv = ctx.inv
        if outcome is Outcome.DROPPED:
            times = ()
        else:
            times = (inv.exec_time, inv.e2e_time, inv.queue_time,
                     inv.overhead, inv.cold)
        self.metrics.record_invocation(InvocationRecord(
            inv.function.fqdn(), inv.arrival, outcome, *times,
            worker=self.name, invocation_id=inv.id,
        ))
        self.stage_exit(ctx, stage)
        ctx.outcome = outcome
        seam = self.dispatch_seam
        if seam is not None:
            seam.on_complete(ctx)
        ctx.done.succeed(inv)

    def drop(self, ctx: InvocationContext, reason: str) -> None:
        """Terminal stage: shed the invocation (admission / overflow /
        memory)."""
        inv = ctx.inv
        self.stage_enter(ctx, DROP)
        inv.dropped = True
        inv.drop_reason = reason
        inv.completed_at = self.env.now
        self.finish(ctx, DROP, Outcome.DROPPED)


class InvocationLifecycle(StageTracker):
    """The Ilúvatar worker's invocation path as explicit stages.

    Owns everything between ``async_invoke`` handing over an
    :class:`~repro.core.function.Invocation` and the completion event
    succeeding: component latencies (means from paper Table 2 with a
    batched exponential tail), interval collection, metrics/characteristics
    recording at stage boundaries, container creation, and the
    complete/timeout terminal stages.  The worker keeps only the
    background processes (dispatcher, evictor, samplers) and the public
    API.
    """

    def __init__(self, worker):
        cfg = worker.config
        super().__init__(worker.env, cfg.name, worker.metrics)
        self.worker = worker
        # Stable aliases for the per-invocation path (all of these live as
        # long as the worker; telemetry flips switches on the aliased
        # objects, never replaces them).
        self.config = cfg
        self.latency = cfg.latency
        self.characteristics = worker.characteristics
        self.pool = worker.pool
        self.queue = worker.queue
        self.queue_policy = worker.queue_policy
        self.bypass = worker.bypass
        self.load = worker.load
        self.energy = worker.energy
        self.http_clients = worker.http_clients
        self.backend = worker.backend
        self._histogram_keepalive = isinstance(
            worker.keepalive_policy, HistogramPolicy
        )
        # Jitter draws are batched: standard exponentials are drawn 256 at
        # a time and scaled per use, which is bit-identical to per-call
        # rng.exponential(scale) (numpy computes standard_exp * scale from
        # the same stream) at a fraction of the per-draw cost.  Safe only
        # because the worker's rng has no other consumer.
        self.rng = worker.rng
        self._jitter_fraction = cfg.latency.jitter_fraction
        self._jitter_buf: list[float] = []
        self._jitter_i = 0
        # The one callback that records a collecting context's intervals
        # (see _spend), bound once instead of per component.
        self._record = self._record_interval

    # ------------------------------------------------------------------ util
    def _spend(self, ctx: InvocationContext, name: str) -> Timeout:
        """The timeout that spends component ``name``: its base on the
        latency profile plus an exponential tail (no draw for a zero
        base).  A collecting context's interval is recorded when the
        timeout fires, ahead of the process it resumes, so a run cut
        mid-component keeps only the components that finished."""
        cost = getattr(self.latency, name)
        if cost > 0:
            frac = self._jitter_fraction
            if frac > 0:
                i = self._jitter_i
                buf = self._jitter_buf
                if i >= len(buf):
                    buf = self._jitter_buf = self.rng.standard_exponential(256).tolist()
                    i = 0
                self._jitter_i = i + 1
                cost += frac * cost * buf[i]
        env = self.env
        if not ctx.collect:
            return env.timeout(cost)
        spend = env.timeout(cost, (ctx.intervals, name, env.now))
        spend.callbacks.append(self._record)
        return spend

    def _record_interval(self, spend: Timeout) -> None:
        intervals, name, start = spend.value
        intervals.extend((name, start, self.env.now))

    # -------------------------------------------------------------- drivers
    def ingest(self, inv: Invocation, done: Event) -> Generator:
        """DES process: admit, then bypass-execute or enqueue."""
        ctx = self.open(inv, done)
        if (yield from self.admit(ctx)):
            ctx.inv.bypassed = True
            self.metrics.incr("queue.bypassed")
            yield from self.run(ctx)
            return
        yield from self.enqueue(ctx)

    def handle(self, ctx: InvocationContext) -> Generator:
        """DES process: the dispatched half — dispatch, then run."""
        yield from self.dispatch(ctx)
        yield from self.run(ctx)

    def run(self, ctx: InvocationContext) -> Generator:
        """Acquire a container, run the function, return everything.

        The composite over ``acquire -> (warm | cold_create) -> execute ->
        complete``; drop and timeout short-circuit out of it.  The
        ``finally`` block guarantees the regulator token and any claimed
        container are returned on every path.
        """
        w = self.worker
        self.load.on_start()
        self.energy.update(self.load.busy_cores)
        try:
            ok = yield from self.acquire(ctx)
            if not ok:
                return
            timed_out = yield from self.execute(ctx)
            if timed_out:
                return
            yield from self.complete(ctx)
        finally:
            self.load.on_finish()
            self.energy.update(self.load.busy_cores)
            if ctx.token is not None:
                w.regulator.tokens.release(ctx.token)
                ctx.token = None
            if ctx.entry is not None:
                # Failure path: never leak a claimed container.
                self.pool.drop_in_use(ctx.entry)

    # --------------------------------------------------------------- stages
    def admit(self, ctx: InvocationContext) -> Generator:
        """API handling and the bypass decision; True to bypass the queue.

        Each component is one ``yield self._spend(ctx, name)``: the
        stage yields the timeout itself, because a ``_spend``
        sub-generator costs a generator per component per invocation,
        and a timeout held in a local across the yield cannot be
        recycled by the kernel.
        """
        inv = ctx.inv
        self.stage_enter(ctx, ADMIT)
        if ctx.collect and inv.offered_at is not None:
            # Pull dispatch: the wait between the offer landing on the
            # shared queue and a worker claiming it is control-plane
            # time — surface it as its own interval so the overhead
            # decomposition can attribute it (a "claim_wait" phase).
            ctx.intervals.extend(("claim_wait", inv.offered_at, inv.claimed_at))
        yield self._spend(ctx, "invoke")
        yield self._spend(ctx, "sync_invoke")

        now = self.env.now
        fqdn = inv.function.fqdn()
        self.characteristics.record_arrival(fqdn, now)
        if self._histogram_keepalive:
            self.worker.keepalive_policy.record_arrival(fqdn, now)

        ctx.warm_available = warm_available = self.pool.has_available(fqdn)
        decision = self.bypass.should_bypass(inv, warm_available)
        self.stage_exit(ctx, ADMIT)
        return decision

    def enqueue(self, ctx: InvocationContext) -> Generator:
        """Queue insertion: priority assignment and the admission check."""
        inv = ctx.inv
        self.stage_enter(ctx, ENQUEUE)
        yield self._spend(ctx, "enqueue_invocation")
        priority = self.queue_policy.priority(inv, ctx.warm_available)
        inv.enqueued_at = self.env.now
        yield self._spend(ctx, "add_item_to_q")
        # Admission check at the moment of insertion, so concurrent
        # ingests observe the queue they are actually joining.
        max_len = self.config.queue_max_len
        if max_len is not None and len(self.queue) >= max_len:
            self.stage_exit(ctx, ENQUEUE)
            self.drop(ctx, "queue overflow")
            return
        yield self.queue.put(ctx, priority=priority)
        self.stage_exit(ctx, ENQUEUE)

    def dispatch(self, ctx: InvocationContext) -> Generator:
        """The dispatched invocation's handoff to a handler process."""
        self.stage_enter(ctx, DISPATCH)
        yield self._spend(ctx, "dequeue")
        yield self._spend(ctx, "spawn_worker")
        self.stage_exit(ctx, DISPATCH)

    def acquire(self, ctx: InvocationContext) -> Generator:
        """Container acquisition; False when the cold path shed the
        invocation (the only way acquisition fails)."""
        self.stage_enter(ctx, ACQUIRE)
        yield self._spend(ctx, "acquire_container")
        ctx.entry = self.pool.try_acquire(ctx.inv.function.fqdn())
        self.stage_exit(ctx, ACQUIRE)
        if ctx.entry is not None:
            yield from self.warm(ctx)
            return True
        return (yield from self.cold_create(ctx))

    def warm(self, ctx: InvocationContext) -> Generator:
        """Warm branch: lock the already-running container."""
        self.stage_enter(ctx, WARM)
        yield self._spend(ctx, "try_lock_container")
        ctx.inv.cold = False
        self.stage_exit(ctx, WARM)

    def cold_create(self, ctx: InvocationContext) -> Generator:
        """Cold branch: memory admission + sandbox creation — the whole
        cold-path detour the warm path skips.  False when the invocation
        was shed waiting for memory."""
        env = self.env
        inv = ctx.inv
        collect = ctx.collect
        inv.cold = True
        self.stage_enter(ctx, COLD_CREATE)

        if collect:
            start = env.now
        took = yield from self.pool.take_memory(
            inv.function.memory_mb, self.config.memory_wait_timeout
        )
        if not took:
            if collect:
                ctx.intervals.extend(("cold_create", start, env.now))
            self.stage_exit(ctx, COLD_CREATE)
            self.drop(ctx, "insufficient memory")
            return False
        ctx.entry = yield from self.create_container(inv.function)
        if collect:
            ctx.intervals.extend(("cold_create", start, env.now))
        self.stage_exit(ctx, COLD_CREATE)
        return True

    def execute(self, ctx: InvocationContext) -> Generator:
        """Agent communication around the execution window; True when the
        invocation exceeded its execution limit (timeout stage taken)."""
        env = self.env
        inv = ctx.inv
        collect = ctx.collect
        self.stage_enter(ctx, EXECUTE)
        yield self._spend(ctx, "prepare_invoke")

        conn_cost = self.http_clients.connection_cost(ctx.entry.container.id)
        if conn_cost > 0:
            yield env.timeout(conn_cost)
            if collect:
                ctx.intervals.extend(
                    ("http_client_create", env.now - conn_cost, env.now)
                )

        exec_time = (
            self.cold_exec_time(inv.function)
            if inv.cold
            else inv.function.warm_time
        )
        ctx.exec_time = exec_time
        inv.exec_started_at = env.now
        call_start = env.now
        limit = inv.function.timeout
        if limit is None:
            yield from self.backend.invoke(ctx.entry.container, exec_time)
        else:
            # Only a limit needs the call as a process of its own: the
            # kill interrupts it while this process waits on either.
            invoke_proc = env.process(
                self.backend.invoke(ctx.entry.container, exec_time)
            )
            timed_out = yield from self._await_with_timeout(invoke_proc, limit)
            if timed_out:
                # Kill the over-running invocation: the container is
                # destroyed (its state is unknown) and the caller gets
                # a timeout outcome.
                yield from self.timeout_kill(ctx)
                return True
        inv.exec_finished_at = inv.exec_started_at + exec_time
        if collect:
            # The execution window itself (the decomposition subtracts
            # function time exactly; Table 2 leaves it out), then the
            # HTTP overhead around it.
            comm = max(env.now - call_start - exec_time, 0.0)
            ctx.intervals.extend(("exec", call_start, call_start + exec_time,
                                  "call_container", env.now - comm, env.now))
        yield self._spend(ctx, "download_result")
        self.stage_exit(ctx, EXECUTE)
        return False

    def complete(self, ctx: InvocationContext) -> Generator:
        """Terminal stage: return the container to the pool and the
        results to the caller, record the invocation."""
        inv = ctx.inv
        self.stage_enter(ctx, COMPLETE)
        yield self._spend(ctx, "return_container")
        self.pool.return_entry(ctx.entry)
        ctx.entry = None
        yield self._spend(ctx, "return_results")
        inv.completed_at = self.env.now
        self.characteristics.record_execution(
            inv.function.fqdn(), ctx.exec_time, inv.cold
        )
        self.finish(ctx, COMPLETE, Outcome.BYPASSED if inv.bypassed else (
            Outcome.COLD if inv.cold else Outcome.WARM
        ))

    def timeout_kill(self, ctx: InvocationContext) -> Generator:
        """Terminal stage: terminate a timed-out invocation and report it."""
        env = self.env
        inv = ctx.inv
        self.stage_enter(ctx, TIMEOUT)
        inv.timed_out = True
        inv.exec_finished_at = env.now
        inv.completed_at = env.now
        self.http_clients.forget(ctx.entry.container.id)
        entry, ctx.entry = ctx.entry, None
        yield from self.pool.discard_in_use(entry)
        self.finish(ctx, TIMEOUT, Outcome.TIMEOUT)

    # --------------------------------------------------- shared sub-steps
    def _await_with_timeout(self, invoke_proc, limit: float) -> Generator:
        """Wait for the invocation or its execution limit; True on timeout."""
        timeout_ev = self.env.timeout(limit)
        result = yield self.env.any_of([invoke_proc, timeout_ev])
        if invoke_proc in result or not invoke_proc.is_alive:
            # Finished (possibly in the same instant the limit expired).
            return False
        invoke_proc.interrupt("function timeout")
        return True

    def create_container(
        self, registration: FunctionRegistration, prewarmed: bool = False
    ) -> Generator:
        """Create a container through the backend (memory already taken).

        With snapshots enabled and one available, the sandbox is restored
        instead of built from scratch; the function's initialization work
        covered by the snapshot is skipped at execution time (the caller
        consults :meth:`cold_exec_time`).
        """
        w = self.worker
        namespace = w.namespaces.acquire()
        plan = w.snapshots.restore_plan(registration)
        if plan is not None:
            restore_latency, _remaining = plan
            container = yield from self.backend.restore(
                registration, restore_latency, namespace=namespace
            )
            self.metrics.incr("containers.restored")
        else:
            container = yield from self.backend.create(
                registration, namespace=namespace
            )
            self.metrics.incr("containers.created")
            if w.snapshots.enabled:
                self._schedule_capture(registration)
        return self.pool.add_in_use(
            container, init_cost=registration.init_time, prewarmed=prewarmed
        )

    def cold_exec_time(self, registration: FunctionRegistration) -> float:
        """Function-code time for a cold start, given snapshot coverage."""
        snapshots = self.worker.snapshots
        if snapshots.has(registration.fqdn()):
            remaining_init = registration.init_time * (
                1.0 - snapshots.policy.init_coverage
            )
            return registration.warm_time + remaining_init
        return registration.cold_time

    def _schedule_capture(self, registration: FunctionRegistration) -> None:
        """Capture a snapshot in the background, off the critical path."""
        def capture() -> Generator:
            snapshots = self.worker.snapshots
            cost = snapshots.policy.capture_latency(registration.memory_mb)
            yield self.env.timeout(cost)
            snapshots.capture(registration, self.env.now)

        self.env.process(capture(), name=f"capture-{registration.fqdn()}")
