"""The invocation-lifecycle pipeline: stages, hooks, and contexts.

Pins the tentpole contract of the lifecycle refactor: every stage
boundary fires its registered hooks in pipeline order for warm and cold
invocations, terminal stages close the context with the right outcome,
context retention is opt-in, and the context-derived phase decomposition
is bit-identical to the span-derived one.
"""

import pytest

from repro.core.config import WorkerConfig
from repro.core.function import FunctionRegistration
from repro.core.lifecycle import (
    ACQUIRE,
    ADMIT,
    COLD_CREATE,
    COMPLETE,
    DISPATCH,
    DROP,
    ENQUEUE,
    EXECUTE,
    STAGES,
    TIMEOUT,
    WARM,
    InvocationContext,
    StageHooks,
)
from repro.core.worker import Worker
from repro.metrics.registry import Outcome
from repro.sim.core import Environment
from repro.telemetry.decomposition import decompose_contexts, match_records

REG = FunctionRegistration(name="f", memory_mb=128, warm_time=0.1, cold_time=0.5)


def make_worker(**overrides):
    env = Environment()
    cfg = dict(cores=2, memory_mb=1024, free_memory_buffer_mb=0.0,
               bypass_enabled=False, seed=3)
    cfg.update(overrides)
    worker = Worker(env, WorkerConfig(**cfg))
    worker.start()
    worker.register_sync(REG)
    return env, worker


def observe_all_stages(lifecycle, log):
    """Register one enter and one exit hook on every stage boundary."""
    for stage in STAGES:
        lifecycle.hooks.on_enter(
            stage, lambda s, ctx: log.append((s, "enter", ctx.inv.id))
        )
        lifecycle.hooks.on_exit(
            stage, lambda s, ctx: log.append((s, "exit", ctx.inv.id))
        )


def boundaries(log, inv_id):
    return [(stage, edge) for stage, edge, i in log if i == inv_id]


def run_cold_then_warm():
    env, worker = make_worker()
    log = []
    observe_all_stages(worker.lifecycle, log)
    results = []

    def submit(at):
        yield env.timeout(at)
        inv = yield from worker.invoke(REG.fqdn())
        results.append(inv)

    env.process(submit(0.0), name="cold")
    env.process(submit(5.0), name="warm")
    env.run(until=30.0)
    assert [inv.cold for inv in results] == [True, False]
    return log, results


def pairs(stage_list):
    """[(s, enter), (s, exit), ...] for a stage sequence."""
    out = []
    for s in stage_list:
        out.append((s, "enter"))
        out.append((s, "exit"))
    return out


# ------------------------------------------------------------- stage order
def test_hooks_observe_every_stage_boundary_cold_and_warm():
    log, (cold_inv, warm_inv) = run_cold_then_warm()
    assert boundaries(log, cold_inv.id) == pairs(
        [ADMIT, ENQUEUE, DISPATCH, ACQUIRE, COLD_CREATE, EXECUTE, COMPLETE]
    )
    assert boundaries(log, warm_inv.id) == pairs(
        [ADMIT, ENQUEUE, DISPATCH, ACQUIRE, WARM, EXECUTE, COMPLETE]
    )


def test_stage_times_stamped_when_hooks_active():
    env, worker = make_worker()
    seen = []
    worker.lifecycle.hooks.on_exit(
        COMPLETE, lambda s, ctx: seen.append(ctx)
    )

    def submit():
        yield from worker.invoke(REG.fqdn())

    env.process(submit(), name="s")
    env.run(until=30.0)
    [ctx] = seen
    for stage in (ADMIT, ENQUEUE, DISPATCH, ACQUIRE, COLD_CREATE, EXECUTE):
        enter, exit_ = ctx.stage_times[stage]
        assert enter is not None and exit_ is not None and enter <= exit_
    # stage_exit stamps before firing, so the exit hook observes its own
    # boundary time already recorded.
    enter, exit_ = ctx.stage_times[COMPLETE]
    assert enter is not None and exit_ is not None and enter <= exit_
    # No telemetry attached: interval collection stays off even though
    # hooks stamped the stage clock.
    assert ctx.intervals is None


def test_drop_stage_closes_context_with_dropped_outcome():
    env, worker = make_worker(cores=1, concurrency_limit=1, queue_max_len=1)
    outcomes = []
    worker.lifecycle.hooks.on_exit(
        DROP, lambda s, ctx: outcomes.append(ctx)
    )
    for _ in range(4):
        worker.async_invoke(REG.fqdn())
    env.run(until=30.0)
    assert outcomes, "expected overflow drops"
    for ctx in outcomes:
        assert ctx.inv.dropped and ctx.drop_reason == "queue overflow"
        assert ctx.outcome is Outcome.DROPPED
        assert ctx.stage == DROP


def test_timeout_stage_closes_context_with_timeout_outcome():
    env, worker = make_worker()
    slow = FunctionRegistration(
        name="slow", memory_mb=64, warm_time=5.0, cold_time=6.0, timeout=0.25
    )
    worker.register_sync(slow)
    seen = []
    worker.lifecycle.hooks.on_exit(TIMEOUT, lambda s, ctx: seen.append(ctx))

    def submit():
        yield from worker.invoke(slow.fqdn())

    env.process(submit(), name="s")
    env.run(until=30.0)
    [ctx] = seen
    assert ctx.inv.timed_out
    assert ctx.outcome is Outcome.TIMEOUT
    assert ctx.entry is None  # the killed container was discarded


# ------------------------------------------------------------------- hooks
def test_unknown_stage_rejected():
    hooks = StageHooks()
    with pytest.raises(ValueError):
        hooks.on_enter("bogus", lambda s, ctx: None)
    with pytest.raises(ValueError):
        hooks.on_exit("", lambda s, ctx: None)
    assert not hooks.active


def test_hooks_inactive_by_default_and_clearable():
    env, worker = make_worker()
    assert not worker.lifecycle.hooks.active
    worker.lifecycle.hooks.on_enter(ADMIT, lambda s, ctx: None)
    assert worker.lifecycle.hooks.active
    worker.lifecycle.hooks.clear()
    assert not worker.lifecycle.hooks.active


def test_multiple_hooks_fire_in_registration_order():
    env, worker = make_worker()
    order = []
    worker.lifecycle.hooks.on_enter(ADMIT, lambda s, ctx: order.append("a"))
    worker.lifecycle.hooks.on_enter(ADMIT, lambda s, ctx: order.append("b"))

    def submit():
        yield from worker.invoke(REG.fqdn())

    env.process(submit(), name="s")
    env.run(until=30.0)
    assert order == ["a", "b"]


# ---------------------------------------------------------------- contexts
def test_contexts_not_retained_by_default():
    env, worker = make_worker()

    def submit():
        yield from worker.invoke(REG.fqdn())

    env.process(submit(), name="s")
    env.run(until=30.0)
    assert worker.lifecycle.keep_contexts is False
    assert worker.lifecycle.contexts == []


def test_context_retention_and_interval_collection():
    env, worker = make_worker()
    worker.lifecycle.keep_contexts = True
    results = []

    def submit(at):
        yield env.timeout(at)
        inv = yield from worker.invoke(REG.fqdn())
        results.append(inv)

    env.process(submit(0.0), name="cold")
    env.process(submit(5.0), name="warm")
    env.run(until=30.0)

    contexts = worker.lifecycle.contexts
    assert [ctx.inv.id for ctx in contexts] == [inv.id for inv in results]
    for ctx, inv in zip(contexts, results):
        assert ctx.outcome in (Outcome.COLD, Outcome.WARM)
        assert ctx.registration is REG
        assert ctx.invocation_id == inv.id
        assert ctx.cold == inv.cold
        names = [name for name, _start, _end in ctx.intervals]
        assert "exec" in names and "invoke" in names
    # The intervals account for every control-plane second: each phase
    # sum equals the overhead the record computes from the invocation's
    # own timestamps.
    breakdowns = decompose_contexts(contexts)
    assert match_records(breakdowns, worker.metrics.records) == (2, 2)
    cold, warm = breakdowns
    assert cold.tag == str(results[0].id) and cold.cold
    assert not warm.cold and warm.phases["cold_create"] == 0.0
    assert warm.phases["acquire"] > 0.0 and warm.phases["exec_comm"] > 0.0
    assert cold.exec_time == results[0].exec_time


def test_context_slots_reject_stray_attributes():
    ctx = InvocationContext.__new__(InvocationContext)
    with pytest.raises(AttributeError):
        ctx.not_a_field = 1
