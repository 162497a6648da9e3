"""The invocation-lifecycle pipeline: stages and contexts.

Pins the tentpole contract of the lifecycle refactor: every invocation
walks the stages in pipeline order for warm and cold invocations (read
back off the retained contexts' ``stage_times``), terminal stages close
the context with the right outcome, context retention is opt-in, and the
context-derived phase decomposition accounts for every record.
"""

import pytest

from repro.core.config import WorkerConfig
from repro.core.function import FunctionRegistration, Invocation
from repro.core.lifecycle import (
    ACQUIRE,
    ADMIT,
    COLD_CREATE,
    COMPLETE,
    DISPATCH,
    DROP,
    ENQUEUE,
    EXECUTE,
    TIMEOUT,
    WARM,
    InvocationContext,
    StageTracker,
)
from repro.core.worker import Worker
from repro.metrics.registry import MetricsRegistry, Outcome
from repro.sim.core import Environment
from repro.telemetry.decomposition import decompose_contexts, match_records

REG = FunctionRegistration(name="f", memory_mb=128, warm_time=0.1, cold_time=0.5)


def make_worker(keep_contexts=True, **overrides):
    env = Environment()
    cfg = dict(cores=2, memory_mb=1024, free_memory_buffer_mb=0.0,
               bypass_enabled=False, seed=3)
    cfg.update(overrides)
    worker = Worker(env, WorkerConfig(**cfg))
    if keep_contexts:
        worker.lifecycle.keep_contexts = True
    worker.start()
    worker.register_sync(REG)
    return env, worker


def stage_walk(ctx):
    """The stages a retained context walked, in enter order.

    Checks the stamps on the way: every exited stage has
    ``enter <= exit``, and no stage starts before its predecessor exited
    (``exit(s_i) <= enter(s_i+1)``).  A stage the pipeline never exited
    (EXECUTE on the timeout path) has no exit stamp and is skipped by
    both checks.
    """
    items = list(ctx.stage_times.items())
    for _name, (enter, exit_) in items:
        assert enter is not None
        assert exit_ is None or enter <= exit_
    for (_, (_, exit_)), (_, (enter, _)) in zip(items, items[1:]):
        assert exit_ is None or exit_ <= enter
    return [name for name, _ in items]


def run_cold_then_warm():
    env, worker = make_worker()
    results = []

    def submit(at):
        yield env.timeout(at)
        inv = yield from worker.invoke(REG.fqdn())
        results.append(inv)

    env.process(submit(0.0), name="cold")
    env.process(submit(5.0), name="warm")
    env.run(until=30.0)
    assert [inv.cold for inv in results] == [True, False]
    return worker.lifecycle.contexts, results


# ------------------------------------------------------------- stage order
def test_contexts_record_every_stage_cold_and_warm():
    (cold, warm), (cold_inv, warm_inv) = run_cold_then_warm()
    assert (cold.inv, warm.inv) == (cold_inv, warm_inv)
    assert stage_walk(cold) == [
        ADMIT, ENQUEUE, DISPATCH, ACQUIRE, COLD_CREATE, EXECUTE, COMPLETE
    ]
    assert stage_walk(warm) == [
        ADMIT, ENQUEUE, DISPATCH, ACQUIRE, WARM, EXECUTE, COMPLETE
    ]
    assert (cold.outcome, warm.outcome) == (Outcome.COLD, Outcome.WARM)
    assert cold.stage == warm.stage == COMPLETE


def test_stage_times_stamped_only_while_collecting():
    env = Environment()
    tracker = StageTracker(env, "w", MetricsRegistry())
    done = env.event()
    quiet = tracker.open(Invocation(function=REG, arrival=0.0), done)
    tracker.keep_contexts = True
    kept = tracker.open(Invocation(function=REG, arrival=0.0), done)
    for ctx in (quiet, kept):
        tracker.stage_enter(ctx, ADMIT)
        tracker.stage_exit(ctx, ADMIT)
        assert ctx.stage == ADMIT
    assert quiet.stage_times is None and quiet.intervals is None
    assert kept.stage_times == {ADMIT: [0.0, 0.0]}
    assert tracker.contexts == [kept]


def test_drop_stage_closes_context_with_dropped_outcome():
    env, worker = make_worker(cores=1, concurrency_limit=1, queue_max_len=1)
    for _ in range(4):
        worker.async_invoke(REG.fqdn())
    env.run(until=30.0)
    dropped = [c for c in worker.lifecycle.contexts
               if c.outcome is Outcome.DROPPED]
    assert dropped, "expected overflow drops"
    for ctx in dropped:
        assert ctx.inv.dropped and ctx.inv.drop_reason == "queue overflow"
        assert ctx.stage == DROP
        assert stage_walk(ctx) == [ADMIT, ENQUEUE, DROP]


def test_timeout_stage_closes_context_with_timeout_outcome():
    env, worker = make_worker()
    slow = FunctionRegistration(
        name="slow", memory_mb=64, warm_time=5.0, cold_time=6.0, timeout=0.25
    )
    worker.register_sync(slow)

    def submit():
        yield from worker.invoke(slow.fqdn())

    env.process(submit(), name="s")
    env.run(until=30.0)
    [ctx] = worker.lifecycle.contexts
    assert ctx.inv.timed_out
    assert ctx.outcome is Outcome.TIMEOUT
    assert ctx.entry is None  # the killed container was discarded
    assert stage_walk(ctx) == [
        ADMIT, ENQUEUE, DISPATCH, ACQUIRE, COLD_CREATE, EXECUTE, TIMEOUT
    ]
    # The killed execution never exits its stage; the kill starts after
    # the execute stage began.
    execute, timeout = ctx.stage_times[EXECUTE], ctx.stage_times[TIMEOUT]
    assert execute[1] is None and execute[0] <= timeout[0] <= timeout[1]


# ---------------------------------------------------------------- contexts
def test_contexts_not_retained_by_default():
    env, worker = make_worker(keep_contexts=False)

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
        assert ctx.inv.function is REG
        assert ctx.inv.id == inv.id
        assert ctx.inv.cold == inv.cold
        names = ctx.intervals[0::3]
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


def test_a_zero_base_component_still_takes_its_timeout_and_records_it():
    """Every component is one timeout, a zero base included: the
    invocation completes, the component records ``(name, t, t)``, and the
    run spends as many calendar entries as with a positive base."""
    from repro.core.config import WorkerLatencyProfile
    from repro.core.lifecycle import interval_triples

    entries = []
    for base in (0.0, 1e-6):
        env, worker = make_worker(latency=WorkerLatencyProfile(invoke=base))
        inv = env.run_process(worker.invoke(REG.fqdn()))
        (ctx,) = worker.lifecycle.contexts
        assert ctx.outcome is Outcome.COLD and not inv.dropped
        entries.append(env._seq)
        if base == 0.0:
            t = ctx.entered[ADMIT]
            assert next(interval_triples(ctx.intervals)) == ("invoke", t, t)
    assert entries[0] == entries[1]
