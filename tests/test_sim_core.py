"""Unit tests for the DES kernel (repro.sim.core)."""

import gc
import math
import traceback
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt, SimulationError
from repro.sim.realtime import RealtimeEnvironment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=42.0)
    assert env.now == 42.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5.0)
        return env.now

    assert env.run_process(proc()) == 5.0
    assert env.now == 5.0


def test_timeout_zero_delay_fires_at_same_time():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(0.0)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [0.0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()

    def proc():
        value = yield env.timeout(1.0, value="payload")
        return value

    assert env.run_process(proc()) == "payload"


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def waiter(delay, label):
        yield env.timeout(delay)
        order.append(label)

    env.process(waiter(3.0, "c"))
    env.process(waiter(1.0, "a"))
    env.process(waiter(2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_creation_order():
    env = Environment()
    order = []

    def waiter(label):
        yield env.timeout(1.0)
        order.append(label)

    for label in "abcde":
        env.process(waiter(label))
    env.run()
    assert order == list("abcde")


def test_run_until_stops_clock_at_limit():
    env = Environment()

    def proc():
        yield env.timeout(100.0)

    env.process(proc())
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_past_raises():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_manual_event_succeed():
    env = Environment()
    evt = env.event()
    results = []

    def waiter():
        value = yield evt
        results.append(value)

    def trigger():
        yield env.timeout(2.0)
        evt.succeed("done")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert results == ["done"]


def test_event_double_trigger_raises():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_fail_propagates_to_waiter():
    env = Environment()
    evt = env.event()
    caught = []

    def waiter():
        try:
            yield evt
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1.0)
        evt.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    env = Environment()
    evt = env.event()
    with pytest.raises(TypeError):
        evt.fail("not an exception")


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return 99

    def parent():
        value = yield env.process(child())
        return value

    assert env.run_process(parent()) == 99


def test_waiting_on_already_finished_process():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return "early"

    def parent(proc):
        yield env.timeout(10.0)
        value = yield proc
        return value, env.now

    child_proc = env.process(child())
    assert env.run_process(parent(child_proc)) == ("early", 10.0)


def test_uncaught_process_exception_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("broken process")

    env.process(bad())
    with pytest.raises(ValueError, match="broken process"):
        env.run()


def test_waited_on_process_failure_delivered_to_parent():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("inner")

    def parent():
        try:
            yield env.process(bad())
        except ValueError:
            return "handled"

    assert env.run_process(parent()) == "handled"


def test_yield_non_event_raises():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    result = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            result.append((env.now, exc.cause))

    def interrupter(target):
        yield env.timeout(3.0)
        target.interrupt(cause="wake up")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert result == [(3.0, "wake up")]


def test_interrupt_terminated_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_all_of_waits_for_all():
    env = Environment()

    def proc():
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(5.0, value="b")
        results = yield env.all_of([t1, t2])
        return env.now, sorted(results.values())

    assert env.run_process(proc()) == (5.0, ["a", "b"])


def test_any_of_returns_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        results = yield env.any_of([t1, t2])
        return env.now, list(results.values())

    assert env.run_process(proc()) == (1.0, ["fast"])


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc():
        yield env.all_of([])
        return env.now

    assert env.run_process(proc()) == 0.0


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_run_process_unfinished_raises():
    env = Environment()

    def forever():
        yield env.timeout(1000.0)

    with pytest.raises(SimulationError):
        env.run_process(forever(), until=1.0)


def test_nested_processes_three_deep():
    env = Environment()

    def leaf():
        yield env.timeout(2.0)
        return 1

    def middle():
        value = yield env.process(leaf())
        yield env.timeout(3.0)
        return value + 1

    def root():
        value = yield env.process(middle())
        return value + 1

    assert env.run_process(root()) == 3
    assert env.now == 5.0


def test_many_processes_scale():
    env = Environment()
    done = []

    def worker(i):
        yield env.timeout(float(i % 17))
        done.append(i)

    for i in range(1000):
        env.process(worker(i))
    env.run()
    assert len(done) == 1000


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_interrupt_large_fanin_detaches_all_waiters():
    # Many processes wait on ONE shared event; interrupting them all must
    # detach each waiter (tombstone swap) without disturbing the others.
    env = Environment()
    gate = env.event()
    interrupted = []

    def waiter(i):
        try:
            yield gate
            interrupted.append((i, "resumed"))
        except Interrupt as exc:
            interrupted.append((i, exc.cause))

    procs = [env.process(waiter(i)) for i in range(50)]

    def interrupter():
        yield env.timeout(1.0)
        for k, p in enumerate(procs):
            if k % 2 == 0:
                p.interrupt(cause=k)

    env.process(interrupter())
    env.process(_release(env, gate))
    env.run()
    resumed = [i for i, tag in interrupted if tag == "resumed"]
    hit = sorted(i for i, tag in interrupted if tag != "resumed")
    assert hit == list(range(0, 50, 2))
    assert sorted(resumed) == list(range(1, 50, 2))


def _release(env, gate):
    yield env.timeout(2.0)
    gate.succeed()


def test_failed_event_with_only_tombstoned_waiters_still_propagates():
    # An interrupted process leaves a tombstone in the event's callback
    # list; if the event later fails with nobody real waiting, the
    # failure must still propagate out of run() (no silent failure).
    env = Environment()
    doomed = env.event()

    def waiter():
        try:
            yield doomed
        except Interrupt:
            yield env.timeout(100.0)

    proc = env.process(waiter())

    def driver():
        yield env.timeout(1.0)
        proc.interrupt()
        yield env.timeout(1.0)
        doomed.fail(RuntimeError("orphan failure"))

    env.process(driver())
    with pytest.raises(RuntimeError, match="orphan failure"):
        env.run()


def _interrupted_parent_of_failing_child(env):
    """A parent waits on a child that raises at t=2; the parent is
    interrupted at t=1 and moves on, so the child's failure has no waiter
    left.  Returns the interrupting driver's generator."""
    def child():
        yield env.timeout(2.0)
        raise ValueError("orphan child")

    def parent():
        try:
            yield env.process(child())
        except Interrupt:
            yield env.timeout(100.0)

    proc = env.process(parent())

    def driver():
        yield env.timeout(1.0)
        proc.interrupt()
        yield env.timeout(5.0)

    return driver()


def test_child_failure_after_its_waiter_was_interrupted_propagates_from_run():
    env = Environment()
    env.process(_interrupted_parent_of_failing_child(env))
    with pytest.raises(ValueError, match="orphan child"):
        env.run()
    assert env.now == 2.0


def test_child_failure_after_its_waiter_was_interrupted_propagates_from_run_process():
    env = Environment()
    with pytest.raises(ValueError, match="orphan child"):
        env.run_process(_interrupted_parent_of_failing_child(env))
    assert env.now == 2.0


def test_interrupt_twice_is_idempotent_on_callbacks():
    env = Environment()
    causes = []

    def waiter():
        while True:
            try:
                yield env.timeout(100.0)
                return
            except Interrupt as exc:
                causes.append(exc.cause)

    proc = env.process(waiter())

    def driver():
        yield env.timeout(1.0)
        proc.interrupt(cause="a")
        proc.interrupt(cause="b")

    env.process(driver())
    env.run(until=50.0)
    assert causes == ["a", "b"]


# -- retirement by reference count ---------------------------------------
# A finished process keeps no reference to itself, so it is freed as soon
# as nothing outside the kernel holds it: these run with the cyclic
# collector off, and a weakref that survives means a reference cycle.


@pytest.fixture
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_returned_process_is_freed_by_refcount(no_cyclic_gc):
    env = Environment()

    def quick():
        yield env.timeout(1.0)
        return "done"

    proc = env.process(quick())
    ref = weakref.ref(proc)
    del proc
    env.run()
    assert ref() is None


def test_interrupted_process_is_freed_by_refcount(no_cyclic_gc):
    env = Environment()
    ended = []

    def sleeper():
        yield env.timeout(100.0)

    proc = env.process(sleeper())
    proc.callbacks.append(lambda e: ended.append((e.ok, type(e.value))))
    ref = weakref.ref(proc)
    env.run(until=1.0)
    proc.interrupt("stop")
    del proc
    env.run()
    assert ended == [(False, Interrupt)]
    assert ref() is None


def test_failed_child_is_freed_after_delivery_to_its_parent(no_cyclic_gc):
    env = Environment()
    refs = []

    def bad():
        yield env.timeout(1.0)
        raise ValueError("inner")

    def spawn():
        child = env.process(bad())
        refs.append(weakref.ref(child))
        return child

    def parent():
        # The child is yielded, not kept in a local: a waiter's own
        # frame lands in the failure's traceback, and a local there
        # would hold the child again.
        try:
            yield spawn()
        except ValueError as exc:
            return str(exc)

    assert env.run_process(parent()) == "inner"
    assert refs[0]() is None


def _finished(env, how):
    """A process that has ended by ``how``: an uncaught interrupt, or an
    exception caught by a waiting parent.  (The return path has its own
    tests above.)"""
    def body():
        yield env.timeout(1.0)
        raise ValueError("inner")

    proc = env.process(body())
    if how == "interrupt":
        env.run(until=0.5)
        proc.interrupt("stop")
    else:
        def parent():
            try:
                yield proc
            except ValueError:
                pass

        env.process(parent())
    env.run()
    assert not proc.is_alive
    return proc


@pytest.mark.parametrize("how", ["interrupt", "exception"])
def test_interrupting_a_finished_process_still_raises(how):
    env = Environment()
    proc = _finished(env, how)
    with pytest.raises(SimulationError):
        proc.interrupt()


@pytest.mark.parametrize("how", ["interrupt", "exception"])
def test_yielding_a_finished_process_still_returns_its_outcome(how):
    env = Environment()
    proc = _finished(env, how)

    def late():
        try:
            return (yield proc)
        except (Interrupt, ValueError) as exc:
            return type(exc)

    expected = Interrupt if how == "interrupt" else ValueError
    assert env.run_process(late()) == expected


def test_failure_traceback_starts_in_the_process_body():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("broken process")

    env.process(bad())
    with pytest.raises(ValueError) as info:
        env.run()
    names = [frame.name for frame in traceback.extract_tb(info.value.__traceback__)]
    assert names[-1] == "bad"
    assert "_step" not in names


# -- NaN times -------------------------------------------------------------
# Every comparison with NaN is False, so a NaN time slips past a ``< 0`` or
# ``< now`` guard and then breaks the calendar's heap order.


def test_timeout_nan_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(float("nan"))


def test_timeout_at_nan_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout_at(float("nan"))


def test_run_until_nan_rejected():
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(ValueError):
        env.run(until=float("nan"))


def test_run_process_until_nan_rejected():
    env = Environment()

    def proc():
        yield env.timeout(1.0)

    with pytest.raises(ValueError):
        env.run_process(proc(), until=float("nan"))


# -- one loop, four drivers --------------------------------------------------
# ``run()``, ``run(until=...)`` in chunks, ``run_process`` and the paced
# wall-clock environment all drive the same dispatch loop; a drawn workload
# must produce the same (tag, now, value) log under each of them.

_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])
_OPS = st.one_of(
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("at"), st.integers(0, 3)),
    st.tuples(st.just("any"), _DELAYS, _DELAYS),
    st.tuples(st.just("all"), _DELAYS, _DELAYS),
    st.tuples(st.just("fail"), _DELAYS),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
)
_WORKLOADS = st.lists(st.lists(_OPS, min_size=2, max_size=6), min_size=3, max_size=6)


def _spawn(env, workload, log):
    """Start one process per op list; return them in creation order."""
    procs = []

    def child(tag, delay):
        yield env.timeout(delay)
        raise ValueError(tag)

    def body(tag, ops):
        for i, op in enumerate(ops):
            kind = op[0]
            try:
                if kind == "sleep":
                    value = yield env.timeout(op[1], value=(tag, i))
                elif kind == "at":
                    value = yield env.timeout_at(math.ceil(env.now) + op[1], value=i)
                elif kind in ("any", "all"):
                    both = [env.timeout(op[1], value="a"), env.timeout(op[2], value="b")]
                    join = env.any_of if kind == "any" else env.all_of
                    value = sorted((yield join(both)).values())
                elif kind == "fail":
                    try:
                        yield env.process(child(f"{tag}.{i}", op[1]))
                    except ValueError as exc:
                        value = ("caught", str(exc))
                else:
                    victim = procs[op[1] % len(procs)]
                    if victim.is_alive and victim is not env.active_process:
                        victim.interrupt((tag, i))
                    value = "sent"
            except Interrupt as intr:
                value = ("interrupted", intr.cause)
            log.append((tag, env.now, kind, value))
        return tag

    for k, ops in enumerate(workload):
        procs.append(env.process(body(k, ops)))
    return procs


def _log_of(drive, env, workload):
    """The run's log; a failure that escapes the run (a child whose waiter
    was interrupted raises with nobody left to catch it) ends the log
    with its type, args and time, so the drivers must agree on it too."""
    log = []
    try:
        drive(env, lambda: _spawn(env, workload, log))
    except ValueError as exc:
        log.append((type(exc).__name__, exc.args, env.now))
    return log


def _whole(env, spawn):
    spawn()
    env.run()


def _chunked(cuts):
    def drive(env, spawn):
        spawn()
        for cut in sorted(cuts):
            env.run(until=max(cut, env.now))
        env.run()
    return drive


def _driven(env, spawn):
    def driver():
        for proc in spawn():
            yield proc
        return "done"

    assert env.run_process(driver()) == "done"
    env.run()


@settings(max_examples=60, deadline=None)
@given(
    workload=_WORKLOADS,
    cuts=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5]), min_size=1, max_size=5),
)
# Process 0 interrupts process 1 at 0.5 while it waits on its child, and
# the child raises at 0.5 with no waiter left: every driver must raise at
# the same instant.
@example(
    workload=[[("sleep", 0.5), ("interrupt", 1)], [("sleep", 0.0), ("fail", 0.5)],
              [("sleep", 0.0), ("sleep", 0.0)]],
    cuts=[0.0],
)
def test_every_driver_dispatches_the_same_order(workload, cuts):
    reference = _log_of(_whole, Environment(), workload)
    if reference[-1][0] != "ValueError":
        assert len(reference) == sum(len(ops) for ops in workload)
    assert _log_of(_chunked(cuts), Environment(), workload) == reference
    assert _log_of(_driven, Environment(), workload) == reference

    wall = [0.0]

    def sleep(seconds):
        wall[0] += seconds

    paced = RealtimeEnvironment(
        factor=0.5, strict=True, tolerance=0.0, sleep=sleep, clock=lambda: wall[0]
    )
    assert _log_of(_whole, paced, workload) == reference
    assert wall[0] == pytest.approx(paced.now * 0.5)


def test_interrupt_before_start_resumes_the_process_once():
    """interrupt() on a process whose start is still pending is delivered
    at its first wait, and that wait's event no longer resumes it."""
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(0.0, value="first")
        except Interrupt as intr:
            log.append(intr.cause)
        log.append((yield env.timeout(5.0, value="second")))

    env.process(victim()).interrupt("early")
    env.run()
    assert log == ["early", "second"]


def test_second_interrupt_detaches_from_the_wait_in_between():
    env = Environment()
    log = []

    def victim():
        for _ in range(3):
            try:
                log.append((yield env.timeout(1.0, value=env.now)))
            except Interrupt as intr:
                log.append(intr.cause)

    proc = env.process(victim())

    def interrupter():
        yield env.timeout(0.5)
        proc.interrupt("a")
        proc.interrupt("b")

    env.process(interrupter())
    env.run()
    assert log == ["a", "b", 0.5]
