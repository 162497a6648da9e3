"""Fewer calendar entries per invocation, in the same order.

Three kinds of calendar entry are gone from the invocation path:

* a process that returns while nobody waits on it is marked processed in
  the step that returned (``Process._step``), with no end entry;
* a backend call without an execution limit runs inside the invoking
  process (``yield from``), not in a helper process it waits on;
* the LB→worker hop is one timeout whose callback hands the invocation
  to the worker (``start_forward``), not an ``lb-forward`` process.

Checked here:

* the kernel's unwaited end: no calendar entry, a later ``yield proc``
  still gets the value, an unwaited failure still raises out of
  ``run()``, ``run_process`` still stops at its process's end with its
  value or failure;
* small zero-jitter push clusters against a test-only reference that
  restores the helper processes and end entries the kernel, lifecycle
  and front end used to spend
  (:class:`HelperInvokeLifecycle`, :func:`forward_reference`,
  :func:`reference_step`).  Removing a helper moves its work from the
  helper's step into its caller's (or a callback), so the two runs agree
  exactly only where no other process stepped inside one of the
  helpers' windows (:meth:`WindowLog.ties`): there, records, gauge
  samples and pool counts must be equal; on every draw, both conserve
  invocations and memory;
* the golden push scenario spends an exact number of calendar entries
  (``env._seq``): the count repeats exactly for a given commit, so any
  change to it is a change to the kernel's work per invocation.
"""

import contextlib
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.core import worker as worker_module
from repro.core.config import WorkerConfig, WorkerLatencyProfile
from repro.core.function import FunctionRegistration
from repro.core.lifecycle import InvocationLifecycle
from repro.loadbalancer import cluster as cluster_module
from repro.loadbalancer.cluster import Cluster
from repro.sim import Environment
from repro.sim.core import PENDING, PROCESSED, Process
from tests.golden_scenario import ARRIVALS, run_scenario
from tests.test_inline_cold_path import assert_memory_conserved


# ------------------------------------------------------ kernel: unwaited ends
def _returns_after(env, delay, value):
    yield env.timeout(delay)
    return value


def test_an_unwaited_process_ends_without_a_calendar_entry():
    env = Environment()
    proc = env.process(_returns_after(env, 1.0, "done"))
    env.run(until=1.0)
    # The start and the timeout; the end takes no entry.
    assert (env._seq, env._queue) == (2, [])
    assert proc.processed and proc.ok and proc.value == "done"
    assert not proc.is_alive


def test_a_waited_process_still_ends_through_the_calendar():
    env = Environment()
    proc = env.process(_returns_after(env, 1.0, "done"))
    got = []

    def waiter():
        got.append((yield proc))

    env.process(waiter())
    env.run(until=1.0)
    # Two starts, the timeout and the end the waiter resumes on.
    assert env._seq == 4
    assert got == ["done"] and env._queue == []


def test_a_later_yield_gets_the_value_of_an_unwaited_end():
    env = Environment()
    proc = env.process(_returns_after(env, 1.0, 42))
    got = []

    def late():
        yield env.timeout(2.0)
        got.append((env.now, (yield proc)))

    env.process(late())
    env.run()
    assert got == [(2.0, 42)]


def test_an_unwaited_failure_still_raises_out_of_run():
    env = Environment()

    def fails():
        yield env.timeout(1.0)
        raise ValueError("boom")

    proc = env.process(fails())
    with pytest.raises(ValueError, match="boom"):
        env.run()
    assert env.now == 1.0
    assert proc.triggered and not proc.ok


def test_run_process_stops_at_the_end_with_its_value_or_failure():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout(0.5)

    def immediate():
        return "now"
        yield  # pragma: no cover - keeps this a generator

    env.process(ticker())
    assert env.run_process(_returns_after(env, 1.25, "x")) == "x"
    assert env.now == 1.25
    assert env.run_process(immediate()) == "now"
    assert env.now == 1.25
    with pytest.raises(ValueError, match="late"):
        env.run_process(_raises_after(env, 0.5, ValueError("late")))


def _raises_after(env, delay, exc):
    yield env.timeout(delay)
    raise exc


# ---------------------------- reference: the helper processes, restored
class WindowLog:
    """Counts every process step of a reference run and records each
    helper's *windows*: the steps between its caller's step and its own
    first step, and between its own last step and the dispatch that
    resumes its caller.

    Without the helper, its first step's work runs in the caller's step
    and its last step's work in the resumed step (or the callback that
    replaces it), so the two runs can order differently only if another
    process steps inside a window.  :meth:`ties` says whether one did.
    """

    def __init__(self):
        self.steps = 0
        self.windows = []   # [caller step, first, last, resumed], step indices

    def record(self, _process):
        self.steps += 1

    def open(self):
        window = [self.steps - 1, None, None, None]
        self.windows.append(window)
        return window

    def mark(self, window, slot):
        window[slot] = self.steps - 1

    def close_on(self, trigger, window):
        """End the window at ``trigger``'s dispatch: the next step is the
        one it resumes."""
        def close(_e):
            window[3] = self.steps

        trigger.callbacks.append(close)

    def helper(self, env, call):
        """``call`` in a helper process the active process waits on; a
        generator for the active process to ``yield from``."""
        window = self.open()

        def member():
            self.mark(window, 1)
            value = yield from call
            self.mark(window, 2)
            return value

        process = env.process(member())
        self.close_on(process, window)
        return (yield process)

    def ties(self) -> bool:
        return any(None in w or w[1] - w[0] > 1 or w[3] - w[2] > 1
                   for w in self.windows)


class HelperCalls:
    """Reference backend view: a call without an execution limit runs in a
    helper process (a call with one is already started as a process by
    ``execute``)."""

    def __init__(self, backend, log):
        self._backend = backend
        self._log = log

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def invoke(self, container, exec_time):
        call = self._backend.invoke(container, exec_time)
        if container.registration.timeout is not None:
            return call
        return self._log.helper(self._backend.env, call)


class HelperInvokeLifecycle(InvocationLifecycle):
    """Reference lifecycle: every backend call runs in a helper process."""

    log: WindowLog

    def __init__(self, worker):
        super().__init__(worker)
        self.backend = HelperCalls(self.backend, self.log)


def forward_reference(log):
    """``start_forward`` as a process: an ``lb-forward`` process sleeps the
    hop, invokes the worker, waits, and relays the result to ``done``."""
    def start_forward(env, latency, worker, fqdn, args, invocation_id):
        done = env.event()
        window = log.open()

        def forward_hop():
            log.mark(window, 1)
            yield env.timeout(latency)
            inv = yield worker.async_invoke(fqdn, args,
                                            invocation_id=invocation_id)
            log.mark(window, 2)
            done.succeed(inv)

        env.process(forward_hop(), name=f"lb-forward-{fqdn}")
        log.close_on(done, window)
        return done

    return start_forward


def reference_step(log):
    """``Process._step`` with every end taking a calendar entry, waited on
    or not."""
    step = Process._step

    def logged_step(process, advance, arg):
        log.record(process)
        step(process, advance, arg)
        if process._state == PROCESSED:
            process._state = PENDING
            process.succeed(process._value)

    return logged_step


MEMORIES = (128.0, 256.0, 384.0)
TIMES = (0.05, 0.1, 0.2, 0.4)


@st.composite
def push_scenarios(draw):
    functions = []
    for i in range(draw(st.integers(1, 4))):
        warm = draw(st.sampled_from(TIMES))
        functions.append(dict(
            name=f"f{i}", memory_mb=draw(st.sampled_from(MEMORIES)),
            warm_time=warm, cold_time=warm + draw(st.sampled_from(TIMES)),
            timeout=draw(st.sampled_from((None, None, 0.1, 0.3)))))
    n = len(functions)
    # Arrivals on a grid: some share an instant.
    step = st.tuples(st.integers(0, 40), st.integers(0, n - 1))
    return dict(
        functions=functions,
        steps=draw(st.lists(step, min_size=1, max_size=30)),
        workers=draw(st.integers(1, 3)),
        lb_policy=draw(st.sampled_from(("ch_bl", "round_robin",
                                        "least_loaded"))),
        # A 0.05 s hop lands on the arrival grid.
        rpc_latency=draw(st.sampled_from((0.0005, 0.002, 0.05))),
        backend=draw(st.sampled_from(("null", "containerd"))),
        memory_mb=draw(st.sampled_from((512.0, 768.0, 1024.0))),
        cores=draw(st.sampled_from((1, 2, 4))),
        memory_wait_timeout=draw(st.sampled_from((0.05, 0.2, 1.0))),
        keepalive_policy=draw(st.sampled_from(("GD", "LRU", "TTL"))),
        eviction_interval=draw(st.sampled_from((0.1, 0.5))),
    )


def replay_cluster(scenario, log=None):
    """Run one scenario on a push cluster, on the reference when ``log``
    (a :class:`WindowLog`) is given; returns what it leaves."""
    env = Environment()
    config = WorkerConfig(
        cores=scenario["cores"], memory_mb=scenario["memory_mb"],
        backend=scenario["backend"],
        memory_wait_timeout=scenario["memory_wait_timeout"],
        keepalive_policy=scenario["keepalive_policy"],
        free_memory_buffer_mb=0.0,
        eviction_interval=scenario["eviction_interval"],
        latency=WorkerLatencyProfile(jitter_fraction=0.0), seed=3,
    )
    if log is not None:
        lifecycle = type("LoggedLifecycle", (HelperInvokeLifecycle,),
                         {"log": log})
        patches = (
            mock.patch.object(worker_module, "InvocationLifecycle", lifecycle),
            mock.patch.object(cluster_module, "start_forward",
                              forward_reference(log)),
            mock.patch.object(Process, "_step", reference_step(log)),
        )
    else:
        patches = ()
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        cluster = Cluster(env, num_workers=scenario["workers"], config=config,
                          rpc_latency=scenario["rpc_latency"],
                          lb_policy=scenario["lb_policy"])
        cluster.start()
        fqdns = [cluster.register_sync(FunctionRegistration(**f))
                 for f in scenario["functions"]]
        workers = list(cluster.workers.values())
        outcomes = []
        levels = []

        def fire(at, fqdn):
            yield env.timeout(0.05 * at)
            outcomes.append((yield cluster.async_invoke(fqdn)))

        def sample():
            # Off the arrival grid.
            yield env.timeout(0.0125)
            while True:
                levels.append((env.now, [(w.memory.level, w.load.running,
                                          len(w.queue)) for w in workers]))
                yield env.timeout(0.025)

        for at, idx in scenario["steps"]:
            env.process(fire(at, fqdns[idx]))
        env.process(sample())
        env.run(until=60.0)
        cluster.stop()
    # Conservation: every admitted invocation ended exactly one way.
    assert len(outcomes) == len(scenario["steps"])
    dropped = sum(inv.dropped for inv in outcomes)
    timed_out = sum(inv.timed_out for inv in outcomes)
    completed = sum(inv.completed_at is not None and not inv.dropped
                    and not inv.timed_out for inv in outcomes)
    assert completed + dropped + timed_out == len(outcomes)
    assert_memory_conserved(workers)
    return dict(
        records=cluster.records(),
        levels=levels,
        pools=[(w.pool.evictions, w.pool.expirations, w.pool.occupancy(),
                w.memory.level, w.backend.created, w.backend.destroyed)
               for w in workers],
    )


def _scenario(functions, steps, **overrides):
    scenario = dict(
        functions=[{"name": f"f{i}", "timeout": None, **f}
                   for i, f in enumerate(functions)],
        steps=steps, workers=2, lb_policy="round_robin", rpc_latency=0.0005,
        backend="null", memory_mb=1024.0, cores=2, memory_wait_timeout=0.2,
        keepalive_policy="GD", eviction_interval=0.5)
    scenario.update(overrides)
    return scenario


ONE_FUNCTION = [dict(memory_mb=128.0, warm_time=0.1, cold_time=0.2)]
# Spaced arrivals: nothing else steps in a helper's window.
SPACED = _scenario(ONE_FUNCTION, [(0, 0), (10, 0), (20, 0)])
SPACED_WITH_LIMIT = _scenario(
    [dict(ONE_FUNCTION[0], timeout=0.15)], [(0, 0), (10, 0), (20, 0)])
# Two arrivals at one instant on two workers end their calls at one
# instant: each steps inside the other's window.
TWIN = _scenario(ONE_FUNCTION, [(0, 0), (0, 0)])


@settings(max_examples=200, deadline=None)
@example(scenario=SPACED)
@example(scenario=TWIN)
@given(scenario=push_scenarios())
def test_inline_invoke_and_forward_match_the_helper_process_reference(scenario):
    log = WindowLog()
    ours = replay_cluster(scenario)
    reference = replay_cluster(scenario, log)
    if log.ties():
        # Another process stepped inside a helper's window: without the
        # helper the two may run in the other order, so only conservation
        # (checked by replay_cluster) must agree.
        event("a helper's window held another step")
        assert len(ours["records"]) == len(reference["records"])
        return
    event("no helper's window held another step")
    assert ours == reference


@pytest.mark.parametrize("scenario", [SPACED, SPACED_WITH_LIMIT],
                         ids=["no_limit", "limit"])
def test_a_tie_free_push_run_matches_the_reference(scenario):
    log = WindowLog()
    ours = replay_cluster(scenario)
    reference = replay_cluster(scenario, log)
    assert log.windows and not log.ties()
    assert ours == reference
    assert len(ours["records"]) == 3


def test_the_window_log_marks_a_step_inside_a_window():
    log = WindowLog()
    replay_cluster(TWIN, log)
    assert log.ties() is True


# ------------------------------------------- calendar entries per invocation
# ``env._seq`` after the golden push scenario (42 invocations, three
# workers, telemetry on).  Exact: the kernel is deterministic, so this
# moves only when a change adds or removes calendar entries.
GOLDEN_CALENDAR_ENTRIES = 1716


def test_the_golden_push_scenario_spends_an_exact_number_of_calendar_entries():
    env = Environment()
    reduction = run_scenario(env=env)
    assert reduction["invocations"] == len(ARRIVALS) == 42
    assert env._seq == GOLDEN_CALENDAR_ENTRIES
    assert env._seq / 42 == pytest.approx(40.857, abs=1e-3)
