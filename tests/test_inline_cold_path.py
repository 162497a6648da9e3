"""The cold path runs in the invoking process.

Container create, restore and destroy are sub-generators of the process
that needs them; an eviction's destroy runs inline up to its first wait;
memory admission takes the gauge at once when eviction already freed
enough.  Checked here:

* a function larger than the worker's memory is shed at once, before
  anything is evicted (Ilúvatar worker and OpenWhisk baseline);
* small zero-jitter worker scenarios (ties at one instant are common)
  against a test-only reference that restores the helper processes the
  pool and lifecycle used to start (:class:`HelperProcessPool`,
  :class:`HelperProcessLifecycle`).  Running an operation in its
  caller's step moves it ahead of whatever else was due at its instant,
  so the two agree exactly only where no other process stepped at a
  container operation's instants (:meth:`StepLog.ties`): there, records
  (all fields), gauge levels between instants, eviction counts and
  backend counts must be equal; everywhere, both conserve memory;
* at quiescence every worker conserves memory: the gauge's level plus
  its resident containers' memory is its capacity and no container is
  in use.  No gauge take is pending either, except where an invocation
  was shed waiting for memory: its take stays queued (strict ``xfail``);
* no ``env.process(...)`` in ``src/`` wraps a backend create, restore or
  destroy, or the pool's ``discard_in_use`` (read off the source, like
  ``tests/test_one_loop.py``).
"""

import ast
import collections
import contextlib
import dataclasses
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.baselines import OpenWhiskConfig, OpenWhiskWorker
from repro.containers.backends import NullBackend
from repro.core import worker as worker_module
from repro.core.config import WorkerConfig, WorkerLatencyProfile
from repro.core.container_pool import ContainerPool
from repro.core.function import FunctionRegistration
from repro.core.lifecycle import TIMEOUT, InvocationLifecycle
from repro.core.worker import Worker
from repro.metrics.registry import Outcome
from repro.sim import Environment
from repro.sim.core import Process
from repro.telemetry import TelemetryConfig
from tests.golden_scenario import run_scenario
from tests.run_dir_digests import pull_run
from tests.test_refcount_retirement import timeout_and_shed_replay

SRC = Path(__file__).parent.parent / "src" / "repro"

SMALL = FunctionRegistration(name="small", memory_mb=256, warm_time=0.1,
                             cold_time=0.3)
HUGE = FunctionRegistration(name="huge", memory_mb=2048, warm_time=0.1,
                            cold_time=0.3)


# ------------------------------------------------ oversize function shed
def _shed_after_warm(env, worker):
    """Leave one warm SMALL container, then invoke HUGE; returns its
    completion event."""
    for reg in (SMALL, HUGE):
        worker.register_sync(reg)
    env.run_process(worker.invoke(SMALL.fqdn()))
    done = worker.async_invoke(HUGE.fqdn())
    env.run(until=env.now + 5.0)
    return done


def test_worker_sheds_a_function_larger_than_its_memory():
    env = Environment()
    worker = Worker(env, WorkerConfig(memory_mb=1024.0,
                                      free_memory_buffer_mb=0.0))
    worker.start()
    done = _shed_after_warm(env, worker)
    inv = done.value
    assert inv.dropped and inv.drop_reason == "insufficient memory"
    assert worker.pool.evictions == 0
    assert worker.pool.available_count(SMALL.fqdn()) == 1
    assert worker.memory.level == 1024.0 - SMALL.memory_mb
    # Prewarming it is refused the same way.
    assert env.run_process(worker.prewarm(HUGE.fqdn())) is False


def test_openwhisk_sheds_a_function_larger_than_its_memory():
    env = Environment()
    ow = OpenWhiskWorker(env, OpenWhiskConfig(memory_mb=1024.0))
    ow.start()
    done = _shed_after_warm(env, ow)
    inv = done.value
    assert inv.dropped and inv.drop_reason == "insufficient memory"
    assert ow.pool.evictions == 0
    assert ow.pool.available_count(SMALL.fqdn()) == 1


# ----------------------------------- reference: the old helper processes
class StepLog:
    """Every process step of a reference run, in order, with the
    reference's container operations marked in it as *chains*.

    A chain is opened by a container operation in the process running it
    (its anchor; the operations one step opens form one chain); the
    helper processes it starts, and theirs, are its members.  A waited
    chain also owns the anchor's next step, which resumes it.  Without
    the helpers, the chain's work runs inside the anchor's step (or, past
    a wait, inside one continuation step), so it can change the order of
    the run only against a step of another process at one of the
    chain's instants: after the opening step at the instant it opened,
    or anywhere at a later instant where a member steps.  :meth:`ties`
    says whether any such step happened.
    """

    def __init__(self):
        self.steps = []      # (now, process), in step order
        self.chains = []     # [anchor, opened at, step index, waited]
        self.member = {}     # helper process -> chain
        self._opened = {}    # anchor -> (chain, step count when opened)

    def record(self, process):
        self.steps.append((process.env.now, process))

    def open(self, env, waited):
        anchor = env.active_process
        chain = self.member.get(anchor)
        if chain is None:
            last = self._opened.get(anchor)
            if last is not None and last[1] == len(self.steps):
                chain = last[0]
            else:
                chain = len(self.chains)
                self.chains.append([anchor, env.now, len(self.steps), False])
                self._opened[anchor] = (chain, len(self.steps))
        self.chains[chain][3] |= waited

    def helper(self, env, generator, name=""):
        """Start ``generator`` as a member of the active chain."""
        active = env.active_process
        chain = self.member.get(active)
        if chain is None:
            chain = self._opened[active][0]
        process = env.process(generator, name=name)
        self.member[process] = chain
        return process

    def ties(self) -> bool:
        at = collections.defaultdict(list)
        instants = collections.defaultdict(set)
        for i, (now, process) in enumerate(self.steps):
            at[now].append((i, process))
            chain = self.member.get(process)
            if chain is not None:
                instants[chain].add(now)
        for chain, (anchor, opened, index, waited) in enumerate(self.chains):
            resume = None
            if waited:
                resume = next((i for i in range(index, len(self.steps))
                               if self.steps[i][1] is anchor), None)
            for now in instants[chain] | {opened}:
                for i, process in at[now]:
                    if self.member.get(process) == chain or i == resume:
                        continue
                    if now != opened or i >= index:
                        return True
        return False


class HelperProcessPool(ContainerPool):
    """Reference pool: every destroy is a DES process of its own, and
    admission after eviction always waits on an ``any_of``."""

    log: StepLog

    def drop_in_use(self, entry):
        self.log.open(self.env, waited=False)
        self.log.helper(self.env, self.discard_in_use(entry))

    def _destroy(self, entry):
        yield self.log.helper(self.env, self.backend.destroy(entry.container))
        self.memory.give(entry.memory_mb)

    def _destroy_detached(self, entry):
        self.log.open(self.env, waited=False)
        self.log.helper(self.env, self._destroy(entry))

    def take_memory(self, memory_mb, wait_timeout):
        memory = self.memory
        if memory.try_take(memory_mb):
            return True
        if memory_mb > memory.capacity:
            return False
        self.log.open(self.env, waited=True)
        self.evict_for(memory_mb - max(memory.level, 0.0))
        take = memory.take(memory_mb)
        timeout = self.env.timeout(wait_timeout)
        result = yield self.env.any_of([take, timeout])
        if take in result:
            return True
        if take.processed:
            memory.give(memory_mb)
        else:
            take.callbacks.append(lambda _e: memory.give(memory_mb))
        return False


class HelperProcessLifecycle(InvocationLifecycle):
    """Reference lifecycle: backend create/restore and the timeout
    path's discard each run in a helper process the invocation waits
    on."""

    def timeout_kill(self, ctx):
        env = self.env
        inv = ctx.inv
        self.stage_enter(ctx, TIMEOUT)
        inv.timed_out = True
        inv.exec_finished_at = env.now
        inv.completed_at = env.now
        self.http_clients.forget(ctx.entry.container.id)
        entry, ctx.entry = ctx.entry, None
        log = self.pool.log
        log.open(env, waited=True)
        yield log.helper(env, self.pool.discard_in_use(entry))
        self.finish(ctx, TIMEOUT, Outcome.TIMEOUT)

    def create_container(self, registration, prewarmed=False):
        w = self.worker
        env = self.env
        log = self.pool.log
        namespace = w.namespaces.acquire()
        plan = w.snapshots.restore_plan(registration)
        log.open(env, waited=True)
        if plan is not None:
            container = yield log.helper(env, self.backend.restore(
                registration, plan[0], namespace=namespace))
            self.metrics.incr("containers.restored")
        else:
            container = yield log.helper(env, self.backend.create(
                registration, namespace=namespace))
            self.metrics.incr("containers.created")
            if w.snapshots.enabled:
                self._schedule_capture(registration)
        return self.pool.add_in_use(
            container, init_cost=registration.init_time, prewarmed=prewarmed)

    def _schedule_capture(self, registration):
        # As the lifecycle's, with the capture a member of the create's
        # chain.
        def capture():
            snapshots = self.worker.snapshots
            yield self.env.timeout(
                snapshots.policy.capture_latency(registration.memory_mb))
            snapshots.capture(registration, self.env.now)

        self.pool.log.helper(self.env, capture())


MEMORIES = (64.0, 128.0, 256.0, 384.0)
TIMES = (0.05, 0.1, 0.2, 0.4)


@st.composite
def worker_scenarios(draw):
    functions = []
    for i in range(draw(st.integers(1, 4))):
        warm = draw(st.sampled_from(TIMES))
        functions.append(dict(
            name=f"f{i}", memory_mb=draw(st.sampled_from(MEMORIES)),
            warm_time=warm, cold_time=warm + draw(st.sampled_from(TIMES)),
            timeout=draw(st.sampled_from((None, None, 0.1, 0.3)))))
    n = len(functions)
    # Arrivals and prewarms on a grid: some share an instant.
    step = st.tuples(st.integers(0, 40), st.integers(0, n - 1),
                     st.sampled_from(("invoke", "invoke", "invoke", "prewarm")))
    return dict(
        functions=functions,
        steps=draw(st.lists(step, min_size=1, max_size=30)),
        memory_mb=draw(st.sampled_from((384.0, 512.0, 768.0))),
        cores=draw(st.sampled_from((1, 2, 4))),
        memory_wait_timeout=draw(st.sampled_from((0.05, 0.2, 1.0))),
        keepalive_policy=draw(st.sampled_from(("GD", "LRU", "TTL"))),
        free_memory_buffer_mb=draw(st.sampled_from((0.0, 128.0))),
        eviction_interval=draw(st.sampled_from((0.1, 0.5))),
        snapshots_enabled=draw(st.booleans()),
        create_latency=draw(st.sampled_from((0.0, 0.0, 0.05, 0.1))),
        destroy_latency=draw(st.sampled_from((0.0, 0.0, 0.05, 0.1))),
    )


def replay_worker(scenario, log=None):
    """Run one scenario on a standalone worker, on the reference pool and
    lifecycle when ``log`` (a :class:`StepLog`) is given; returns the
    outcome it leaves and the stopped worker."""
    env = Environment()
    config = WorkerConfig(
        cores=scenario["cores"], memory_mb=scenario["memory_mb"],
        memory_wait_timeout=scenario["memory_wait_timeout"],
        keepalive_policy=scenario["keepalive_policy"],
        free_memory_buffer_mb=scenario["free_memory_buffer_mb"],
        eviction_interval=scenario["eviction_interval"],
        snapshots_enabled=scenario["snapshots_enabled"],
        # The null backend ignores namespaces, and the pool's refill
        # process would step at every create's instant (a tie).
        namespace_pool_enabled=False,
        latency=WorkerLatencyProfile(jitter_fraction=0.0), seed=3,
    )
    backend = NullBackend(env, create_latency=scenario["create_latency"],
                          destroy_latency=scenario["destroy_latency"])
    if log is not None:
        step = Process._step

        def logged_step(process, advance, arg):
            log.record(process)
            step(process, advance, arg)

        pool = type("LoggedPool", (HelperProcessPool,), {"log": log})
        patches = (mock.patch.object(worker_module, "ContainerPool", pool),
                   mock.patch.object(worker_module, "InvocationLifecycle",
                                     HelperProcessLifecycle),
                   mock.patch.object(Process, "_step", logged_step))
    else:
        patches = ()
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        worker = Worker(env, config, backend=backend)
        worker.start()
        fqdns = [worker.register_sync(FunctionRegistration(**f))
                 for f in scenario["functions"]]
        prewarms = []
        levels = []

        def fire(at, fqdn, kind):
            yield env.timeout(0.05 * at)
            if kind == "prewarm":
                prewarms.append((yield from worker.prewarm(fqdn)))
            else:
                yield worker.async_invoke(fqdn)

        def sample():
            # Between instants: inside one, a zero-cost destroy now
            # credits the gauge before the helper processes' hop would.
            yield env.timeout(0.0125)
            while True:
                levels.append((env.now, worker.memory.level))
                yield env.timeout(0.025)

        for at, idx, kind in scenario["steps"]:
            env.process(fire(at, fqdns[idx], kind))
        env.process(sample())
        env.run(until=60.0)
        worker.stop()
    # Invocation ids come from a process-wide counter: compare ranks.
    records = worker.metrics.records
    rank = {i: k for k, i in enumerate(sorted(r.invocation_id for r in records))}
    return dict(
        records=[dataclasses.replace(r, invocation_id=rank[r.invocation_id])
                 for r in records],
        levels=levels,
        level=worker.memory.level,
        evictions=worker.pool.evictions,
        expirations=worker.pool.expirations,
        prewarms=prewarms,
        created=backend.created,
        destroyed=backend.destroyed,
    ), worker


def _scenario(functions, steps, **overrides):
    scenario = dict(
        functions=[dict(name=f"f{i}", timeout=None, **f)
                   for i, f in enumerate(functions)],
        steps=steps, memory_mb=384.0, cores=1, memory_wait_timeout=0.05,
        keepalive_policy="GD", free_memory_buffer_mb=0.0,
        eviction_interval=0.1, snapshots_enabled=False, create_latency=0.0,
        destroy_latency=0.0)
    scenario.update(overrides)
    return scenario


# A shed invocation's take is granted by a destroy that ends at its
# wait's own deadline: the grant is processed before the shed path runs.
GRANT_AT_DEADLINE = _scenario(
    [dict(memory_mb=64.0, warm_time=0.05, cold_time=0.1),
     dict(memory_mb=384.0, warm_time=0.05, cold_time=0.1)],
    [(0, 0, "invoke"), (0, 1, "invoke")], destroy_latency=0.05)
# A prewarm at an evictor tick: the sweep now sees the new container.
PREWARM_AT_SWEEP = _scenario(
    [dict(memory_mb=384.0, warm_time=0.05, cold_time=0.1)],
    [(4, 0, "prewarm")], free_memory_buffer_mb=128.0)


@settings(max_examples=200, deadline=None)
@example(scenario=GRANT_AT_DEADLINE)
@example(scenario=PREWARM_AT_SWEEP)
@given(scenario=worker_scenarios())
def test_inline_cold_path_matches_the_helper_process_reference(scenario):
    log = StepLog()
    ours, worker = replay_worker(scenario)
    reference, reference_worker = replay_worker(scenario, log)
    for w in (worker, reference_worker):
        assert_memory_conserved([w])
    if log.ties():
        # Another process stepped at one of a container operation's
        # instants: running the operation in its caller's step may
        # reorder the two, so only conservation must agree.
        event("a container operation shared an instant")
        assert len(ours["records"]) == len(reference["records"])
        return
    event("no container operation shared an instant")
    assert ours == reference


def test_the_step_log_marks_ties_at_a_cold_path_instant():
    for scenario, tie in ((GRANT_AT_DEADLINE, True), (PREWARM_AT_SWEEP, True),
                          (_scenario([dict(memory_mb=64.0, warm_time=0.05,
                                           cold_time=0.1)],
                                     [(1, 0, "invoke")]), False)):
        log = StepLog()
        replay_worker(scenario, log)
        assert log.ties() is tie


# ------------------------------------------------ conservation at quiescence
def assert_memory_conserved(workers):
    for w in workers:
        resident = list(w.pool.cache)
        assert w.pool.in_use_count() == 0
        assert w.memory.level + sum(e.memory_mb for e in resident) \
            == w.memory.capacity


def _latency_backend_replay():
    """One small worker on a null backend whose create and destroy cost
    time: memory pressure, evictions, sheds, timeouts and prewarms."""
    env = Environment()
    backend = NullBackend(env, create_latency=0.05, destroy_latency=0.2)
    worker = Worker(env, WorkerConfig(
        cores=2, memory_mb=640.0, free_memory_buffer_mb=64.0,
        memory_wait_timeout=0.15, eviction_interval=0.5, seed=9,
    ), backend=backend)
    worker.start()
    fqdns = [worker.register_sync(FunctionRegistration(
        name=f"f{i}", memory_mb=128.0 * (1 + i % 3), warm_time=0.2,
        cold_time=0.5, timeout=0.3 if i == 4 else None)) for i in range(6)]
    outcomes = []

    def fire(at, fqdn, prewarm):
        yield env.timeout(at)
        if prewarm:
            yield from worker.prewarm(fqdn)
        else:
            outcomes.append((yield worker.async_invoke(fqdn)))

    for k in range(40):
        env.process(fire(0.1 * (k // 3), fqdns[(7 * k) % 6], k % 11 == 5))
    env.run(until=30.0)
    worker.stop()
    assert any(inv.dropped for inv in outcomes)
    assert any(inv.timed_out for inv in outcomes)
    assert worker.pool.evictions > 0
    return [worker]


QUIESCENT_REPLAYS = {
    "golden_push": lambda: run_scenario(return_telemetry=True)[1]._workers,
    "observed_pull": lambda: pull_run(TelemetryConfig(
        interval=1.0, sample_energy=True, trace=True, health=True))._workers,
    "timeout_and_shed": lambda: list(timeout_and_shed_replay()[0].workers.values()),
    "latency_backend": _latency_backend_replay,
}
# A shed invocation's take stays queued in the gauge until memory frees
# (``ContainerPool.take_memory`` gives it back once granted).  Withdrawing
# it instead moves the OpenWhisk drop counts of figures 6 and 7.
ABANDONED_TAKES = pytest.mark.xfail(
    strict=True, reason="a shed invocation's take stays queued in the gauge")


@pytest.mark.parametrize("name", QUIESCENT_REPLAYS)
def test_memory_is_conserved_at_quiescence(name):
    workers = QUIESCENT_REPLAYS[name]()
    assert len(workers) >= 1
    assert_memory_conserved(workers)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=ABANDONED_TAKES)
    if name == "timeout_and_shed" else name for name in QUIESCENT_REPLAYS])
def test_no_gauge_take_is_pending_at_quiescence(name):
    workers = QUIESCENT_REPLAYS[name]()
    assert [w.memory._waiting for w in workers] == [[]] * len(workers)


# ------------------------------------------------------- source contract
CONTAINER_OPS = {"create", "restore", "destroy"}


def _wrapped_container_ops(tree):
    """``(line, call)`` of each ``*.process(...)`` call whose argument is
    a backend container operation or the pool's ``discard_in_use``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "process"):
            continue
        for arg in ast.walk(ast.Module(body=[ast.Expr(a) for a in node.args],
                                       type_ignores=[])):
            if not (isinstance(arg, ast.Call)
                    and isinstance(arg.func, ast.Attribute)):
                continue
            owner = ast.unparse(arg.func.value)
            name = arg.func.attr
            if (name in CONTAINER_OPS and owner.endswith("backend")) or \
                    name == "discard_in_use":
                found.append((node.lineno, ast.unparse(arg)))
    return sorted(found)


def test_the_contract_reader_finds_a_wrapped_operation():
    tree = ast.parse("c = yield self.env.process(self.backend.create(reg))\n"
                     "env.process(pool.discard_in_use(entry))\n"
                     "env.process(self.backend.invoke(c, t))\n")
    assert [call for _line, call in _wrapped_container_ops(tree)] == [
        "self.backend.create(reg)", "pool.discard_in_use(entry)"]


def test_no_container_operation_runs_in_a_helper_process():
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites += [f"{path.relative_to(SRC)}:{line}: {call}"
                  for line, call in _wrapped_container_ops(tree)]
    assert sites == []
