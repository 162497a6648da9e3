"""The error taxonomy: one base class, documented attributes, and the
pipeline recording the right terminal outcomes.

``repro.errors`` is the layering root (every layer may import it), so its
contract is pinned here: every public exception subclasses
:class:`ReproError`, constructor attributes survive on the instance, and
the lifecycle's drop / timeout-kill stages produce the documented
invocation state and records.
"""

import inspect

import pytest

import repro.errors as errors_mod
from repro.core.config import WorkerConfig
from repro.core.function import FunctionRegistration
from repro.core.worker import Worker
from repro.errors import (
    ConfigurationError,
    ContainerError,
    DuplicateRegistration,
    FunctionNotRegistered,
    InsufficientResources,
    InvocationDropped,
    ReproError,
)
from repro.metrics.registry import Outcome
from repro.sim.core import Environment


# --------------------------------------------------------------- hierarchy
def test_all_public_exceptions_subclass_repro_error():
    public = [getattr(errors_mod, name) for name in errors_mod.__all__]
    assert ReproError in public
    for exc in public:
        assert inspect.isclass(exc) and issubclass(exc, ReproError), exc
        assert issubclass(exc, Exception)


def test_module_exports_every_defined_exception():
    defined = {
        name
        for name, obj in vars(errors_mod).items()
        if inspect.isclass(obj) and issubclass(obj, Exception)
    }
    assert defined == set(errors_mod.__all__)


def test_documented_attributes():
    e = FunctionNotRegistered("f.1")
    assert e.name == "f.1" and "f.1" in str(e)
    e = DuplicateRegistration("f.1")
    assert e.name == "f.1" and "already" in str(e)
    e = InvocationDropped("f.1", reason="insufficient memory")
    assert e.function == "f.1"
    assert e.reason == "insufficient memory"
    assert "insufficient memory" in str(e)
    # Default reason is the common shed cause.
    assert InvocationDropped("f.1").reason == "queue overflow"
    for exc in (ContainerError, InsufficientResources, ConfigurationError):
        assert str(exc("boom")) == "boom"


def test_catching_the_base_class_catches_everything():
    for e in (
        FunctionNotRegistered("f.1"),
        DuplicateRegistration("f.1"),
        InvocationDropped("f.1"),
        ContainerError("x"),
    ):
        with pytest.raises(ReproError):
            raise e


# ------------------------------------------------------- worker raise sites
def test_unregistered_invoke_raises():
    env = Environment()
    worker = Worker(env, WorkerConfig(cores=2, memory_mb=1024, free_memory_buffer_mb=0.0))
    with pytest.raises(FunctionNotRegistered) as exc_info:
        worker.async_invoke("ghost.1")
    assert exc_info.value.name == "ghost.1"


def test_duplicate_registration_raises():
    env = Environment()
    worker = Worker(env, WorkerConfig(cores=2, memory_mb=1024, free_memory_buffer_mb=0.0))
    reg = FunctionRegistration(name="f", memory_mb=128, warm_time=0.1, cold_time=0.3)
    worker.register_sync(reg)
    with pytest.raises(DuplicateRegistration) as exc_info:
        worker.register_sync(reg)
    assert exc_info.value.name == reg.fqdn()


# -------------------------------------------------- drop / timeout recording
def _run_one(config, registration, until=60.0):
    env = Environment()
    worker = Worker(env, config)
    worker.start()
    worker.register_sync(registration)
    done = {}

    def submit():
        inv = yield from worker.invoke(registration.fqdn())
        done["inv"] = inv

    env.process(submit(), name="submit")
    env.run(until=until)
    return worker, done["inv"]


def test_drop_path_records_reason_and_outcome():
    # Two 200 MB functions on a 256 MB worker: the second cold start waits
    # for memory held by the still-running first one, exhausts the
    # memory_wait_timeout, and the lifecycle's drop stage sheds it with
    # the documented reason.
    env = Environment()
    worker = Worker(
        env,
        WorkerConfig(cores=2, memory_mb=256, memory_wait_timeout=0.5,
                     free_memory_buffer_mb=0.0),
    )
    worker.start()
    hog = FunctionRegistration(name="hog", memory_mb=200, warm_time=5.0, cold_time=5.0)
    late = FunctionRegistration(name="late", memory_mb=200, warm_time=0.1, cold_time=0.3)
    worker.register_sync(hog)
    worker.register_sync(late)
    dropped_inv = {}

    def submit_late():
        yield env.timeout(0.5)
        inv = yield from worker.invoke(late.fqdn())
        dropped_inv["inv"] = inv

    worker.async_invoke(hog.fqdn())
    env.process(submit_late(), name="late")
    env.run(until=60.0)

    inv = dropped_inv["inv"]
    assert inv.dropped is True
    assert inv.drop_reason == "insufficient memory"
    assert worker.dropped == 1 and worker.metrics.count("invocations.dropped") == 1
    [record] = [r for r in worker.metrics.records if r.outcome is Outcome.DROPPED]
    assert record.function == late.fqdn()
    # The invocation state maps onto the taxonomy's InvocationDropped.
    err = InvocationDropped(record.function, reason=inv.drop_reason)
    assert err.reason == inv.drop_reason and err.function == late.fqdn()


def test_queue_overflow_drop_reason():
    # queue_max_len=1 and no free cores: the second enqueued invocation
    # observes a full queue at insertion and is shed.
    env = Environment()
    worker = Worker(
        env,
        WorkerConfig(cores=1, memory_mb=1024, free_memory_buffer_mb=0.0,
                     concurrency_limit=1, queue_max_len=1),
    )
    worker.start()
    reg = FunctionRegistration(name="f", memory_mb=64, warm_time=2.0, cold_time=2.5)
    worker.register_sync(reg)
    events = [worker.async_invoke(reg.fqdn()) for _ in range(4)]
    env.run(until=60.0)
    done = [e.value for e in events]
    dropped = [i for i in done if i.dropped]
    assert dropped, "expected at least one overflow drop"
    assert all(i.drop_reason == "queue overflow" for i in dropped)
    assert worker.dropped == len(dropped)


def test_timeout_kill_records_timeout_outcome():
    reg = FunctionRegistration(
        name="slow", memory_mb=64, warm_time=5.0, cold_time=6.0, timeout=0.5
    )
    worker, inv = _run_one(WorkerConfig(cores=2, memory_mb=1024, free_memory_buffer_mb=0.0), reg)
    assert inv.timed_out is True
    assert inv.dropped is False
    assert worker.timeouts == 1 and worker.metrics.count("invocations.timeout") == 1
    [record] = worker.metrics.records
    assert record.outcome is Outcome.TIMEOUT
    # The killed container was discarded, not returned to the pool.
    assert worker.pool.available_count() == 0
