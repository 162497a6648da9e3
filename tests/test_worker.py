"""Integration tests for the Ilúvatar worker."""

import numpy as np
import pytest

from repro import (
    DuplicateRegistration,
    Environment,
    FunctionRegistration,
    FunctionNotRegistered,
    Worker,
    WorkerConfig,
)
from repro.metrics import Outcome


def make_worker(env=None, **overrides):
    env = env or Environment()
    defaults = dict(backend="null", cores=4, memory_mb=2048.0, seed=3)
    defaults.update(overrides)
    worker = Worker(env, WorkerConfig(**defaults))
    worker.start()
    return env, worker


def reg(name="hello", warm=0.05, cold=0.5, mem=256.0):
    return FunctionRegistration(name=name, warm_time=warm, cold_time=cold,
                                memory_mb=mem)


def test_first_invocation_cold_second_warm():
    env, worker = make_worker()
    worker.register_sync(reg())
    first = env.run_process(worker.invoke("hello.1"))
    assert first.cold
    second = env.run_process(worker.invoke("hello.1"))
    assert not second.cold
    assert second.e2e_time < first.e2e_time


def test_invoke_unregistered_raises():
    env, worker = make_worker()
    with pytest.raises(FunctionNotRegistered):
        worker.async_invoke("ghost.1")


def test_duplicate_registration_rejected():
    env, worker = make_worker()
    worker.register_sync(reg())
    with pytest.raises(DuplicateRegistration):
        worker.register_sync(reg())


def test_register_process_pulls_image():
    env, worker = make_worker()
    fqdn = env.run_process(worker.register(reg()))
    assert fqdn == "hello.1"
    assert env.now > 0  # image pull took time
    assert worker.image_registry.pulls == 1


def test_prewarm_enables_warm_first_invocation():
    env, worker = make_worker()
    worker.register_sync(reg())
    assert env.run_process(worker.prewarm("hello.1"))
    inv = env.run_process(worker.invoke("hello.1"))
    assert not inv.cold


def test_warm_overhead_is_milliseconds():
    env, worker = make_worker()
    worker.register_sync(reg())
    env.run_process(worker.invoke("hello.1"))
    inv = env.run_process(worker.invoke("hello.1"))
    assert inv.overhead < 0.010  # < 10 ms, paper: ~2 ms


def test_concurrent_same_function_burst_mitigated():
    # The queue + regulator keep concurrent cold starts at the concurrency
    # limit, then reuse warm containers (Section 4's herd mitigation).
    env, worker = make_worker(cores=4)
    worker.register_sync(reg(warm=0.4, cold=2.4))
    events = [worker.async_invoke("hello.1") for _ in range(12)]
    env.run(until=120.0)
    done = [e.value for e in events]
    assert all(not i.dropped for i in done)
    assert sum(i.cold for i in done) == 4


def test_queue_overflow_drops():
    env, worker = make_worker(cores=1, queue_max_len=2, bypass_enabled=False)
    worker.register_sync(reg(warm=5.0, cold=10.0))
    events = [worker.async_invoke("hello.1") for _ in range(10)]
    env.run(until=200.0)
    done = [e.value for e in events]
    assert any(i.dropped for i in done)
    assert worker.dropped >= 1
    tally = worker.metrics.outcomes()
    assert tally[Outcome.DROPPED] == worker.dropped


def test_memory_exhaustion_drops_after_timeout():
    env, worker = make_worker(
        memory_mb=300.0,
        free_memory_buffer_mb=0.0,
        memory_wait_timeout=1.0,
        bypass_enabled=False,
    )
    worker.register_sync(reg(name="big", mem=256.0, warm=50.0, cold=60.0))
    worker.register_sync(reg(name="other", mem=256.0, warm=0.1, cold=0.2))
    first = worker.async_invoke("big.1")   # holds all memory for 60 s
    env.run(until=5.0)                      # big is executing now
    second = worker.async_invoke("other.1")
    env.run(until=30.0)
    assert second.triggered
    assert second.value.dropped
    assert second.value.drop_reason == "insufficient memory"
    assert not first.triggered  # still running


def test_bypass_marks_invocations():
    env, worker = make_worker()
    worker.register_sync(reg(warm=0.05, cold=0.5))
    env.run_process(worker.invoke("hello.1"))
    env.run_process(worker.invoke("hello.1"))
    inv = env.run_process(worker.invoke("hello.1"))
    assert inv.bypassed
    assert worker.metrics.count("queue.bypassed") >= 1


def test_bypass_disabled_config():
    env, worker = make_worker(bypass_enabled=False)
    worker.register_sync(reg())
    for _ in range(3):
        inv = env.run_process(worker.invoke("hello.1"))
    assert not inv.bypassed


def test_spans_recorded_for_warm_path():
    env, worker = make_worker()
    worker.register_sync(reg(warm=0.2))  # above bypass threshold
    env.run_process(worker.invoke("hello.1"))
    worker.lifecycle.keep_contexts = True
    env.run_process(worker.invoke("hello.1"))
    (ctx,) = worker.lifecycle.contexts
    names = set(ctx.intervals[0::3])
    for expected in ("invoke", "enqueue_invocation", "dequeue",
                     "acquire_container", "prepare_invoke", "return_results"):
        assert expected in names


def test_status_snapshot_fields():
    env, worker = make_worker()
    worker.register_sync(reg())
    env.run_process(worker.invoke("hello.1"))
    status = worker.status()
    assert status["name"] == worker.name
    assert status["warm_containers"] == 1
    assert status["queue_length"] == 0
    assert status["free_memory_mb"] < 2048.0


def test_characteristics_learned():
    env, worker = make_worker()
    worker.register_sync(reg(warm=0.05, cold=0.5))
    env.run_process(worker.invoke("hello.1"))
    env.run_process(worker.invoke("hello.1"))
    stats = worker.characteristics.get("hello.1")
    assert stats.invocations == 2
    assert stats.cold_invocations == 1
    assert stats.warm_time == pytest.approx(0.05)
    assert stats.cold_time == pytest.approx(0.5)


def test_keepalive_eviction_under_pressure():
    env, worker = make_worker(memory_mb=600.0, free_memory_buffer_mb=0.0)
    for i in range(4):
        worker.register_sync(reg(name=f"f{i}", mem=256.0))
    for i in range(4):
        inv = env.run_process(worker.invoke(f"f{i}.1"))
        assert not inv.dropped
    # Only two 256 MB containers fit; older ones were evicted.
    assert worker.pool.available_count() <= 2
    assert worker.pool.evictions >= 2


def test_dynamic_concurrency_mode_runs():
    env, worker = make_worker(dynamic_concurrency=True)
    worker.register_sync(reg())
    env.run_process(worker.invoke("hello.1"))
    env.run(until=30.0)
    worker.stop()
    assert worker.regulator.limit >= 1


def test_worker_double_start_rejected():
    env = Environment()
    worker = Worker(env, WorkerConfig(backend="null"))
    worker.start()
    with pytest.raises(RuntimeError):
        worker.start()


def test_async_invoke_returns_event():
    env, worker = make_worker()
    worker.register_sync(reg())
    done = worker.async_invoke("hello.1")
    assert not done.triggered
    env.run(until=10.0)
    assert done.triggered
    assert done.value.completed_at is not None


def test_queue_policy_configurable():
    for policy in ("fcfs", "sjf", "eedf", "rare"):
        env, worker = make_worker(queue_policy=policy)
        worker.register_sync(reg())
        inv = env.run_process(worker.invoke("hello.1"))
        assert inv.completed_at is not None


def test_hist_pool_releases_predictable_function_at_return():
    # The DES worker schedules no HIST preloads: once a function's IATs
    # are predictable (here a steady 2-minute gap), its container expires
    # the moment it is returned and the next invocation cold-starts.
    env, worker = make_worker(keepalive_policy="HIST")
    worker.register_sync(reg())
    policy = worker.keepalive_policy
    colds = []
    for k in range(7):
        env.run(until=1000.0 + 120.0 * k)
        colds.append(env.run_process(worker.invoke("hello.1")).cold)
        (entry,) = worker.pool.cache.containers_of("hello.1")
        windows = policy._windows("hello.1")
        if windows is None:
            assert entry.expires_at == entry.last_used + policy.generic_ttl
        else:
            assert windows[0] > 0  # a real gap is predicted
            assert entry.expires_at == entry.last_used
    # min_samples IATs make the function predictable; warm until then.
    assert colds == [True, False, False, False, False, True, True]
