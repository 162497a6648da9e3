"""Unit tests for the worker's container pool."""

import pytest

from repro.containers.backends import NullBackend
from repro.core.container_pool import ContainerPool, _resumed
from repro.core.function import FunctionRegistration
from repro.keepalive.policies import (
    POLICY_NAMES,
    GreedyDualPolicy,
    LRUPolicy,
    TTLPolicy,
    make_policy,
)
from repro.sim import Environment, Gauge
from repro.sim.core import Interrupt


REG = FunctionRegistration(name="f", memory_mb=100.0, warm_time=0.1, cold_time=0.5)
REG2 = FunctionRegistration(name="g", memory_mb=100.0, warm_time=0.1, cold_time=0.5)


def make_pool(policy=None, capacity=1000.0, buffer=0.0):
    env = Environment()
    backend = NullBackend(env)
    memory = Gauge(env, capacity=capacity)
    pool = ContainerPool(env, backend, policy or LRUPolicy(), memory,
                         free_buffer_mb=buffer)
    return env, backend, memory, pool


def cold_start(env, memory, pool, reg=REG):
    assert memory.try_take(reg.memory_mb)
    container = env.run_process(pool.backend.create(reg))
    return pool.add_in_use(container, init_cost=reg.init_time)


def test_acquire_returns_none_when_empty():
    env, _b, _m, pool = make_pool()
    assert pool.try_acquire("f.1") is None
    assert not pool.has_available("f.1")


def test_add_return_acquire_cycle():
    env, _b, memory, pool = make_pool()
    entry = cold_start(env, memory, pool)
    assert pool.in_use_count() == 1
    pool.return_entry(entry)
    assert pool.available_count("f.1") == 1
    again = pool.try_acquire("f.1")
    assert again is entry
    assert entry.freq == 2
    assert pool.in_use_count() == 1


def test_return_unknown_entry_raises():
    env, _b, memory, pool = make_pool()
    entry = cold_start(env, memory, pool)
    pool.return_entry(entry)
    with pytest.raises(ValueError):
        pool.return_entry(entry)


def test_evict_for_frees_memory():
    env, _b, memory, pool = make_pool(capacity=200.0)
    e1 = cold_start(env, memory, pool, REG)
    pool.return_entry(e1)
    e2 = cold_start(env, memory, pool, REG2)
    pool.return_entry(e2)
    assert memory.level == 0.0
    freed = pool.evict_for(100.0)
    assert freed == pytest.approx(100.0)
    env.run(until=1.0)  # let async destroy complete
    assert memory.level == pytest.approx(100.0)
    assert pool.evictions == 1


def test_evict_for_skips_in_use():
    env, _b, memory, pool = make_pool(capacity=200.0)
    cold_start(env, memory, pool, REG)  # stays in use
    assert pool.evict_for(100.0) == 0.0
    assert pool.in_use_count() == 1


def test_ttl_expiry_in_sweep():
    env, _b, memory, pool = make_pool(policy=TTLPolicy(ttl=10.0))
    entry = cold_start(env, memory, pool)
    pool.return_entry(entry)
    env.run(until=11.0)
    pool.sweep()
    env.run(until=12.0)
    assert pool.available_count() == 0
    assert pool.expirations == 1
    assert memory.level == pytest.approx(1000.0)


def test_sweep_restores_free_buffer():
    env, _b, memory, pool = make_pool(capacity=300.0, buffer=150.0)
    e1 = cold_start(env, memory, pool, REG)
    pool.return_entry(e1)
    e2 = cold_start(env, memory, pool, REG2)
    pool.return_entry(e2)
    assert memory.level == pytest.approx(100.0)  # below the 150 buffer
    pool.sweep()
    env.run(until=1.0)
    assert memory.level >= 150.0


def test_background_evictor_process():
    env, _b, memory, pool = make_pool(policy=TTLPolicy(ttl=5.0))
    entry = cold_start(env, memory, pool)
    pool.return_entry(entry)
    env.process(pool.evictor())
    env.run(until=10.0)
    pool.stop()
    assert pool.available_count() == 0


def test_expired_entry_reaped_on_acquire():
    env, _b, memory, pool = make_pool(policy=TTLPolicy(ttl=5.0))
    entry = cold_start(env, memory, pool)
    pool.return_entry(entry)
    env.run(until=6.0)
    assert pool.try_acquire("f.1") is None
    assert pool.expirations == 1


def test_gd_policy_orders_victims():
    env, backend, memory, pool = make_pool(policy=GreedyDualPolicy(),
                                           capacity=1000.0)
    cheap = FunctionRegistration(name="cheap", memory_mb=400.0,
                                 warm_time=0.1, cold_time=0.2)
    dear = FunctionRegistration(name="dear", memory_mb=50.0,
                                warm_time=0.1, cold_time=5.0)
    e1 = cold_start(env, memory, pool, cheap)
    pool.return_entry(e1)
    e2 = cold_start(env, memory, pool, dear)
    pool.return_entry(e2)
    pool.evict_for(100.0)
    env.run(until=1.0)
    assert pool.available_count("cheap.1") == 0
    assert pool.available_count("dear.1") == 1


@pytest.mark.parametrize("policy", [LRUPolicy, GreedyDualPolicy])
def test_reused_container_outlives_one_idle_since(policy):
    # Each return must supersede the container's earlier heap tuples:
    # "f" was idle first but is used again after "g" goes idle, so "g"
    # now holds the lower priority under both recency and Greedy-Dual.
    env, _b, memory, pool = make_pool(policy=policy(), capacity=200.0)
    f = cold_start(env, memory, pool, REG)
    env.run(until=1.0)
    pool.return_entry(f)
    g = cold_start(env, memory, pool, REG2)
    env.run(until=2.0)
    pool.return_entry(g)
    for t in (3.0, 4.0, 5.0):
        env.run(until=t)
        assert pool.try_acquire("f.1") is f
        pool.return_entry(f)
    assert pool.evict_for(100.0) == pytest.approx(100.0)
    assert pool.available_count("f.1") == 1
    assert pool.available_count("g.1") == 0


def test_discard_in_use_releases_memory():
    env, _b, memory, pool = make_pool()
    entry = cold_start(env, memory, pool)
    env.run_process(pool.discard_in_use(entry))
    assert pool.in_use_count() == 0
    assert memory.level == pytest.approx(1000.0)


def test_discard_in_use_without_waiting_credits_memory_after_the_destroy():
    env = Environment()
    memory = Gauge(env, capacity=1000.0)
    pool = ContainerPool(env, NullBackend(env, destroy_latency=0.5),
                         LRUPolicy(), memory)
    entry = cold_start(env, memory, pool)
    pool.drop_in_use(entry)
    assert pool.in_use_count() == 0
    assert memory.level == pytest.approx(900.0)
    env.run(until=0.4)
    assert memory.level == pytest.approx(900.0)
    env.run(until=0.6)
    assert memory.level == pytest.approx(1000.0)


def test_a_detached_destroy_receives_what_its_wait_delivers():
    """The continuation of a destroy that waits forwards an interrupt, a
    failed event and the value into the destroy generator."""
    env = Environment()
    seen = []

    def destroy(done):
        try:
            yield env.timeout(1.0)
        except Interrupt as exc:
            seen.append(("interrupt", exc.cause))
        try:
            yield done
        except ValueError as exc:
            seen.append(("failed", str(exc)))
        seen.append(("value", (yield env.timeout(0.5, value=7))))
        return "destroyed"

    done = env.event()
    gen = destroy(done)
    proc = env.process(_resumed(gen, gen.send(None)))
    env.run(until=0.5)
    proc.interrupt("stop")
    env.run(until=0.6)
    done.fail(ValueError("lost"))
    env.run()
    assert seen == [("interrupt", "stop"), ("failed", "lost"), ("value", 7)]
    assert proc.value == "destroyed"


def test_pool_validation():
    env = Environment()
    backend = NullBackend(env)
    memory = Gauge(env, capacity=100.0)
    with pytest.raises(ValueError):
        ContainerPool(env, backend, LRUPolicy(), memory, free_buffer_mb=-1.0)
    with pytest.raises(ValueError):
        ContainerPool(env, backend, LRUPolicy(), memory, eviction_interval=0.0)


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_acquire_return_cycles_do_not_grow_the_heap(policy_name):
    env, _b, memory, pool = make_pool(policy=make_policy(policy_name))
    entry = cold_start(env, memory, pool)
    pool.return_entry(entry)
    for i in range(1, 101):
        env.run(until=float(i))
        assert pool.try_acquire("f.1") is entry
        env.run(until=i + 0.5)
        pool.return_entry(entry)
    assert entry.freq == 101
    assert len(pool.cache._evict_heap) == 1
    pool.cache.check_invariants(now=env.now)
