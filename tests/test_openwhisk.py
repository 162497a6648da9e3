"""Tests for the OpenWhisk baseline model (and its FaasCache variant)."""

import numpy as np
import pytest

from repro.baselines import GCModel, OpenWhiskConfig, OpenWhiskWorker
from repro.baselines.components import (
    ControllerModel,
    CouchDBModel,
    KafkaModel,
    NginxModel,
)
from repro.core.function import FunctionRegistration
from repro.sim import Environment


def reg(name="f", warm=0.1, cold=0.5, mem=256.0):
    return FunctionRegistration(name=name, warm_time=warm, cold_time=cold,
                                memory_mb=mem)


def make_ow(**overrides):
    env = Environment()
    defaults = dict(cores=8, memory_mb=4096.0, seed=11)
    defaults.update(overrides)
    worker = OpenWhiskWorker(env, OpenWhiskConfig(**defaults))
    worker.start()
    return env, worker


# -------------------------------------------------------------- components
def test_component_latency_ranges():
    rng = np.random.default_rng(0)
    assert 0 < NginxModel().latency(rng) < 0.01
    assert ControllerModel().latency(rng, inflight=1000) <= 0.003  # paper bound
    assert KafkaModel().latency(rng, backlog=0) >= 0.004
    assert CouchDBModel().write_latency(rng, inflight=0) <= 0.5


def test_kafka_latency_grows_with_backlog():
    rng = np.random.default_rng(1)
    low = np.mean([KafkaModel().latency(rng, 0) for _ in range(200)])
    high = np.mean([KafkaModel().latency(rng, 100) for _ in range(200)])
    assert high > low + 0.1


def test_couchdb_heavy_tail_capped():
    rng = np.random.default_rng(2)
    samples = [CouchDBModel().write_latency(rng, 0) for _ in range(2000)]
    assert max(samples) <= 0.5
    assert np.percentile(samples, 99) > np.percentile(samples, 50) * 3


def test_gc_pauses_accumulate():
    env = Environment()
    gc = GCModel(env, np.random.default_rng(3), base_interval=1.0)
    env.process(gc.collector())
    env.run(until=60.0)
    gc.stop()
    assert gc.pauses > 10
    assert gc.total_pause_time > 0


def test_gc_stall_blocks_until_pause_end():
    env = Environment()
    gc = GCModel(env, np.random.default_rng(4))
    gc.pause_until = 5.0

    def proc():
        yield from gc.stall()
        return env.now

    assert env.run_process(proc()) == 5.0


def test_gc_validation():
    env = Environment()
    with pytest.raises(ValueError):
        GCModel(env, np.random.default_rng(0), base_interval=0.0)


# ------------------------------------------------------------------ worker
def test_ow_cold_then_warm():
    env, ow = make_ow()
    ow.register_sync(reg())
    first = env.run_process(ow.invoke("f.1"))
    assert first.cold
    second = env.run_process(ow.invoke("f.1"))
    assert not second.cold


def test_ow_overhead_exceeds_iluvatar_scale():
    env, ow = make_ow()
    ow.register_sync(reg())
    env.run_process(ow.invoke("f.1"))
    overheads = []
    for _ in range(30):
        inv = env.run_process(ow.invoke("f.1"))
        overheads.append(inv.overhead)
    # Paper Figure 1: OpenWhisk warm overhead is >10 ms.
    assert np.median(overheads) > 0.010


def test_ow_buffer_full_drops():
    env, ow = make_ow(buffer_max=4, cores=1)
    ow.register_sync(reg(warm=5.0, cold=10.0))
    events = [ow.async_invoke("f.1") for _ in range(10)]
    env.run(until=1.0)
    done = [e.value for e in events if e.triggered]
    assert sum(1 for i in done if i.dropped) >= 6


def test_ow_memory_starvation_drops():
    env, ow = make_ow(memory_mb=300.0, memory_wait_timeout=1.0)
    ow.register_sync(reg(name="big", mem=256.0, warm=30.0, cold=40.0))
    ow.register_sync(reg(name="other", mem=256.0))
    first = ow.async_invoke("big.1")
    env.run(until=5.0)
    second = ow.async_invoke("other.1")
    env.run(until=15.0)
    assert second.triggered and second.value.dropped


def test_ow_cpu_stretch_under_load():
    env, ow = make_ow(cores=1)
    ow.register_sync(reg(name="a", warm=2.0, cold=2.5, mem=64.0))
    ow.register_sync(reg(name="b", warm=2.0, cold=2.5, mem=64.0))
    events = [ow.async_invoke("a.1"), ow.async_invoke("b.1")]
    env.run(until=30.0)
    done = [e.value for e in events]
    # At least one ran concurrently with the other on 1 core -> stretched
    # beyond its base execution time.
    assert max(i.e2e_time for i in done) > 3.0


def test_ow_ttl_policy_expires_containers():
    env, ow = make_ow(keepalive_ttl=10.0)
    ow.register_sync(reg())
    env.run_process(ow.invoke("f.1"))
    env.run(until=env.now + 60.0)  # TTL reaper sweeps
    assert ow.pool.available_count() == 0
    inv = env.run_process(ow.invoke("f.1"))
    assert inv.cold


def test_faascache_variant_uses_gd():
    env = Environment()
    fc = OpenWhiskWorker(env, OpenWhiskConfig(keepalive_policy="GD"))
    assert fc.keepalive_policy.name == "GD"


def test_ow_status_fields():
    env, ow = make_ow()
    ow.register_sync(reg())
    env.run_process(ow.invoke("f.1"))
    status = ow.status()
    assert status["warm_containers"] == 1
    assert status["inflight"] == 0
    assert "gc_pauses" in status


def test_ow_unknown_function():
    from repro.errors import FunctionNotRegistered

    env, ow = make_ow()
    with pytest.raises(FunctionNotRegistered):
        ow.async_invoke("ghost.1")


def test_ow_config_validation():
    with pytest.raises(ValueError):
        OpenWhiskConfig(cores=0)
    with pytest.raises(ValueError):
        OpenWhiskConfig(buffer_max=0)


# ------------------------------------------------------- shared lifecycle
def test_ow_drives_shared_stage_pipeline():
    """The baseline runs the same InvocationContext through the shared
    stage names (no dispatch stage: OpenWhisk has no dispatcher)."""
    from repro.core.lifecycle import (
        ACQUIRE, ADMIT, COLD_CREATE, COMPLETE, ENQUEUE, EXECUTE, WARM,
        InvocationContext,
    )
    from repro.metrics.registry import Outcome
    from tests.test_lifecycle import stage_walk

    env, worker = make_ow()
    worker.lifecycle.keep_contexts = True
    worker.register_sync(reg())
    results = []

    def submit(at):
        yield env.timeout(at)
        inv = yield from worker.invoke("f.1")
        results.append(inv)

    env.process(submit(0.0), name="cold")
    env.process(submit(5.0), name="warm")
    env.run(until=30.0)

    assert [inv.cold for inv in results] == [True, False]
    contexts = worker.lifecycle.contexts
    assert [type(c) for c in contexts] == [InvocationContext, InvocationContext]
    assert [c.inv for c in contexts] == results
    cold, warm = contexts
    assert stage_walk(cold) == [
        ADMIT, ENQUEUE, ACQUIRE, COLD_CREATE, EXECUTE, COMPLETE
    ]
    assert stage_walk(warm) == [ADMIT, ENQUEUE, ACQUIRE, WARM, EXECUTE, COMPLETE]
    assert [c.outcome for c in contexts] == [Outcome.COLD, Outcome.WARM]


def test_ow_drop_closes_shared_context():
    from repro.core.lifecycle import ADMIT, DROP
    from repro.metrics.registry import Outcome
    from tests.test_lifecycle import stage_walk

    env, worker = make_ow(buffer_max=1, memory_mb=4096.0)
    worker.lifecycle.keep_contexts = True
    worker.register_sync(reg(warm=1.0, cold=2.0))
    for _ in range(5):
        worker.async_invoke("f.1")
    env.run(until=30.0)
    dropped = [c for c in worker.lifecycle.contexts
               if c.outcome is Outcome.DROPPED]
    assert dropped, "expected buffer-full drops"
    for ctx in dropped:
        assert ctx.inv.drop_reason == "activation buffer full"
        # A full activation buffer sheds the invocation at admission.
        assert stage_walk(ctx) == [ADMIT, DROP]
