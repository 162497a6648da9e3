"""Property test: the worker conserves invocations.

Every fired invocation resolves exactly once — warm, cold, dropped, or
timed out; nothing is lost or double-counted, memory returns to capacity
once the system drains, and no containers leak.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Environment, FunctionRegistration, Worker, WorkerConfig
from repro.containers.base import BackendLatency
from repro.metrics import Outcome

workload_step = st.tuples(
    st.integers(min_value=0, max_value=3),          # function id
    st.floats(min_value=0.0, max_value=2.0),        # gap before firing
)


@settings(max_examples=25, deadline=None)
@given(
    steps=st.lists(workload_step, min_size=1, max_size=40),
    queue_policy=st.sampled_from(["fcfs", "eedf", "mqfq"]),
    memory_mb=st.sampled_from([600.0, 1200.0, 4096.0]),
)
def test_invocation_conservation(steps, queue_policy, memory_mb):
    env = Environment()
    worker = Worker(
        env,
        WorkerConfig(
            backend="null",
            cores=2,
            memory_mb=memory_mb,
            free_memory_buffer_mb=0.0,
            queue_policy=queue_policy,
            memory_wait_timeout=2.0,
            seed=7,
        ),
    )
    worker.start()
    profiles = [
        ("f0", 64.0, 0.05, 0.1, None),
        ("f1", 256.0, 0.5, 1.0, None),
        ("f2", 512.0, 1.5, 3.0, None),
        ("f3", 128.0, 0.2, 0.4, 0.3),   # timeout-prone
    ]
    for name, mem, warm, cold, limit in profiles:
        worker.register_sync(
            FunctionRegistration(name=name, memory_mb=mem, warm_time=warm,
                                 cold_time=cold, timeout=limit)
        )

    events = []

    def driver():
        for fid, gap in steps:
            if gap > 0:
                yield env.timeout(gap)
            events.append(worker.async_invoke(f"f{fid}.1"))

    env.process(driver())
    env.run(until=600.0)
    worker.stop()

    # Conservation: every invocation resolved exactly once.
    assert all(e.triggered for e in events)
    tally = worker.metrics.outcomes()
    assert sum(tally.values()) == len(steps)
    resolved = (
        tally[Outcome.WARM] + tally[Outcome.COLD] + tally[Outcome.BYPASSED]
        + tally[Outcome.DROPPED] + tally[Outcome.TIMEOUT]
    )
    assert resolved == len(steps)

    # Nothing in flight after drain; memory accounting balances.
    assert worker.pool.in_use_count() == 0
    env.run(until=env.now + 60.0)  # let async destroys settle
    # The store's invariants: no evicted container resident, and its
    # used_mb is the resident sum, all of it idle once drained.
    worker.pool.cache.check_invariants(env.now)
    assert worker.pool.cache.used_mb == pytest.approx(
        worker.pool.pooled_memory_mb(), abs=1e-6
    )
    expected_free = worker.memory.capacity - worker.pool.pooled_memory_mb()
    assert worker.memory.level == pytest.approx(expected_free, abs=1e-6)


def test_backend_latency_validation():
    with pytest.raises(ValueError):
        BackendLatency(create_mean=-1.0, create_jitter=0.0, rpc_overhead=0.0,
                       agent_start=0.0, destroy_mean=0.0)
    ok = BackendLatency(create_mean=0.1, create_jitter=0.0, rpc_overhead=0.0,
                        agent_start=0.0, destroy_mean=0.0)
    assert ok.create_mean == 0.1
