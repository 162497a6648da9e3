"""Edge-path coverage: prewarm failure, client caps, report formatting."""

import pytest

from repro import Environment, FunctionRegistration, Worker, WorkerConfig
from repro.experiments.report import format_table
from repro.loadgen import ClosedLoopClient


def test_prewarm_fails_when_memory_unavailable():
    env = Environment()
    worker = Worker(
        env,
        WorkerConfig(backend="null", cores=2, memory_mb=300.0,
                     free_memory_buffer_mb=0.0, memory_wait_timeout=0.5),
    )
    worker.start()
    worker.register_sync(
        FunctionRegistration(name="big", memory_mb=256.0, warm_time=60.0,
                             cold_time=60.0)
    )
    worker.register_sync(
        FunctionRegistration(name="second", memory_mb=256.0)
    )
    worker.async_invoke("big.1")   # occupies all memory for 60 s
    env.run(until=5.0)
    ok = env.run_process(worker.prewarm("second.1"))
    assert ok is False
    assert worker.pool.available_count("second.1") == 0


def test_prewarm_unknown_function_raises():
    from repro.errors import FunctionNotRegistered

    env = Environment()
    worker = Worker(env, WorkerConfig(backend="null"))
    worker.start()
    with pytest.raises(FunctionNotRegistered):
        env.run_process(worker.prewarm("ghost.1"))


def test_closed_loop_client_max_invocations():
    env = Environment()
    worker = Worker(env, WorkerConfig(backend="null", cores=2,
                                      memory_mb=2048.0))
    worker.start()
    worker.register_sync(FunctionRegistration(name="f", warm_time=0.01,
                                              cold_time=0.02))
    client = ClosedLoopClient(worker, "f.1", max_invocations=3)
    env.run_process(client.run(env, until=100.0))
    assert len(client.results) == 3


def test_closed_loop_client_think_time_validation():
    env = Environment()
    worker = Worker(env, WorkerConfig(backend="null"))
    with pytest.raises(ValueError):
        ClosedLoopClient(worker, "f.1", think_time=-1.0)


def test_format_table_handles_mixed_and_special_values():
    rows = [
        {"a": float("nan"), "b": 1e9, "c": 0.00001},
        {"a": 1, "b": "text", "c": -5},
    ]
    text = format_table(rows)
    assert "nan" in text
    assert "1e+09" in text
    assert "text" in text


def test_format_table_title_only_empty():
    assert format_table([], title="Nothing") == "Nothing\n(no rows)"


def test_worker_with_explicit_backend_instance():
    from repro.containers import NullBackend

    env = Environment()
    backend = NullBackend(env, create_latency=0.01)
    worker = Worker(env, WorkerConfig(backend="containerd"), backend=backend)
    worker.start()
    worker.register_sync(FunctionRegistration(name="f"))
    inv = env.run_process(worker.invoke("f.1"))
    # The injected backend wins over the config string.
    assert worker.backend is backend
    assert inv.cold


def test_registration_version_namespacing():
    env = Environment()
    worker = Worker(env, WorkerConfig(backend="null", cores=2,
                                      memory_mb=2048.0))
    worker.start()
    worker.register_sync(FunctionRegistration(name="f", version=1,
                                              warm_time=0.01, cold_time=0.02))
    worker.register_sync(FunctionRegistration(name="f", version=2,
                                              warm_time=0.01, cold_time=0.02))
    a = env.run_process(worker.invoke("f.1"))
    b = env.run_process(worker.invoke("f.2"))
    # Different versions never share containers.
    assert a.cold and b.cold
    assert worker.pool.available_count("f.1") == 1
    assert worker.pool.available_count("f.2") == 1
