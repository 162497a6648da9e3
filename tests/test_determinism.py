"""Determinism regression tests: same seed → identical results.

The paper's motivation for a predictable platform extends to this
reproduction: every experiment must be exactly repeatable from its seed,
or regressions would hide inside run-to-run noise.
"""

import numpy as np

from repro import Environment, FunctionRegistration, Worker, WorkerConfig
from repro.keepalive.simulator import simulate
from repro.loadgen import FunctionMix, build_plan, replay_plan
from repro.metrics import dump_spans_jsonl, load_spans_jsonl
from repro.sim.distributions import Exponential
from repro.telemetry import Telemetry
from repro.trace import AzureTraceConfig, generate_dataset, standard_samples


def _run_worker_workload(seed: int) -> list[tuple]:
    env = Environment()
    worker = Worker(env, WorkerConfig(backend="containerd", cores=4,
                                      memory_mb=2048.0, seed=seed))
    worker.start()
    for i in range(3):
        worker.register_sync(
            FunctionRegistration(name=f"f{i}", warm_time=0.1 + 0.1 * i,
                                 cold_time=0.5 + 0.2 * i, memory_mb=128.0)
        )
    mixes = [FunctionMix(f"f{i}.1", Exponential(0.5 + 0.3 * i)) for i in range(3)]
    plan = build_plan(mixes, duration=30.0, seed=seed)
    invocations = replay_plan(env, worker, plan, grace=60.0)
    worker.stop()
    return [
        (i.function.fqdn(), round(i.arrival, 9), i.cold,
         round(i.e2e_time, 9), i.dropped)
        for i in invocations
    ]


def test_worker_workload_bitwise_repeatable():
    assert _run_worker_workload(seed=42) == _run_worker_workload(seed=42)


def test_worker_workload_seed_sensitivity():
    assert _run_worker_workload(seed=42) != _run_worker_workload(seed=43)


def test_keepalive_simulation_repeatable():
    dataset = generate_dataset(
        AzureTraceConfig(num_functions=400, duration_minutes=120, seed=9)
    )
    traces = standard_samples(dataset, rare_n=80, representative_n=40,
                              random_n=20)
    for trace in traces.values():
        a = simulate(trace, "GD", 4096.0)
        b = simulate(trace, "GD", 4096.0)
        assert a.cold_starts == b.cold_starts
        assert a.total_cold_overhead == b.total_cold_overhead
        assert a.evictions == b.evictions


def test_trace_generation_repeatable():
    cfg = AzureTraceConfig(num_functions=500, duration_minutes=60, seed=77)
    a, b = generate_dataset(cfg), generate_dataset(cfg)
    assert sorted(a.counts) == sorted(b.counts)
    for fn in a.counts:
        assert np.array_equal(a.counts[fn][0], b.counts[fn][0])
        assert np.array_equal(a.counts[fn][1], b.counts[fn][1])


def test_span_jsonl_round_trip(tmp_path):
    env = Environment()
    worker = Worker(env, WorkerConfig(backend="null", cores=2,
                                      memory_mb=2048.0))
    telemetry = Telemetry(env)
    telemetry.attach_worker(worker)
    worker.start()
    worker.register_sync(FunctionRegistration(name="f"))
    env.run_process(worker.invoke("f.1"))
    worker.stop()
    spans = telemetry.spans()
    path = tmp_path / "spans.jsonl"
    written = dump_spans_jsonl(spans, path)
    assert written == len(spans) > 0
    loaded = load_spans_jsonl(path)
    assert loaded == spans
    assert loaded[0].duration >= 0
