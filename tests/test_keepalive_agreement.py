"""The two keep-alive simulators agree on one trace.

The fast trace simulator (:class:`KeepAliveSimulator`) and the cluster
DES run the same keep-alive store.  With the DES's control-plane noise
removed — null backend, no latency jitter, free create/destroy, no free
memory buffer — and arrivals spaced wider than any invocation's stay on
the worker, both see the same idle containers in the same recency order
at every arrival, so their hit, cold and eviction counts must be equal.
Every policy but HIST is pinned: only the trace simulator prewarms, so
under HIST the two replay different caches by design.
"""

import numpy as np
import pytest

from repro import FunctionRegistration, WorkerConfig
from repro.core.config import WorkerLatencyProfile
from repro.keepalive.policies import make_policy
from repro.keepalive.simulator import KeepAliveSimulator
from repro.loadbalancer import Cluster
from repro.sim import Environment
from repro.trace.model import Trace, TraceFunction

MEMORY_MB = 1024.0
GAP_S = 2.0  # arrivals are 1.5-2.5 s apart, longer than any invocation


def make_trace(seed: int, n: int = 400) -> Trace:
    rng = np.random.default_rng(seed)
    functions = [
        TraceFunction(name=f"f{k}", memory_mb=mem, warm_time=0.05,
                      cold_time=0.05 + init)
        for k, (mem, init) in enumerate([
            (128.0, 0.3), (256.0, 0.5), (256.0, 0.2), (384.0, 0.8),
            (128.0, 0.1), (512.0, 0.6), (256.0, 0.4), (128.0, 0.7),
        ])
    ]
    # Skewed popularity, so some functions are reused while others idle.
    weights = np.array([8, 5, 4, 3, 2, 2, 1, 1], dtype=float)
    idx = rng.choice(len(functions), size=n, p=weights / weights.sum())
    timestamps = GAP_S * np.arange(1, n + 1) + rng.uniform(0, 0.5, size=n)
    return Trace(functions, timestamps, idx)


def replay_cluster(trace: Trace, policy_name: str):
    env = Environment()
    config = WorkerConfig(
        backend="null", cores=4, memory_mb=MEMORY_MB, keepalive_policy=policy_name,
        free_memory_buffer_mb=0.0,
        latency=WorkerLatencyProfile(jitter_fraction=0.0),
    )
    cluster = Cluster(env, num_workers=1, config=config)
    cluster.start()
    for f in trace.functions:
        cluster.register_sync(FunctionRegistration(
            name=f.name, memory_mb=f.memory_mb, warm_time=f.warm_time,
            cold_time=f.cold_time,
        ))
    fqdns = [f"{f.name}.1" for f in trace.functions]

    def arrivals():
        for t, j in zip(trace.timestamps.tolist(), trace.function_idx.tolist()):
            yield env.timeout(t - env.now)
            cluster.async_invoke(fqdns[j])

    env.process(arrivals())
    env.run(until=trace.duration + 10 * GAP_S)
    cluster.stop()
    records = cluster.records()
    assert len(records) == len(trace)
    # Each invocation left the worker before the next one arrived.
    assert max(r.e2e_time for r in records) < np.diff(trace.timestamps).min()
    (worker,) = cluster.workers.values()
    cold = sum(1 for r in records if r.cold)
    return len(records) - cold, cold, worker.pool.evictions


@pytest.mark.parametrize("policy_name", ["LRU", "GD", "FREQ", "LND", "TTL"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_trace_simulator_and_cluster_agree(seed, policy_name):
    trace = make_trace(seed)
    result = KeepAliveSimulator(make_policy(policy_name), MEMORY_MB).run(trace)
    hits, cold, evictions = replay_cluster(trace, policy_name)
    assert result.evictions > 0  # the cache is under pressure
    assert (hits, cold, evictions) == (
        result.warm_starts, result.cold_starts, result.evictions
    )
