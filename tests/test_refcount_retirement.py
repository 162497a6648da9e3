"""A replay leaves no cyclic garbage: per-invocation objects die by
reference count.

The simulator creates several DES processes per invocation (ingest,
handle, backend invoke, the LB forward hop).  If any of them, or any other
per-invocation object, sat in a reference cycle once finished, only the
cyclic garbage collector could free it, and the collector's passes would
grow with the replay.  Each test replays a scenario with the collector off
and ``gc.DEBUG_SAVEALL`` set, keeps the run's roots alive, and then asks
the collector what it would have freed: nothing from ``repro``, and no
generator or frame.

Each scenario is replayed once untimed first, so the garbage that first
imports leave behind (class-creation cycles) is not counted.
"""

from __future__ import annotations

import collections
import gc
import types

from repro.core.config import WorkerConfig
from repro.core.function import FunctionRegistration
from repro.loadbalancer.cluster import Cluster
from repro.metrics.registry import Outcome
from repro.sim.core import Environment
from repro.telemetry import TelemetryConfig
from tests.golden_scenario import run_scenario
from tests.run_dir_digests import pull_run


def _is_replay_object(obj) -> bool:
    if isinstance(obj, (types.GeneratorType, types.FrameType)):
        return True
    if isinstance(obj, types.FunctionType):
        return (obj.__module__ or "").startswith("repro")
    return type(obj).__module__.startswith("repro")


def cyclic_garbage(replay) -> collections.Counter:
    """Types (by qualified name) of the replay objects that only the
    cyclic collector would free after ``replay()``, whose return value is
    kept alive while the collector looks."""
    replay()   # imports, caches
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        roots = replay()
        gc.collect()
        found = collections.Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage if _is_replay_object(obj)
        )
        del roots
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return found


def test_golden_push_replay_leaves_no_cyclic_garbage():
    assert cyclic_garbage(lambda: run_scenario(return_telemetry=True)) == {}


def test_observed_pull_replay_leaves_no_cyclic_garbage():
    config = TelemetryConfig(interval=1.0, sample_energy=True, trace=True,
                             health=True)
    assert cyclic_garbage(lambda: pull_run(config)) == {}


def timeout_and_shed_replay(**config):
    """Three small workers, each with memory for two 256 MB containers
    and one 64 MB one: a 64 MB function that always overruns its limit
    (an interrupted backend invoke on every call), and bursts of eight
    256 MB functions, some of which wait for memory longer than
    ``memory_wait_timeout`` and are shed.  ``config`` overrides the
    workers' configuration."""
    env = Environment()
    cluster = Cluster(
        env, num_workers=3, status_interval=1.0,
        config=WorkerConfig(cores=4, memory_mb=576.0, backend="containerd",
                            free_memory_buffer_mb=0.0,
                            memory_wait_timeout=0.3, seed=5, **config),
    )
    cluster.start()
    functions = [
        FunctionRegistration(name=f"f{i}", memory_mb=256, warm_time=0.4,
                             cold_time=0.9)
        for i in range(8)
    ] + [FunctionRegistration(name="slow", memory_mb=64, warm_time=2.0,
                              cold_time=2.5, timeout=0.5)]
    for reg in functions:
        cluster.register_sync(reg)
    invocations = []

    def submit(at, fqdn):
        yield env.timeout(at)
        invocations.append((yield from cluster.invoke(fqdn)))

    for burst in range(4):
        for i, reg in enumerate(functions):
            env.process(submit(3.0 * burst + 0.01 * i, reg.fqdn()))
    env.run(until=60.0)
    cluster.stop()
    return cluster, invocations


def test_timeout_and_shed_scenario_takes_both_paths():
    cluster, invocations = timeout_and_shed_replay()
    outcomes = collections.Counter(r.outcome for r in cluster.records())
    assert outcomes[Outcome.TIMEOUT] >= 4
    assert outcomes[Outcome.DROPPED] >= 4
    assert {i.drop_reason for i in invocations if i.dropped} == {
        "insufficient memory"}
    assert len(invocations) == 4 * 9


def test_timeout_and_shed_replay_leaves_no_cyclic_garbage():
    assert cyclic_garbage(timeout_and_shed_replay) == {}
