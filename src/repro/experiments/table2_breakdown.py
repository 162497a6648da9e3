"""Table 2: per-component latency of a single warm invocation.

Runs warm invocations on an Ilúvatar worker with the containerd backend
and reports the mean simulated time spent in every control-plane
component, averaged over the intervals the lifecycle contexts record and
grouped as in the paper (Ingestion & Queuing / Container Operations /
Agent Communication / Returning).  Agent communication dominates, by
design and by measurement.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from ..core.config import WorkerConfig
from ..core.lifecycle import (
    ACQUIRE,
    ADMIT,
    COLD_CREATE,
    COMPLETE,
    COMPONENT_STAGE,
    DISPATCH,
    ENQUEUE,
    EXECUTE,
    WARM,
    interval_triples,
)
from ..core.worker import Worker
from ..sim.core import Environment
from ..workloads.functionbench import registration_for

__all__ = ["run_table2", "component_table", "PAPER_TABLE2_MS"]

# The paper's measured values (ms) for comparison in EXPERIMENTS.md.
PAPER_TABLE2_MS = {
    "invoke": 0.026,
    "sync_invoke": 0.013,
    "enqueue_invocation": 0.017,
    "add_item_to_q": 0.02,
    "spawn_worker": 0.029,
    "dequeue": 0.02,
    "acquire_container": 0.096,
    "try_lock_container": 0.014,
    "prepare_invoke": 0.154,
    "call_container": 1.364,
    "download_result": 0.032,
    "return_container": 0.017,
    "return_results": 0.266,
}


# Context intervals that are not control-plane components: the function's
# own execution window and the pull queue's claim wait.
NOT_COMPONENTS = ("exec", "claim_wait")

# Paper Table 2's group of each lifecycle stage's components.
GROUP_OF_STAGE = {
    ADMIT: "Ingestion & Queuing",
    ENQUEUE: "Ingestion & Queuing",
    DISPATCH: "Container Operations",
    ACQUIRE: "Container Operations",
    WARM: "Container Operations",
    COLD_CREATE: "Container Operations",
    EXECUTE: "Agent Communication",
    COMPLETE: "Returning",
}


def component_table(contexts: Iterable, scale: float = 1.0) -> list[dict]:
    """Rows in the shape of paper Table 2 — group, component, mean interval
    duration — over lifecycle ``contexts`` whose intervals were collected.

    ``scale`` converts seconds into the reporting unit (1000.0 for
    milliseconds).  Components come in
    :data:`~repro.core.lifecycle.COMPONENT_STAGE` order, grouped by
    their owning stage; any others last, alphabetically, as "Other".
    """
    durations: dict[str, list[float]] = defaultdict(list)
    for ctx in contexts:
        for name, start, end in interval_triples(ctx.intervals):
            if name not in NOT_COMPONENTS:
                durations[name].append(end - start)
    names = [name for name in COMPONENT_STAGE if name in durations]
    names += sorted(set(durations) - set(COMPONENT_STAGE))
    return [
        {
            "group": GROUP_OF_STAGE.get(COMPONENT_STAGE.get(name), "Other"),
            "function": name,
            "time": sum(durations[name]) / len(durations[name]) * scale,
        }
        for name in names
    ]


def run_table2(warm_invocations: int = 200, seed: int = 42) -> list[dict]:
    """Measure the component breakdown over ``warm_invocations`` warm calls."""
    if warm_invocations < 1:
        raise ValueError("warm_invocations must be >= 1")
    env = Environment()
    worker = Worker(
        env, WorkerConfig(backend="containerd", cores=8, memory_mb=8192, seed=seed)
    )
    worker.start()
    worker.register_sync(registration_for("pyaes"))
    # One cold invocation to create the container; contexts are retained
    # only after it, so the breakdown is warm-only.
    env.run_process(worker.invoke("pyaes.1"))
    lifecycle = worker.lifecycle
    lifecycle.keep_contexts = True
    for _ in range(warm_invocations):
        inv = env.run_process(worker.invoke("pyaes.1"))
        assert not inv.cold, "breakdown must be warm-only"
    worker.stop()
    rows = component_table(lifecycle.contexts, scale=1000.0)
    for row in rows:
        row["paper_ms"] = PAPER_TABLE2_MS.get(row["function"], float("nan"))
    return rows
