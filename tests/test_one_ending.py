"""One way to end an invocation.

Every terminal stage (complete, drop, timeout) of both the Ilúvatar
worker and the OpenWhisk baseline ends in ``StageTracker.finish``, which
writes the invocation's one record, so:

* every triggered completion event has exactly one record, joined by
  the invocation id;
* a worker's ``dropped``/``timeouts`` equal the outcome tallies of its
  records, its registry counters, and the invocations' own flags;
* ``InvocationRecord(`` is built in ``src/`` at one site, inside
  ``StageTracker.finish`` (read off the source, like
  ``tests/test_one_loop.py``).
"""

import ast
import collections
from pathlib import Path

import pytest

from repro.baselines import OpenWhiskConfig, OpenWhiskWorker
from repro.core.function import FunctionRegistration
from repro.metrics.registry import Outcome
from repro.sim import Environment
from tests.test_refcount_retirement import timeout_and_shed_replay

SRC = Path(__file__).parent.parent / "src" / "repro"


def assert_one_ending(invocations, records, workers):
    """``invocations`` are the values of every triggered completion
    event; ``records`` every record the ``workers`` wrote."""
    ids = collections.Counter(r.invocation_id for r in records)
    assert ids == collections.Counter(inv.id for inv in invocations)
    assert set(ids.values()) == {1}
    outcomes = collections.Counter(r.outcome for r in records)
    dropped = sum(w.dropped for w in workers)
    assert dropped == outcomes[Outcome.DROPPED] == sum(
        w.metrics.count("invocations.dropped") for w in workers
    ) == sum(inv.dropped for inv in invocations)
    # The OpenWhisk model has no execution limit, hence no ``timeouts``.
    timeouts = sum(getattr(w, "timeouts", 0) for w in workers)
    assert timeouts == outcomes[Outcome.TIMEOUT] == sum(
        w.metrics.count("invocations.timeout") for w in workers
    ) == sum(inv.timed_out for inv in invocations)
    return outcomes


@pytest.mark.parametrize("config, reason", [
    ({}, "insufficient memory"),
    ({"concurrency_limit": 1, "queue_max_len": 2}, "queue overflow"),
])
def test_worker_drops_and_timeouts_each_write_one_record(config, reason):
    cluster, invocations = timeout_and_shed_replay(**config)
    assert len(invocations) == 4 * 9
    outcomes = assert_one_ending(invocations, cluster.records(),
                                 list(cluster.workers.values()))
    assert outcomes[Outcome.TIMEOUT] >= 3
    assert {i.drop_reason for i in invocations if i.dropped} == {reason}


def test_openwhisk_buffer_and_memory_drops_each_write_one_record():
    env = Environment()
    ow = OpenWhiskWorker(env, OpenWhiskConfig(
        cores=2, memory_mb=600.0, buffer_max=6, memory_wait_timeout=0.5,
        seed=11,
    ))
    ow.start()
    regs = [FunctionRegistration(name=f"f{i}", memory_mb=256, warm_time=1.0,
                                 cold_time=2.0) for i in range(4)]
    for reg in regs:
        ow.register_sync(reg)
    events = []

    def burst(at):
        yield env.timeout(at)
        events.extend(ow.async_invoke(reg.fqdn()) for reg in regs * 2)

    for k in range(3):
        env.process(burst(5.0 * k))
    env.run(until=60.0)
    assert all(e.triggered for e in events)
    invocations = [e.value for e in events]
    assert_one_ending(invocations, ow.metrics.records, [ow])
    assert {i.drop_reason for i in invocations if i.dropped} == {
        "activation buffer full", "insufficient memory"}
    assert ow.status()["dropped"] == ow.dropped


class _RecordSites(ast.NodeVisitor):
    """The dotted scope (``Class.method``) of every ``InvocationRecord(``
    call in a module."""

    def __init__(self):
        self.scope = []
        self.sites = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "InvocationRecord":
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


def test_invocation_records_are_built_only_in_finish():
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        visitor = _RecordSites()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        sites += [f"{path.relative_to(SRC)}:{site}" for site in visitor.sites]
    assert sites == ["core/lifecycle.py:StageTracker.finish"]
