"""One table says which lifecycle stage owns each component.

:data:`repro.core.lifecycle.COMPONENT_STAGE` is the only statement of
which stage spends each component interval.  Trace trees parent
component events on it; the overhead decomposition's phases and paper
Table 2's groups are read off the owning stage.  Checked here:

* on the golden push and pull scenarios, every recorded interval is a
  ``COMPONENT_STAGE`` component or the pull queue's ``claim_wait``, and
  lies inside its owning stage's ``[enter, exit]``;
* the phase and group of every component, as the decomposition and
  Table 2 derive them, equal the literal tables they replaced.  The one
  exception is ``http_client_create``, which paper Table 2 does not
  list: it is grouped with its stage (Agent Communication) where the
  old table left it "Other".
"""

from types import SimpleNamespace

import pytest

from repro.core.lifecycle import COMPONENT_STAGE, interval_triples
from repro.experiments.table2_breakdown import component_table
from repro.telemetry.decomposition import decompose_rows
from repro.tracing import COMPONENT_STAGE as TRACING_COMPONENT_STAGE
from repro.tracing.events import load_timeline

# The phase of each interval, as the decomposition stated it literally.
PHASE_OF_SPAN = {
    "claim_wait": "claim_wait",
    "invoke": "queue",
    "sync_invoke": "queue",
    "enqueue_invocation": "queue",
    "add_item_to_q": "queue",
    "dequeue": "queue",
    "spawn_worker": "queue",
    "acquire_container": "acquire",
    "try_lock_container": "acquire",
    "cold_create": "cold_create",
    "prepare_invoke": "exec_comm",
    "http_client_create": "exec_comm",
    "call_container": "exec_comm",
    "download_result": "exec_comm",
    "return_container": "post",
    "return_results": "post",
}

# Paper Table 2's grouping, in its row order, as stated literally.
SPAN_GROUPS = {
    "invoke": "Ingestion & Queuing",
    "sync_invoke": "Ingestion & Queuing",
    "enqueue_invocation": "Ingestion & Queuing",
    "add_item_to_q": "Ingestion & Queuing",
    "spawn_worker": "Container Operations",
    "dequeue": "Container Operations",
    "acquire_container": "Container Operations",
    "try_lock_container": "Container Operations",
    "cold_create": "Container Operations",
    "prepare_invoke": "Agent Communication",
    "call_container": "Agent Communication",
    "download_result": "Agent Communication",
    "return_container": "Returning",
    "return_results": "Returning",
}


def _golden_rows(tmp_path):
    from tests.golden_scenario import run_scenario
    from tests.run_dir_digests import _config

    _, telemetry = run_scenario(_config(), return_telemetry=True)
    telemetry.export(tmp_path)
    return list(load_timeline(tmp_path / "traces.jsonl"))


def _pull_rows(tmp_path):
    from tests.run_dir_digests import pull_run

    pull_run().export(tmp_path)
    return list(load_timeline(tmp_path / "traces.jsonl"))


@pytest.mark.parametrize("rows_of", [_golden_rows, _pull_rows],
                         ids=["push", "pull"])
def test_every_interval_lies_inside_its_owning_stage(tmp_path, rows_of):
    rows = [row for row in rows_of(tmp_path) if row.worker is not None]
    assert rows
    checked = set()
    for row in rows:
        for name, t0, t1 in interval_triples(row.intervals):
            if name == "claim_wait":
                continue
            stage = COMPONENT_STAGE[name]
            enter = row.entered[stage]
            exit_ = row.exited.get(stage, float("inf"))
            assert enter <= t0 <= t1 <= exit_, (row.id, name, stage)
            checked.add(name)
    assert checked >= {"cold_create", "try_lock_container", "exec"}


def test_tracing_reexports_the_lifecycle_table():
    assert TRACING_COMPONENT_STAGE is COMPONENT_STAGE


def _phase_of(name):
    row = SimpleNamespace(id=1, closed=True,
                          intervals=[name, 0.0, 1.0, "exec", 1.0, 2.0])
    (breakdown,) = decompose_rows([row])
    (phase,) = [p for p, seconds in breakdown.phases.items() if seconds]
    return phase


def test_the_derived_phases_equal_the_literal_table():
    assert {name: _phase_of(name) for name in PHASE_OF_SPAN} == PHASE_OF_SPAN
    assert set(COMPONENT_STAGE) == set(PHASE_OF_SPAN) - {"claim_wait"} | {"exec"}


def test_the_derived_groups_equal_the_literal_table_in_its_order():
    components = [name for name in COMPONENT_STAGE if name != "exec"]
    intervals = [x for name in components for x in (name, 0.0, 1.0)]
    rows = component_table([SimpleNamespace(intervals=intervals)])
    groups = {row["function"]: row["group"] for row in rows}
    assert groups == {**SPAN_GROUPS, "http_client_create": "Agent Communication"}
    table2_rows = [name for name in groups if name != "http_client_create"]
    assert table2_rows == list(SPAN_GROUPS)
