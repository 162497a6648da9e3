"""Chrome trace-event / Perfetto export of causal traces.

Any run directory with a ``traces.jsonl`` opens in ``ui.perfetto.dev``
(or ``chrome://tracing``): one process row per worker plus one for the
load balancer, one thread row per invocation, every trace event a
complete-duration ("X") slice.  Simulated seconds map to microseconds —
the trace-event format's native unit — so durations read directly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Union

from .events import TraceEvent

__all__ = ["chrome_trace", "dump_chrome_trace", "export_perfetto"]

_LB_PROCESS = "load-balancer"
_US = 1e6   # simulated seconds -> trace-event microseconds


def chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """Build the Chrome trace-event JSON document for ``events``."""
    events = list(events)
    # pid 0 is the LB; workers get stable pids in name order.
    workers = sorted({e.worker for e in events if e.worker is not None})
    pid_of = {name: i + 1 for i, name in enumerate(workers)}
    trace_events = [
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
         "args": {"name": _LB_PROCESS}},
    ]
    for name, pid in pid_of.items():
        trace_events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": name}}
        )
    for e in events:
        args = {"seq": e.seq, "kind": e.kind}
        if e.parent is not None:
            args["parent"] = e.parent
        if e.worker is not None:
            args["worker"] = e.worker
        if e.shard is not None:
            args["shard"] = e.shard
        trace_events.append({
            "ph": "X",
            "name": e.name,
            "cat": e.kind,
            # lb events stay on the LB track even when they name the
            # worker the RPC targets; the target is still in args/worker.
            "pid": 0 if e.kind == "lb" else pid_of.get(e.worker, 0),
            "tid": e.trace_id,
            "ts": e.start * _US,
            "dur": (e.end - e.start) * _US,
            "args": args,
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def dump_chrome_trace(events: Iterable[TraceEvent],
                      path: Union[str, Path]) -> int:
    """Write the trace-event document; returns the number of "X" slices."""
    doc = chrome_trace(events)
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return sum(1 for e in doc["traceEvents"] if e["ph"] == "X")


def export_perfetto(run_dir: Union[str, Path],
                    out_path: Union[str, Path]) -> int:
    """Convert a run directory's ``traces.jsonl`` into a Perfetto-openable
    JSON file; raises :class:`FileNotFoundError` when the run was not
    traced.  Returns the number of exported slices."""
    from ..telemetry.runs import RUN_FILES, read_run_file   # deferred

    traces_path = Path(run_dir) / RUN_FILES["traces"]
    if not traces_path.exists():
        raise FileNotFoundError(
            f"{traces_path} does not exist — re-run with tracing enabled "
            "(e.g. repro --telemetry DIR cluster-study --trace)"
        )
    return dump_chrome_trace(read_run_file(run_dir, "traces"), out_path)
