"""Chrome trace-event / Perfetto export of causal traces.

Any run directory with a ``traces.jsonl`` opens in ``ui.perfetto.dev``
(or ``chrome://tracing``): one process row per worker plus one for the
load balancer, one thread row per invocation, every trace event a
complete-duration ("X") slice.  Simulated seconds map to microseconds —
the trace-event format's native unit — so durations read directly.

The export streams: it walks the timeline twice, one row at a time,
and never holds the run's event list.  The first walk collects the
worker names (the process rows), the second writes each event's slice
as :func:`~repro.tracing.events.derive_trace_events` yields it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .events import TraceEvent, derive_trace_events, load_timeline

__all__ = ["export_perfetto"]

_LB_PROCESS = "load-balancer"
_US = 1e6   # simulated seconds -> trace-event microseconds


def _slice(e: TraceEvent, pid_of: dict) -> dict:
    args = {"seq": e.seq, "kind": e.kind}
    if e.parent is not None:
        args["parent"] = e.parent
    if e.worker is not None:
        args["worker"] = e.worker
    if e.shard is not None:
        args["shard"] = e.shard
    return {
        "ph": "X",
        "name": e.name,
        "cat": e.kind,
        # lb events stay on the LB track even when they name the worker
        # the RPC targets; the target is still in args/worker.
        "pid": 0 if e.kind == "lb" else pid_of.get(e.worker, 0),
        "tid": e.trace_id,
        "ts": e.start * _US,
        "dur": (e.end - e.start) * _US,
        "args": args,
    }


def export_perfetto(run_dir: Union[str, Path],
                    out_path: Union[str, Path]) -> int:
    """Convert a run directory's ``traces.jsonl`` into a Perfetto-openable
    JSON file; raises :class:`FileNotFoundError` when the run was not
    traced.  Returns the number of exported slices.

    The file is the ``{"traceEvents": [...], "displayTimeUnit": "ms"}``
    document as ``json.dump`` writes it, plus a newline: the metadata
    slices (pid 0 is the LB, workers get pids in name order), then one
    slice per event in ``(trace_id, seq)`` order.
    """
    from ..telemetry.runs import RUN_FILES   # deferred

    traces_path = Path(run_dir) / RUN_FILES["traces"]
    if not traces_path.exists():
        raise FileNotFoundError(
            f"{traces_path} does not exist — re-run with tracing enabled "
            "(e.g. repro --telemetry DIR cluster-study --trace)"
        )
    events = derive_trace_events(load_timeline(traces_path))
    workers = sorted({e.worker for e in events if e.worker is not None})
    pid_of = {name: i + 1 for i, name in enumerate(workers)}
    meta = [(0, _LB_PROCESS), *((pid, name) for name, pid in pid_of.items())]
    encode = json.JSONEncoder().encode   # json.dump's defaults
    slices = 0
    with open(out_path, "w") as fh:
        fh.write('{"traceEvents": [')
        fh.write(", ".join(
            encode({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": name}})
            for pid, name in meta
        ))
        for e in derive_trace_events(load_timeline(traces_path)):
            fh.write(", ")
            fh.write(encode(_slice(e, pid_of)))
            slices += 1
        fh.write('], "displayTimeUnit": "ms"}\n')
    return slices
