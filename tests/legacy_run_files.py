"""The pre-timeline ``traces.jsonl`` and ``spans.jsonl`` bytes, rebuilt.

Run directories once held one JSON object per trace event
(``traces.jsonl``) and one per span (``spans.jsonl``).  They now hold one
timeline row per invocation, and the event and span lists are views of
those rows (``repro.tracing.events``).  The digests pinned in
``tests/data`` were taken over the old files, so the tests rebuild the
old bytes from a new run directory: the ``src`` views produce the lists,
and the serialisers below write them exactly as the old exporters did.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry import read_run_file
from repro.tracing.events import derive_spans, load_timeline


def legacy_traces_jsonl(run_dir) -> bytes:
    """One JSON object per trace event, ``None`` fields omitted."""
    lines = []
    for e in read_run_file(run_dir, "traces"):
        row = {"trace_id": e.trace_id, "seq": e.seq, "name": e.name,
               "kind": e.kind, "start": e.start, "end": e.end}
        if e.parent is not None:
            row["parent"] = e.parent
        if e.worker is not None:
            row["worker"] = e.worker
        if e.shard is not None:
            row["shard"] = e.shard
        lines.append(json.dumps(row) + "\n")
    return "".join(lines).encode()


def legacy_spans_jsonl(run_dir) -> bytes:
    """One JSON object per span, ``shard`` omitted when ``None``."""
    workers = read_run_file(run_dir, "manifest")["workers"]
    lines = []
    for s in derive_spans(load_timeline(Path(run_dir) / "traces.jsonl"),
                          workers):
        row = {"name": s.name, "start": s.start, "end": s.end, "tag": s.tag}
        if s.shard is not None:
            row["shard"] = s.shard
        lines.append(json.dumps(row) + "\n")
    return "".join(lines).encode()
