"""Span-based component tracing, modelled on Ilúvatar's use of the Rust
``tracing`` crate (Section 5.1).

:class:`Span` is the exported form of one named interval (``spans.jsonl``).
Workers do not record spans themselves: the lifecycle contexts hold each
component interval once, and telemetry derives spans from them.
:data:`SPAN_GROUPS` is the paper's Table 2 grouping of those components.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

__all__ = [
    "Span",
    "SPAN_GROUPS",
    "load_spans_jsonl",
    "dump_spans_jsonl",
]

# Paper Table 2 grouping of worker components.
SPAN_GROUPS: dict[str, str] = {
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


@dataclass
class Span:
    """One completed span: a named interval with optional invocation tag.

    ``shard`` is the owning shard index on sharded runs (stamped by the
    shard process when tracing is enabled, so merged run directories can
    be sliced per shard); ``None`` — and absent from the JSONL form — on
    single-process runs, keeping serial and sharded exports byte-equal.
    """

    name: str
    start: float
    end: float
    tag: Optional[str] = None
    shard: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def dump_spans_jsonl(spans: Iterable[Span], path: Union[str, Path]) -> int:
    """Write spans as JSON lines, one span per line (``spans.jsonl``).
    ``spans`` may be any iterable — a lazy stream is written through
    without being materialized.  Returns the number of spans written."""
    dumps = json.dumps
    count = 0
    with open(path, "w") as fh:
        for s in spans:
            row = {"name": s.name, "start": s.start, "end": s.end,
                   "tag": s.tag}
            if s.shard is not None:
                row["shard"] = s.shard
            fh.write(dumps(row))
            fh.write("\n")
            count += 1
    return count


def load_spans_jsonl(path: Union[str, Path]) -> list[Span]:
    """Read spans written by :func:`dump_spans_jsonl`."""
    spans: list[Span] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            spans.append(Span(name=data["name"], start=data["start"],
                              end=data["end"], tag=data.get("tag"),
                              shard=data.get("shard")))
    return spans
