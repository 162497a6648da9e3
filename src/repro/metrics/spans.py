"""Span-based component tracing, modelled on Ilúvatar's use of the Rust
``tracing`` crate (Section 5.1).

:class:`Span` is the exported form of one named interval (``spans.jsonl``).
The Ilúvatar worker does not record spans itself: its lifecycle contexts
hold each component interval once, and telemetry derives spans from them.
:data:`SPAN_GROUPS` is the paper's Table 2 grouping of those components.

:class:`SpanRecorder` is the standalone recorder for components that
time themselves (the OpenWhisk baseline's pipeline stages).  Two
recording APIs exist:

* ``with recorder.span("name"):`` — the ergonomic context manager, for
  call sites off the hot path.
* ``handle = recorder.begin("name")`` / ``recorder.end(handle)`` — the
  fast-path pair.  Handles are pooled and reused, so steady-state
  recording allocates nothing; when the recorder is disabled ``begin``
  returns ``None`` and ``end(None)`` returns immediately, making a
  disabled recorder a true no-op (the Ilúvatar design point: tracing must
  cost nothing when it is off).
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

from .stats import LatencySummary, summarize

__all__ = [
    "Span",
    "SpanRecorder",
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


class _SpanHandle:
    """An open span returned by :meth:`SpanRecorder.begin`.

    Mutable and pooled: after :meth:`SpanRecorder.end` the handle goes back
    to the recorder's free list for reuse, so ``name`` is nulled to catch
    double-``end``.
    """

    __slots__ = ("name", "start", "tag")

    def __init__(self, name: str, start: float, tag: Optional[str]):
        self.name = name
        self.start = start
        self.tag = tag


@dataclass
class SpanRecorder:
    """Collects spans; ``clock`` supplies the current time.

    The recorder is deliberately tolerant of high volume: per-span storage
    is an append to a per-name list, and all reduction is deferred.
    """

    clock: Callable[[], float]
    enabled: bool = True
    _durations: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    _spans: list[Span] = field(default_factory=list)
    keep_spans: bool = False
    _handle_pool: list[_SpanHandle] = field(default_factory=list, repr=False)

    # -- recording ---------------------------------------------------------
    def begin(self, name: str, tag: Optional[str] = None) -> Optional[_SpanHandle]:
        """Open a span; returns a handle to pass to :meth:`end`.

        Returns ``None`` when the recorder is disabled — the caller passes
        it straight back to ``end``, which makes the disabled pair two
        attribute loads and two calls, with zero allocation.
        """
        if not self.enabled:
            return None
        pool = self._handle_pool
        if pool:
            handle = pool.pop()
            handle.name = name
            handle.start = self.clock()
            handle.tag = tag
            return handle
        return _SpanHandle(name, self.clock(), tag)

    def end(self, handle: Optional[_SpanHandle]) -> None:
        """Close a span opened by :meth:`begin` and record its duration."""
        if handle is None:
            return
        name = handle.name
        if name is None:
            raise ValueError("span handle already ended (double end())")
        now = self.clock()
        self._durations[name].append(now - handle.start)
        if self.keep_spans:
            self._spans.append(
                Span(name=name, start=handle.start, end=now, tag=handle.tag)
            )
        handle.name = None  # poison against double-end
        pool = self._handle_pool
        if len(pool) < 64:
            pool.append(handle)

    @contextmanager
    def span(self, name: str, tag: Optional[str] = None) -> Iterator[None]:
        """Context manager timing a component by the recorder's clock.

        Implemented on the begin/end pair; prefer begin/end directly on
        hot paths (a contextmanager costs a generator per use).
        """
        handle = self.begin(name, tag)
        try:
            yield
        finally:
            self.end(handle)

    def record(self, name: str, duration: float, tag: Optional[str] = None) -> None:
        """Record an externally measured duration under ``name``."""
        if not self.enabled:
            return
        if duration < 0:
            raise ValueError(f"negative span duration: {duration}")
        self._durations[name].append(duration)
        if self.keep_spans:
            now = self.clock()
            self._spans.append(Span(name=name, start=now - duration, end=now, tag=tag))

    # -- reporting ---------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self._durations)

    def durations(self, name: str) -> list[float]:
        return list(self._durations.get(name, []))

    def summary(self, name: str) -> LatencySummary:
        return summarize(self._durations.get(name, []))

    def mean(self, name: str) -> float:
        values = self._durations.get(name)
        if not values:
            return float("nan")
        return sum(values) / len(values)

    def spans(self) -> list[Span]:
        return list(self._spans)

    def reset(self) -> None:
        self._durations.clear()
        self._spans.clear()

    def dump_jsonl(self, path: Union[str, Path]) -> int:
        """Write retained spans as JSON lines (one span per line), the
        fine-grained logging the paper's ``tracing`` instrumentation
        provides for offline analysis.  Requires ``keep_spans``.
        Returns the number of spans written."""
        if not self.keep_spans:
            raise ValueError(
                "dump_jsonl requires keep_spans=True; this recorder only "
                "aggregated durations, so there are no spans to write"
            )
        return dump_spans_jsonl(self._spans, path)


def dump_spans_jsonl(spans: Iterable[Span], path: Union[str, Path]) -> int:
    """Write spans as JSON lines (the :meth:`SpanRecorder.dump_jsonl`
    format); also used to dump spans merged from several recorders.
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
    """Read spans written by :meth:`SpanRecorder.dump_jsonl`."""
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
