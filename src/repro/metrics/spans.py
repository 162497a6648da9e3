"""Span-based component tracing, modelled on Ilúvatar's use of the Rust
``tracing`` crate (Section 5.1).

:class:`Span` is the view of one named interval.  Workers do not record
spans themselves: the lifecycle contexts hold each component interval
once, and telemetry derives spans from the run's timeline rows
(:func:`repro.tracing.events.derive_spans`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Span"]


@dataclass(slots=True)
class Span:
    """One completed span: a named interval with optional invocation tag.

    ``shard`` is the owning shard index on traced sharded runs (from the
    timeline row's ``shard``); ``None`` on single-process and untraced
    runs, keeping serial and sharded views equal.
    """

    name: str
    start: float
    end: float
    tag: Optional[str] = None
    shard: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start
