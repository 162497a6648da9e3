"""Mergeable relative-error quantile sketches, windowed over sim time.

Every latency distribution a run dir reports is a :class:`DDSketch`: the
health engine's per-function, per-window p99s, and the whole-run
histograms in ``summary.json`` / ``metrics.prom``.  It is a DDSketch-style
sketch with geometric buckets of relative width ``gamma = (1+a)/(1-a)``,
so any quantile estimate is within relative error ``a`` of the exact
nearest-rank sample it stands for, at O(1) per observation and a few
hundred buckets per sketch.

Order independence is the load-bearing property.  A sketch holds only
integer bucket counts plus an order-independent min/max, so the same
samples observed in any order — or split across sketches and merged —
produce *exactly* the same sketch, bit for bit.  No float accumulates in
observation order anywhere in this module; that is what lets a sharded
run's ``health.json`` be byte-identical to the serial run's.

:class:`WindowedSketch` keys sketches by fixed sim-time window
(``index = floor(t / window)``), stored sparsely so an idle function
costs nothing.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

__all__ = ["DDSketch", "WindowedSketch", "window_index"]


def window_index(t: float, window: float) -> int:
    """The window a sim-time instant falls in (fixed grid from t=0)."""
    return int(t // window)


class DDSketch:
    """Relative-error quantile sketch over non-negative samples.

    ``relative_accuracy`` (``a``) bounds the quantile error: the value
    returned for any quantile is within ``a * x`` of the exact
    nearest-rank sample ``x`` it represents.  Samples at or below
    ``min_value`` land in a dedicated zero bucket (a log scale cannot
    place them); they are reported as ``0.0``, an absolute error of at
    most ``min_value``.
    """

    __slots__ = (
        "relative_accuracy", "min_value", "gamma", "_log_gamma",
        "counts", "zero_count", "count", "_min", "_max",
    )

    def __init__(self, relative_accuracy: float = 0.01,
                 min_value: float = 1e-9):
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        if min_value <= 0.0:
            raise ValueError(f"min_value must be positive, got {min_value}")
        self.relative_accuracy = float(relative_accuracy)
        self.min_value = float(min_value)
        self.gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self.gamma)
        self.counts: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # -- recording ---------------------------------------------------------
    def key(self, value: float) -> int:
        """Bucket key for a value above ``min_value``: bucket ``k`` covers
        ``(gamma^(k-1), gamma^k]``."""
        return math.ceil(math.log(value) / self._log_gamma)

    def bucket(self, value: float) -> Optional[int]:
        """The bucket a sample lands in: its :meth:`key`, or ``None`` for
        the zero bucket.  Sketches of equal geometry agree on it, so one
        call can feed several sketches through :meth:`add`."""
        if not value >= 0.0:  # also rejects NaN
            raise ValueError(f"sketch samples must be non-negative, got {value}")
        if value <= self.min_value:
            return None
        return self.key(value)

    def observe(self, value: float) -> None:
        """Record one sample; O(1)."""
        self.add(value, self.bucket(value))

    def add(self, value: float, bucket: Optional[int]) -> None:
        """Record one sample whose :meth:`bucket` (on this geometry) the
        caller already computed."""
        if bucket is None:
            self.zero_count += 1
        else:
            self.counts[bucket] = self.counts.get(bucket, 0) + 1
        self.count += 1
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def merge(self, other: "DDSketch") -> None:
        """Add another sketch's buckets into this one.

        Both sketches must share the exact bucket geometry
        (``relative_accuracy`` and ``min_value``); merging is pure integer
        addition plus min/max, so it is order-independent and reproduces
        the single-stream sketch bit for bit.
        """
        if (other.relative_accuracy != self.relative_accuracy
                or other.min_value != self.min_value):
            raise ValueError(
                "cannot merge sketches with different geometry: "
                f"relative_accuracy {self.relative_accuracy} vs "
                f"{other.relative_accuracy}, min_value {self.min_value} "
                f"vs {other.min_value}"
            )
        for k, c in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + c
        self.zero_count += other.zero_count
        self.count += other.count
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max

    # -- queries -----------------------------------------------------------
    def bucket_value(self, key: int) -> float:
        """The representative value of bucket ``key`` (the point whose
        relative distance to every sample in the bucket is ``<= a``)."""
        return 2.0 * self.gamma ** key / (self.gamma + 1.0)

    @property
    def minimum(self) -> Optional[float]:
        return self._min

    @property
    def maximum(self) -> Optional[float]:
        return self._max

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate (``q`` in [0, 100]).

        Returns the representative value of the bucket holding the
        ``max(1, ceil(q/100 * count))``-th smallest sample, clamped to the
        observed [min, max] — within ``relative_accuracy`` of the exact
        nearest-rank sample (or within ``min_value`` absolutely, for
        samples in the zero bucket).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.count == 0:
            return float("nan")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        cum = self.zero_count
        if rank <= cum:
            return 0.0
        for k in sorted(self.counts):
            cum += self.counts[k]
            if cum >= rank:
                value = self.bucket_value(k)
                if self._max is not None and value > self._max:
                    value = self._max
                if self._min is not None and value < self._min:
                    value = self._min
                return value
        return float(self._max)  # pragma: no cover - rank <= count

    def cumulative(self) -> Iterator[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, Prometheus-style: the
        zero bucket (bound ``min_value``) first, then the upper edge
        ``gamma**k`` of each occupied bucket, closing with
        ``(+inf, count)``."""
        cum = self.zero_count
        yield self.min_value, cum
        for k in sorted(self.counts):
            cum += self.counts[k]
            yield self.gamma ** k, cum
        yield float("inf"), self.count

    def percentiles(self) -> dict[str, float]:
        return {
            "p50": self.quantile(50.0),
            "p90": self.quantile(90.0),
            "p99": self.quantile(99.0),
        }

    def summary(self) -> dict:
        return {
            "count": self.count,
            "min": self._min if self._min is not None else float("nan"),
            "max": self._max if self._max is not None else float("nan"),
            **self.percentiles(),
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, DDSketch):
            return NotImplemented
        return (
            self.relative_accuracy == other.relative_accuracy
            and self.min_value == other.min_value
            and self.counts == other.counts
            and self.zero_count == other.zero_count
            and self.count == other.count
            and self._min == other._min
            and self._max == other._max
        )

    __hash__ = None  # mutable

    # -- pickling (slots) --------------------------------------------------
    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DDSketch count={self.count} a={self.relative_accuracy:g} "
            f"buckets={len(self.counts)}>"
        )


class WindowedSketch:
    """Sparse per-window :class:`DDSketch` bank over one metric stream."""

    __slots__ = ("window", "relative_accuracy", "min_value", "sketches")

    def __init__(self, window: float, relative_accuracy: float = 0.01,
                 min_value: float = 1e-9):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        self.relative_accuracy = float(relative_accuracy)
        self.min_value = float(min_value)
        self.sketches: dict[int, DDSketch] = {}

    def observe(self, t: float, value: float) -> None:
        self.at(window_index(t, self.window)).observe(value)

    def at(self, idx: int) -> DDSketch:
        """Window ``idx``'s sketch, made empty on first use."""
        sketch = self.sketches.get(idx)
        if sketch is None:
            sketch = self.sketches[idx] = DDSketch(
                self.relative_accuracy, self.min_value
            )
        return sketch

    def window_indices(self) -> list[int]:
        return sorted(self.sketches)

    def sketch(self, idx: int) -> Optional[DDSketch]:
        return self.sketches.get(idx)

    def merged(self) -> DDSketch:
        """One sketch over every window (the whole-run distribution)."""
        out = DDSketch(self.relative_accuracy, self.min_value)
        for idx in sorted(self.sketches):
            out.merge(self.sketches[idx])
        return out

    @property
    def count(self) -> int:
        return sum(s.count for s in self.sketches.values())

    def items(self) -> Iterator[tuple[int, DDSketch]]:
        for idx in sorted(self.sketches):
            yield idx, self.sketches[idx]

    def __eq__(self, other) -> bool:
        if not isinstance(other, WindowedSketch):
            return NotImplemented
        return (
            self.window == other.window
            and self.relative_accuracy == other.relative_accuracy
            and self.min_value == other.min_value
            and self.sketches == other.sketches
        )

    __hash__ = None  # mutable

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
