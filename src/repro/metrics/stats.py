"""Vectorized summary statistics for latency samples and timeseries.

All heavy computation is NumPy-based: experiments accumulate raw samples in
Python lists (cheap appends on the hot path) and reduce them here once at
reporting time, following the profile-then-vectorize workflow from the
HPC-Python guides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["LatencySummary", "summarize", "percentile", "bin_timeseries", "OnlineStats"]


@dataclass(frozen=True)
class LatencySummary:
    """Summary of a latency sample, all values in the sample's own unit."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float

    def row(self) -> dict:
        """Flat dict for table printing."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.maximum,
        }


_EMPTY = LatencySummary(0, float("nan"), float("nan"), float("nan"),
                        float("nan"), float("nan"), float("nan"), float("nan"))


def summarize(samples: Iterable[float]) -> LatencySummary:
    """Reduce a sample of latencies to a :class:`LatencySummary`."""
    arr = np.asarray(list(samples) if not isinstance(samples, np.ndarray) else samples,
                     dtype=float)
    if arr.size == 0:
        return _EMPTY
    p50, p90, p99 = np.percentile(arr, [50.0, 90.0, 99.0])
    return LatencySummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        p50=float(p50),
        p90=float(p90),
        p99=float(p99),
        maximum=float(arr.max()),
    )


def percentile(samples: Sequence[float], q: float) -> float:
    """Single percentile (q in [0, 100]) of a sample; NaN when empty."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q))


def bin_timeseries(
    timestamps: Sequence[float],
    duration: float,
    bin_width: float = 1.0,
) -> np.ndarray:
    """Count events per time bin — used for invocations/second plots.

    Events beyond ``duration`` fall in the final bin's clamp (they are
    counted; they are not silently dropped).
    """
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    ts = np.asarray(timestamps, dtype=float)
    n_bins = int(np.ceil(duration / bin_width))
    if ts.size == 0:
        return np.zeros(n_bins, dtype=np.int64)
    idx = np.clip((ts / bin_width).astype(np.int64), 0, n_bins - 1)
    return np.bincount(idx, minlength=n_bins).astype(np.int64)


class OnlineStats:
    """Welford's online mean/variance — same algorithm the HIST keep-alive
    policy uses for its coefficient-of-variation estimate (Section 6.1).
    """

    __slots__ = ("n", "_mean", "_m2")

    def __init__(self):
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)

    def merge(self, other: "OnlineStats") -> None:
        """Fold another accumulator in (Chan et al.'s parallel combine).

        Lets shard-local running stats reduce like every other telemetry
        structure: mean and M2 combine exactly (up to float rounding) as
        if every sample had been pushed into one accumulator.
        """
        if other.n == 0:
            return
        if self.n == 0:
            self.n = other.n
            self._mean = other._mean
            self._m2 = other._m2
            return
        total = self.n + other.n
        delta = other._mean - self._mean
        self._mean += delta * other.n / total
        self._m2 += other._m2 + delta * delta * self.n * other.n / total
        self.n = total

    @property
    def mean(self) -> float:
        return self._mean if self.n else float("nan")

    @property
    def variance(self) -> float:
        """Population variance."""
        if self.n == 0:
            return float("nan")
        return self._m2 / self.n

    @property
    def std(self) -> float:
        return self.variance**0.5 if self.n else float("nan")

    @property
    def cov(self) -> float:
        """Coefficient of variation (std / mean); inf when mean is 0."""
        n = self.n
        if n == 0:
            return float("nan")
        mean = self._mean
        if mean == 0:
            return float("inf")
        # std / |mean|, spelled out: HIST evaluates it on every arrival.
        return (self._m2 / n) ** 0.5 / abs(mean)
