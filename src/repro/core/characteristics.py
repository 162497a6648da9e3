"""Per-function execution characteristics (Section 3.1 / 4.2).

The worker maintains, for every registered function, moving-window
estimates of its cold and warm execution times and its inter-arrival time.
These feed the queueing disciplines (SJF/EEDF use warm or cold estimates,
RARE uses IAT) and are exposed through the worker API for data-driven
policies.

New, never-observed functions report an execution-time estimate of 0 so
that queue policies prioritize them, exactly as the paper specifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["MovingAverage", "FunctionStats", "CharacteristicsMap"]


class MovingAverage:
    """Arithmetic mean over a sliding window of the last ``window`` samples.

    The window is a plain list: a worker keeps four of these per function,
    and an empty ``deque`` costs over ten times an empty list.
    """

    __slots__ = ("_window", "_values", "_sum")

    def __init__(self, window: int = 20):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._window = window
        self._values: list[float] = []
        self._sum = 0.0

    def push(self, value: float) -> None:
        self._values.append(value)
        self._sum += value
        if len(self._values) > self._window:
            self._sum -= self._values.pop(0)

    @property
    def value(self) -> float:
        """Current mean; 0.0 when no samples (prioritizes unseen functions)."""
        if not self._values:
            return 0.0
        return self._sum / len(self._values)

    @property
    def count(self) -> int:
        return len(self._values)

    def __bool__(self) -> bool:
        return bool(self._values)


@dataclass
class FunctionStats:
    """Timing history for one function."""

    fqdn: str
    warm: MovingAverage = field(default_factory=MovingAverage)
    cold: MovingAverage = field(default_factory=MovingAverage)
    exec_all: MovingAverage = field(default_factory=MovingAverage)
    iat: MovingAverage = field(default_factory=MovingAverage)
    last_arrival: Optional[float] = None
    invocations: int = 0
    cold_invocations: int = 0
    memory_mb: float = 0.0

    def record_arrival(self, now: float) -> None:
        if self.last_arrival is not None:
            delta = now - self.last_arrival
            if delta < 0:
                raise ValueError("arrivals must be recorded in time order")
            self.iat.push(delta)
        self.last_arrival = now
        self.invocations += 1

    def record_execution(self, duration: float, cold: bool) -> None:
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        self.exec_all.push(duration)
        if cold:
            self.cold.push(duration)
            self.cold_invocations += 1
        else:
            self.warm.push(duration)

    @property
    def warm_time(self) -> float:
        return self.warm.value

    @property
    def cold_time(self) -> float:
        # Fall back to warm history if this function never ran cold in
        # the window (e.g. fully prewarmed), never report less than warm.
        if not self.cold:
            return self.warm.value
        return max(self.cold.value, self.warm.value)

    @property
    def avg_iat(self) -> float:
        return self.iat.value


class CharacteristicsMap:
    """All per-function stats for one worker; keyed by fqdn."""

    def __init__(self, window: int = 20):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._window = window
        self._stats: dict[str, FunctionStats] = {}

    def get(self, fqdn: str) -> FunctionStats:
        stats = self._stats.get(fqdn)
        if stats is None:
            stats = FunctionStats(
                fqdn=fqdn,
                warm=MovingAverage(self._window),
                cold=MovingAverage(self._window),
                exec_all=MovingAverage(self._window),
                iat=MovingAverage(self._window),
            )
            self._stats[fqdn] = stats
        return stats

    def __contains__(self, fqdn: str) -> bool:
        return fqdn in self._stats

    def __len__(self) -> int:
        return len(self._stats)

    def record_arrival(self, fqdn: str, now: float) -> None:
        self.get(fqdn).record_arrival(now)

    def record_execution(self, fqdn: str, duration: float, cold: bool) -> None:
        self.get(fqdn).record_execution(duration, cold)

    def expected_exec_time(self, fqdn: str, warm_available: bool) -> float:
        """The queue's execution-time estimate for an invocation.

        Uses warm history when a warm container is expected, cold history
        otherwise — this is what separates bursts of the same function in
        the queue and reduces concurrent cold starts (Section 4.2).
        """
        stats = self.get(fqdn)
        return stats.warm_time if warm_available else stats.cold_time

    def snapshot(self) -> dict[str, dict]:
        """Read-only view for status APIs and experiments."""
        return {
            fqdn: {
                "warm_time": s.warm_time,
                "cold_time": s.cold_time,
                "avg_iat": s.avg_iat,
                "invocations": s.invocations,
                "cold_invocations": s.cold_invocations,
            }
            for fqdn, s in self._stats.items()
        }
