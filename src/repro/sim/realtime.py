"""Wall-clock execution of the DES calendar ("live" mode).

The paper's central methodological claim is that the same control-plane
code runs in-situ (simulated) and for real.  This module provides the
other half of that claim for the Python reproduction: a
:class:`RealtimeEnvironment` executes the identical event calendar, but
synchronizes event firing to the wall clock (scaled by ``factor``), so a
demo or soak test can run against real time — and real external callers —
without changing a line of control-plane code.

Pacing is one process in the ordinary calendar, the *pacer*, started when
a run begins and ended once it is alone in the calendar or the next instant
lies past the run's limit.  It wakes first at each instant (calendar
priority -1), sleeps until the wall clock reaches the instant's deadline,
then re-arms at the end of the instant (priority 2) and only there reads
:meth:`~repro.sim.core.Environment.peek` and pushes its next wake, so a run
stopped by ``until`` never sleeps toward an instant past its limit.
Priorities only order entries at equal times, so the model's order is
untouched.

Events that fall behind the wall clock are executed immediately; the
``strict`` flag turns sustained lag into an error instead, which is how a
soak test detects that the host cannot keep up.
"""

from __future__ import annotations

import time
from heapq import heappush
from typing import Optional

from .core import TRIGGERED, Environment, Event, Process, SimulationError

__all__ = ["RealtimeEnvironment"]


class RealtimeEnvironment(Environment):
    """An Environment whose runs sleep until each instant's wall time.

    ``factor`` maps simulated seconds to wall seconds (0.1 runs 10x faster
    than real time).  ``tolerance`` is the lag (in wall seconds) permitted
    before ``strict`` mode raises.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        factor: float = 1.0,
        strict: bool = False,
        tolerance: float = 0.5,
        sleep=time.sleep,
        clock=time.monotonic,
    ):
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        if tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance}")
        super().__init__(initial_time)
        self.factor = float(factor)
        self.strict = strict
        self.tolerance = float(tolerance)
        self._sleep = sleep
        self._clock = clock
        self._wall_start: Optional[float] = None
        self._sim_start = self.now
        self._pacer: Optional[Process] = None
        self._run_limit = float("inf")
        self.max_lag = 0.0

    def sync(self) -> None:
        """(Re)anchor simulated time to the wall clock."""
        self._wall_start = self._clock()
        self._sim_start = self.now

    def _loop(self, limit: float, stop: Optional[Event]) -> None:
        if self._wall_start is None:
            self.sync()
        self._run_limit = limit
        if self._pacer is None or not self._pacer.is_alive:
            self._pacer = self.process(self._pace(), name="pacer")
        super()._loop(limit, stop)

    def _pace(self):
        """The pacer process (see the module docstring)."""
        while True:
            when = self.peek()
            if when == float("inf") or when > self._run_limit:
                return
            yield self._mark(when, -1)  # wake first at the instant
            deadline = self._wall_start + (when - self._sim_start) * self.factor
            delay = deadline - self._clock()
            if delay > 0:
                self._sleep(delay)
            else:
                self.max_lag = max(self.max_lag, -delay)
                if self.strict and -delay > self.tolerance:
                    raise SimulationError(
                        f"realtime run fell {-delay:.3f}s behind the wall clock "
                        f"(tolerance {self.tolerance}s)"
                    )
            yield self._mark(when, 2)  # re-arm after its last model event

    def _mark(self, when: float, priority: int) -> Event:
        """A bare triggered event at ``when`` in calendar slot ``priority``."""
        event = Event(self)
        event._state = TRIGGERED
        seq = self._seq = self._seq + 1
        heappush(self._queue, (when, priority, seq, event))
        return event
