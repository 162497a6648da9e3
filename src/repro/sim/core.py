"""Discrete-event simulation kernel.

This is the substrate the whole control plane runs on.  It is a small,
SimPy-flavoured kernel: *processes* are generator coroutines that yield
:class:`Event` objects; the :class:`Environment` owns a binary-heap event
calendar and advances virtual time from event to event.

The paper's "in-situ simulation" design (Section 3.4) is the reason this
kernel exists: the same control-plane code runs against a ``null`` container
backend whose operations are pure timeouts on this clock, so an experiment
follows identical code paths whether it models one worker or a large cluster.

The kernel is deterministic: events scheduled at equal times fire in
insertion order (a monotonically increasing sequence number breaks ties),
and all randomness in higher layers flows through seeded
``numpy.random.Generator`` instances.

Fast-path design (the per-invocation cost of the kernel itself):

* **One loop** — :meth:`Environment.run` and :meth:`Environment.run_process`
  both drive ``_loop``, the only place the calendar is popped; ``run_process``
  passes its process as the event whose triggering ends the loop.  Wall-clock
  pacing (``sim/realtime.py``) is a process in the calendar, not a second
  loop.
* **Event pooling** — processed :class:`Timeout` events (process starts
  included) are recycled through per-environment free lists instead of being
  reallocated.  Recycling is gated on the CPython reference count: an event
  is only returned to the pool when nothing outside the dispatch loop still
  holds it, so user code that keeps a timeout (e.g. inside an ``AnyOf``)
  keeps exactly the object it was given.
* **Single-waiter slot** — the overwhelmingly common wait shape is one
  process yielding one fresh timeout.  That waiter is stored in a dedicated
  ``_waiter`` slot instead of the callbacks list, skipping the per-event
  list append and the replacement-list allocation at dispatch.
* **Lambda-free stepping** — a process's ``send``/``throw`` are bound once
  at creation and passed with the value to ``_step``, instead of allocating
  a closure per resume.
* **Retirement by reference count** — a process ends by returning, by an
  uncaught :class:`Interrupt` or by an exception, and on each path
  ``_step`` drops the references that would keep it in a cycle: its
  resume callback (a bound method of itself) and, for a failure, the
  ``_step`` frame (which holds the process) from the stored exception's
  traceback.  A finished process is
  then freed as soon as nothing holds it, without waiting for the cyclic
  garbage collector, whose passes otherwise grow with every invocation a
  replay runs.  A waiter's frame that catches the failure joins its
  traceback, so a waiter that keeps the failed process in a local still
  makes a cycle; the kernel cannot cut that one.
* **Unwaited ends** — a process that returns while nobody waits on it
  (no ``callbacks``) is marked processed with its value in the step that
  returned, instead of spending a calendar entry to tell no one.  A later
  ``yield proc`` resumes at that instant through the processed-target
  path, as for any processed event.  Failures keep their entry: an
  orphan failure must still propagate out of :meth:`Environment.run`.
"""

from __future__ import annotations

import sys
from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Generator, Iterable, Optional

# Pools are CPython-only: without a true reference count we can never prove
# an event is unreachable, so the fallback count disables recycling.
_getrefcount = getattr(sys, "getrefcount", lambda _obj: sys.maxsize)

# Free-list bound: big enough to absorb any realistic number of in-flight
# timeouts between dispatches, small enough to cap idle memory.
_POOL_CAP = 1024

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for kernel-level misuse (double trigger, dead scheduling...)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event states
PENDING = 0
TRIGGERED = 1  # scheduled on the calendar, callbacks not yet run
PROCESSED = 2  # callbacks have run


def _tombstone(event: "Event") -> None:
    """Placeholder left by :meth:`Process.interrupt` in a callback slot.

    Replacing (instead of removing) keeps every other process's recorded
    callback index valid; running it is a no-op.
    """


class Event:
    """A condition that may happen at a point in simulated time.

    Processes wait on events by yielding them.  An event is *triggered* with
    either :meth:`succeed` or :meth:`fail`; once processed its callbacks have
    been invoked and waiting processes resumed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_state", "_waiter")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state: int = PENDING
        # Fast-path slot for the single-waiter case (see module docstring);
        # holds the waiting Process, resumed before ``callbacks`` run.
        self._waiter: Optional["Process"] = None

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        if self._state == PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, carrying ``value``."""
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be re-raised in waiters."""
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at t={self.env.now}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    Built only by :meth:`Environment.timeout`, :meth:`Environment.timeout_at`
    and, for the zero-delay event that starts a new process,
    ``Environment._start_process``.
    """

    __slots__ = ()


class Process(Event):
    """A running generator coroutine; also an event that fires on return.

    The process event succeeds with the generator's return value, or fails
    with any uncaught exception (which then propagates out of
    :meth:`Environment.run` unless some other process waits on it).
    """

    __slots__ = (
        "_send",
        "_throw",
        "_target",
        "_target_index",
        "_resume_cb",
        "name",
        "__weakref__",
    )

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(env)
        # Bind the generator's entry points once: every resume otherwise
        # pays a bound-method (or closure) allocation on the hot path.
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # Index of our callback in the target's list, or -1 when we sit in
        # the target's single-waiter slot instead.
        self._target_index: Optional[int] = None
        # One bound-method object reused for every wait: saves an
        # allocation per yield and gives interrupt() a stable identity
        # to find in callback lists.  It refers back to the process, so
        # _step drops it when the process ends (see module docstring).
        self._resume_cb = self._resume
        env._start_process(self)

    @property
    def is_alive(self) -> bool:
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._state != PENDING:
            raise SimulationError("cannot interrupt a terminated process")
        self._detach()
        event = Event(self.env)
        event.callbacks.append(self._resume_interrupt(cause))
        event.succeed()

    def _detach(self) -> None:
        """Stop waiting on the current target.

        Swaps a tombstone into our recorded callback slot — O(1) where
        ``list.remove`` is O(n) per interrupt (O(n^2) when many waiters on
        one event all get interrupted).  Valid because callback lists are
        append-only until the event is processed, so recorded indices never
        shift.
        """
        target = self._target
        if target is not None:
            index = self._target_index
            if index == -1:
                if target._waiter is self:
                    target._waiter = None
            elif index is not None:
                callbacks = target.callbacks
                if index < len(callbacks) and callbacks[index] is self._resume_cb:
                    callbacks[index] = _tombstone

    def _resume_interrupt(self, cause: Any) -> Callable[[Event], None]:
        def callback(_event: Event) -> None:
            if self._state != PENDING:
                return  # terminated before the interrupt was delivered
            # Something may have resumed us since interrupt() detached us
            # (our start event, or an earlier interrupt); whatever we wait
            # on now must not resume us a second time.
            self._detach()
            self._step(self._throw, Interrupt(cause))

        return callback

    def _resume(self, event: Event) -> None:
        if event._ok:
            self._step(self._send, event._value)
        else:
            self._step(self._throw, event._value)

    def _step(self, advance: Callable[[Any], Any], arg: Any) -> None:
        self._target = None
        self._target_index = None
        env = self.env
        env._active_process = self
        try:
            target = advance(arg)
        except StopIteration as exc:
            env._active_process = None
            self._resume_cb = None
            if self.callbacks:
                self.succeed(exc.value)
            else:
                # Nobody waits: end without a calendar entry.  A later
                # ``yield self`` takes the processed-target path below.
                self._value = exc.value
                self._state = PROCESSED
            return
        except Interrupt as exc:
            # An un-caught interrupt terminates the process with a failure.
            # The stored failure's traceback starts below this frame: the
            # frame holds ``self`` (and the thrown value), so keeping it
            # would make the failure a cycle through this process.
            env._active_process = None
            self._resume_cb = None
            exc.__traceback__ = exc.__traceback__.tb_next
            self.fail(exc)
            return
        except BaseException as exc:
            env._active_process = None
            self._resume_cb = None
            exc.__traceback__ = exc.__traceback__.tb_next
            self.fail(exc)
            env._failures.append((self, exc))
            return
        env._active_process = None
        if type(target) is Timeout and target._state == TRIGGERED:
            # Fast path: a pending timeout with no other waiters takes us
            # in its single-waiter slot — no callback-list churn.
            if target._waiter is None and not target.callbacks:
                target._waiter = self
                self._target_index = -1
                self._target = target
                return
        elif not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded a non-event: {target!r}"
            )
        if target._state == PROCESSED:
            # Already happened: resume immediately at the current time.
            proxy = Event(self.env)
            proxy.callbacks.append(self._resume_cb)
            proxy.trigger(target)
            self._target_index = None
        else:
            callbacks = target.callbacks
            self._target_index = len(callbacks)
            callbacks.append(self._resume_cb)
        self._target = target


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._count = 0
        for event in self.events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event._state == PROCESSED:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _results(self) -> dict:
        return {
            e: e._value for e in self.events if e._state == PROCESSED and e._ok
        }


class AllOf(_Condition):
    """Fires once every component event has fired (fails fast on failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._results())


class AnyOf(_Condition):
    """Fires as soon as any component event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed(self._results())


class Environment:
    """The simulation environment: a clock plus an event calendar.

    ``run(until=...)`` executes events in time order.  Use
    :meth:`process` to start coroutines, :meth:`timeout` to wait, and
    :meth:`event` for manually triggered conditions.
    """

    def __init__(self, initial_time: float = 0.0):
        # ``now`` is a plain attribute (not a property): it is read on
        # every clock sample across the whole control plane, and the
        # descriptor indirection is measurable.  Only the kernel writes it.
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._failures: deque[tuple[Process, BaseException]] = deque()
        # Free lists of processed, unreferenced events (see module docstring).
        self._timeout_pool: list[Timeout] = []

    # -- clock -----------------------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # The hottest factory: timeout_at's body, inlined.  ``not >=``
        # refuses NaN too, which would otherwise corrupt the heap order.
        if not delay >= 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        pool = self._timeout_pool
        event = pool.pop() if pool else Timeout(self)
        event._value = value
        event._state = TRIGGERED
        seq = self._seq = self._seq + 1
        _heappush(self._queue, (self.now + delay, 1, seq, event))
        return event

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """A timeout firing at an *absolute* simulated time.

        ``env.timeout(t - env.now)`` lands at ``now + (t - now)``, which is
        not always bit-equal to ``t`` in floating point; schedulers that must
        hit an exact precomputed instant (e.g. a polling grid) use this.
        """
        when = float(when)
        if not when >= self.now:
            raise ValueError(f"timeout_at({when}) is not at or after now={self.now}")
        pool = self._timeout_pool
        event = pool.pop() if pool else Timeout(self)
        event._value = value
        event._state = TRIGGERED
        seq = self._seq = self._seq + 1
        _heappush(self._queue, (when, 1, seq, event))
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event) -> None:
        seq = self._seq = self._seq + 1
        _heappush(self._queue, (self.now, 1, seq, event))

    def _start_process(self, process: Process) -> None:
        """Schedule the zero-delay timeout that starts ``process``.

        Calendar slot 0 runs it ahead of the ordinary (slot 1) events due at
        the same instant.
        """
        pool = self._timeout_pool
        event = pool.pop() if pool else Timeout(self)
        event._state = TRIGGERED
        event._waiter = process
        seq = self._seq = self._seq + 1
        _heappush(self._queue, (self.now, 0, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def _limit(self, until: Optional[float]) -> float:
        limit = float("inf") if until is None else float(until)
        if not limit >= self.now:
            raise ValueError(f"until={limit} is not at or after now={self.now}")
        return limit

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar drains or simulated time reaches ``until``.

        Uncaught exceptions in processes that nobody waits on propagate out
        of this call — silent failure would corrupt experiments.
        """
        limit = self._limit(until)
        self._loop(limit, None)
        if self.now < limit and limit != float("inf"):
            self.now = limit

    def run_process(self, generator: Generator, until: Optional[float] = None) -> Any:
        """Start ``generator`` as a process and run until *it* completes
        (or the time limit passes), then return its value.

        Unlike :meth:`run`, this stops at the process's completion even if
        background processes keep the calendar populated indefinitely.
        """
        limit = self._limit(until)
        proc = self.process(generator)
        self._loop(limit, proc)
        if not proc._state:
            raise SimulationError("process did not finish before the time limit")
        if not proc._ok:
            raise proc._value
        return proc._value

    def _loop(self, limit: float, stop: Optional[Event]) -> None:
        """The dispatch loop: run every event due at or before ``limit``.

        Returns early, right after the dispatch that triggers ``stop``, so no
        later event at that instant runs.  The body is inlined (no per-event
        method call): it runs once per event, and the call and attribute
        overhead is measurable at cluster scale.
        """
        queue = self._queue
        failures = self._failures
        timeout_pool = self._timeout_pool
        while queue and queue[0][0] <= limit:
            when, _prio, _seq, event = _heappop(queue)
            self.now = when
            event._state = PROCESSED
            waiter = event._waiter
            if waiter is not None:
                event._waiter = None
                if event._ok:
                    waiter._step(waiter._send, event._value)
                else:
                    waiter._step(waiter._throw, event._value)
            callbacks = event.callbacks
            if callbacks:
                event.callbacks = []
                for callback in callbacks:
                    callback(event)
                # A failed event with no real waiters (tombstones left by
                # interrupts don't count) propagates — silent failure would
                # corrupt experiments.
                if (
                    waiter is None
                    and not event._ok
                    and not isinstance(event, Process)
                    and all(cb is _tombstone for cb in callbacks)
                ):
                    raise event._value
            elif waiter is None and not event._ok and not isinstance(event, Process):
                raise event._value
            # Recycle: only when nothing outside this frame still references
            # the event (2 == the local + getrefcount's argument).
            if type(event) is Timeout:
                if len(timeout_pool) < _POOL_CAP and _getrefcount(event) <= 2:
                    event._value = None
                    timeout_pool.append(event)
            while failures:
                process, exc = failures.popleft()
                # A waited-on process delivers the exception to its
                # waiters instead; only orphan failures propagate (an
                # interrupted waiter's tombstone is no waiter).
                if all(cb is _tombstone for cb in process.callbacks):
                    raise exc
            if stop is not None and stop._state:
                return
