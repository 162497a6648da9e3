"""Async-invocation result store.

Ilúvatar's ``async_invoke`` returns immediately with a cookie; the client
polls ``check_async_invocation`` until the result is ready.  This store
holds completed results for collection, with a retention window so
abandoned cookies do not leak memory (results expire like any other
cached resource).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional

__all__ = ["AsyncStatus", "AsyncResult", "ResultStore"]

_cookie_seq = itertools.count(1)


class AsyncStatus(str, Enum):
    PENDING = "pending"
    DONE = "done"
    GONE = "gone"          # unknown cookie, collected, or expired


@dataclass
class AsyncResult:
    """The poll response for one cookie."""

    cookie: str
    status: AsyncStatus
    invocation: Any = None  # the completed Invocation when DONE


class ResultStore:
    """Cookie → completed-invocation mapping with retention."""

    def __init__(self, clock: Callable[[], float], retention: float = 3600.0):
        if retention <= 0:
            raise ValueError(f"retention must be positive, got {retention}")
        self._clock = clock
        self.retention = float(retention)
        self._pending: set[str] = set()
        self._done: dict[str, tuple[float, Any]] = {}
        self.expired = 0

    @staticmethod
    def new_cookie() -> str:
        return f"async-{next(_cookie_seq):08d}"

    def register(self) -> str:
        """Open a new pending cookie."""
        cookie = self.new_cookie()
        self._pending.add(cookie)
        return cookie

    def complete(self, cookie: str, invocation: Any) -> None:
        if cookie not in self._pending:
            raise KeyError(f"unknown or already-completed cookie {cookie!r}")
        self._pending.discard(cookie)
        self._done[cookie] = (self._clock(), invocation)

    def check(self, cookie: str, collect: bool = True) -> AsyncResult:
        """Poll a cookie; ``collect`` removes a DONE result (the default,
        matching one-shot result retrieval)."""
        self._reap()
        if cookie in self._pending:
            return AsyncResult(cookie=cookie, status=AsyncStatus.PENDING)
        entry = self._done.get(cookie)
        if entry is None:
            return AsyncResult(cookie=cookie, status=AsyncStatus.GONE)
        if collect:
            del self._done[cookie]
        return AsyncResult(cookie=cookie, status=AsyncStatus.DONE,
                           invocation=entry[1])

    def _reap(self) -> None:
        now = self._clock()
        stale = [c for c, (t, _inv) in self._done.items()
                 if now - t > self.retention]
        for cookie in stale:
            del self._done[cookie]
            self.expired += 1

    @property
    def pending_count(self) -> int:
        return len(self._pending)
