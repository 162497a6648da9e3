"""Keep-alive eviction policies (FaasCache, Section 6.1 of the hybrid text).

Each policy answers three questions about a warm container:

* ``priority(entry, now)`` — victim ordering; the *lowest* priority idle
  container is evicted first.  Called on every access so Greedy-Dual-style
  inflation works; cached on the entry.
* ``expiry_time(entry)`` — absolute time at which the entry expires even
  without memory pressure (``inf`` for work-conserving policies).  This is
  what makes TTL/HIST *non-work-conserving*.
* ``on_evict(entry)`` — bookkeeping hook (Greedy-Dual clock inflation).

Policies implemented, matching the paper's legend names:

=======  ====================================================
TTL      OpenWhisk default: 10-minute idle TTL, LRU when full
LRU      classic recency
FREQ     LFU, classic frequency
GD       Greedy-Dual-Size-Frequency: clock + freq*cost/size
LND      Landlord: clock + cost/size (rent renewed on access)
HIST     Shahrad et al. histogram keep-alive (TTL+prefetch)
=======  ====================================================
"""

from __future__ import annotations

import math
from typing import Optional

from ..metrics.stats import OnlineStats
from .entries import WarmContainer

__all__ = [
    "KeepAlivePolicy",
    "TTLPolicy",
    "LRUPolicy",
    "LFUPolicy",
    "GreedyDualPolicy",
    "LandlordPolicy",
    "HistogramPolicy",
    "PreloadRequest",
    "make_policy",
    "POLICY_NAMES",
]


class KeepAlivePolicy:
    """Base class; subclasses override priority/expiry/bookkeeping hooks."""

    name = "base"

    def priority(self, entry: WarmContainer, now: float) -> float:
        raise NotImplementedError

    def expiry_time(self, entry: WarmContainer) -> float:
        """Absolute expiry; ``inf`` means work-conserving (never expires)."""
        return float("inf")

    def on_insert(self, entry: WarmContainer, now: float) -> None:
        entry.priority = self.priority(entry, now)
        entry.expires_at = self.expiry_time(entry)

    def on_access(self, entry: WarmContainer, now: float) -> None:
        entry.touch(now)
        entry.priority = self.priority(entry, now)
        entry.expires_at = self.expiry_time(entry)

    def on_evict(self, entry: WarmContainer) -> None:
        pass

    def reset(self) -> None:
        """Clear any cross-entry state (Greedy-Dual clock, histograms)."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__}>"


class LRUPolicy(KeepAlivePolicy):
    """Evict the least recently used idle container."""

    name = "LRU"

    def priority(self, entry: WarmContainer, now: float) -> float:
        return entry.last_used


class TTLPolicy(KeepAlivePolicy):
    """OpenWhisk's default: fixed idle TTL; LRU victim order when full."""

    name = "TTL"

    def __init__(self, ttl: float = 600.0):
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self.ttl = float(ttl)

    def priority(self, entry: WarmContainer, now: float) -> float:
        return entry.last_used

    def expiry_time(self, entry: WarmContainer) -> float:
        return entry.last_used + self.ttl


class LFUPolicy(KeepAlivePolicy):
    """FREQ in the paper's figures: evict the least frequently used."""

    name = "FREQ"

    def priority(self, entry: WarmContainer, now: float) -> float:
        return float(entry.freq)


class GreedyDualPolicy(KeepAlivePolicy):
    """Greedy-Dual-Size-Frequency (the paper's GD).

    Priority = L + freq * cost / size, where L is the cache-wide inflation
    clock, set to the victim's priority on each eviction.  This folds
    recency (via L), frequency, miss cost and memory footprint into one
    scalar — the paper's central "keep-alive is caching" insight.
    """

    name = "GD"

    def __init__(self):
        self.clock = 0.0

    def priority(self, entry: WarmContainer, now: float) -> float:
        size = max(entry.memory_mb, 1e-9)
        return self.clock + entry.freq * entry.init_cost / size

    def on_evict(self, entry: WarmContainer) -> None:
        # Inflate the clock: future insertions outrank long-idle entries.
        self.clock = max(self.clock, entry.priority)

    def reset(self) -> None:
        self.clock = 0.0


class LandlordPolicy(KeepAlivePolicy):
    """Landlord (the paper's LND): Greedy-Dual without the frequency term.

    Each container pays rent proportional to its size; its credit
    (cost/size) is renewed in full on every access.  Equivalent to GDSF
    with freq pinned at 1.
    """

    name = "LND"

    def __init__(self):
        self.clock = 0.0

    def priority(self, entry: WarmContainer, now: float) -> float:
        size = max(entry.memory_mb, 1e-9)
        return self.clock + entry.init_cost / size

    def on_evict(self, entry: WarmContainer) -> None:
        self.clock = max(self.clock, entry.priority)

    def reset(self) -> None:
        self.clock = 0.0


class PreloadRequest:
    """A scheduled prewarm: bring ``fqdn`` into the cache at ``when`` and
    keep it until ``keep_until`` unless accessed."""

    __slots__ = ("when", "fqdn", "keep_until")

    def __init__(self, when: float, fqdn: str, keep_until: float):
        self.when = when
        self.fqdn = fqdn
        self.keep_until = keep_until

    def __lt__(self, other: "PreloadRequest") -> bool:
        return self.when < other.when


# Marks a function's memoised keep-alive windows as out of date.
_STALE = object()


class _TrackedPercentile:
    """One percentile of a growing minute histogram, kept up to date.

    ``idx`` is the bucket ``searchsorted(cumsum(buckets), rank)`` picks
    for rank = ceil(frac * total), and ``cum`` the cumulative count
    through it.  One recorded IAT raises the total and each cumulative
    count by at most one, so :meth:`add` moves the answer by a short walk
    instead of re-scanning the histogram.
    """

    __slots__ = ("frac", "idx", "cum")

    def __init__(self, percentile: float):
        self.frac = percentile / 100.0
        self.idx = -1  # empty histogram: the walk starts before bucket 0
        self.cum = 0

    def add(self, buckets: list[int], minute: int, total: int) -> None:
        """Account for one IAT just counted in ``buckets[minute]``."""
        idx = self.idx
        cum = self.cum
        if minute <= idx:
            cum += 1
        rank = math.ceil(self.frac * total)
        if cum < rank:
            while cum < rank:
                idx += 1
                cum += buckets[idx]
        else:
            # Back up to the first bucket whose cumulative count reaches
            # the rank.
            while cum - buckets[idx] >= rank:
                cum -= buckets[idx]
                idx -= 1
        self.idx = idx
        self.cum = cum


class _FunctionHistory:
    """Per-function IAT histogram in minute buckets (HIST policy state).

    Buckets are Python ints; ``stats.n`` is their running total (an IAT is
    pushed exactly when a bucket is incremented).  The head and tail
    percentile buckets are kept up to date by :class:`_TrackedPercentile`
    on every recorded IAT, and ``windows`` memoises the policy's keep-alive
    windows until a bucket changes.
    """

    __slots__ = ("buckets", "stats", "last_invocation", "head", "tail", "windows")

    def __init__(self, n_buckets: int, head_percentile: float,
                 tail_percentile: float):
        self.buckets = [0] * n_buckets
        self.stats = OnlineStats()
        self.last_invocation: Optional[float] = None
        self.head = _TrackedPercentile(head_percentile)
        self.tail = _TrackedPercentile(tail_percentile)
        self.windows = _STALE

    def record(self, now: float) -> None:
        last = self.last_invocation
        self.last_invocation = now
        if last is None:
            return
        iat = now - last
        minute = int(iat // 60.0)
        buckets = self.buckets
        if not 0 <= minute < len(buckets):
            # IATs beyond the histogram window would use ARIMA in the
            # original system; the paper's reproduction skips it (~0.56%
            # of invocations), and so do we: out-of-window IATs are not
            # recorded, pushing the function toward the generic TTL.
            return
        buckets[minute] += 1
        self.stats.push(iat)
        total = self.stats.n
        self.head.add(buckets, minute, total)
        self.tail.add(buckets, minute, total)
        self.windows = _STALE

    def percentile_iat(self, q: float, edge: str = "upper") -> float:
        """q-th percentile of the bucketized IAT distribution (seconds).

        Buckets are minute-wide; ``edge`` picks which bucket boundary to
        report.  The *lower* edge is used for the pre-warming window (be
        early rather than late) and the *upper* edge for the keep-alive
        window (keep a little longer than observed).  Scans the histogram
        for any ``q``; the policy's own head and tail are tracked instead.
        """
        total = self.stats.n
        if total == 0:
            return float("nan")
        rank = math.ceil(q / 100.0 * total)
        cum = 0
        for idx, count in enumerate(self.buckets):
            cum += count
            if cum >= rank:
                break
        else:
            idx = len(self.buckets)
        if edge == "lower":
            return idx * 60.0
        if edge == "upper":
            return (idx + 1) * 60.0
        raise ValueError(f"edge must be 'lower' or 'upper', got {edge!r}")

    @property
    def predictable(self) -> bool:
        return self.stats.n >= 2 and self.stats.cov <= 2.0


class HistogramPolicy(KeepAlivePolicy):
    """Best-effort reproduction of the Shahrad et al. hybrid histogram
    keep-alive policy (the paper's HIST; described in Section 6.1).

    Per function, IATs are recorded in minute-granularity buckets up to a
    four-hour window, with the coefficient of variation maintained by
    Welford's algorithm.  When a function's IAT is predictable (CoV <= 2),
    its container is kept only briefly after going idle and *pre-loaded*
    shortly before the predicted next invocation (head percentile of the
    histogram), staying until the tail percentile.  Unpredictable
    functions fall back to a generic two-hour TTL.

    Because the policy reasons purely about inter-arrival times, it is
    blind to function size and initialization cost — the limitation that
    makes it lose to Greedy-Dual on heterogeneous workloads.

    Only the trace simulator
    (:class:`~repro.keepalive.simulator.KeepAliveSimulator`) acts on
    :meth:`preloads_after`.  The worker's DES container pool does not
    prewarm: under ``keepalive_policy="HIST"`` a predictable function's
    container expires the moment it is returned (``expires_at ==
    last_used``), so its next invocation cold-starts.
    """

    name = "HIST"

    def __init__(
        self,
        window_hours: float = 4.0,
        generic_ttl: float = 7200.0,
        head_percentile: float = 5.0,
        tail_percentile: float = 99.0,
        margin: float = 0.15,
        min_samples: int = 4,
    ):
        if generic_ttl <= 0:
            raise ValueError("generic_ttl must be positive")
        if not 0 <= margin < 1:
            raise ValueError(f"margin must be in [0, 1), got {margin}")
        if not 0 < head_percentile <= tail_percentile <= 100:
            raise ValueError("need 0 < head <= tail <= 100")
        self.generic_ttl = float(generic_ttl)
        self.head_percentile = float(head_percentile)
        self.tail_percentile = float(tail_percentile)
        self.margin = float(margin)
        self.min_samples = int(min_samples)
        self._n_buckets = int(window_hours * 60)
        self._history: dict[str, _FunctionHistory] = {}

    def record_arrival(self, fqdn: str, now: float) -> None:
        """Called for every invocation (hit or miss), by the trace
        simulator and by the worker's lifecycle."""
        hist = self._history.get(fqdn)
        if hist is None:
            hist = _FunctionHistory(
                self._n_buckets, self.head_percentile, self.tail_percentile
            )
            self._history[fqdn] = hist
        hist.record(now)

    def priority(self, entry: WarmContainer, now: float) -> float:
        return entry.last_used

    def _windows(self, fqdn: str) -> Optional[tuple[float, float]]:
        """(head, tail) keep-alive windows in seconds, or None if the
        function's IAT history is unusable or unpredictable.  Memoised on
        the history until its next recorded IAT."""
        hist = self._history.get(fqdn)
        if hist is None:
            return None
        windows = hist.windows
        if windows is _STALE:
            # predictable implies n >= 2, so both percentiles exist.
            if hist.stats.n < self.min_samples or not hist.predictable:
                windows = None
            else:
                windows = (hist.head.idx * 60.0, (hist.tail.idx + 1) * 60.0)
            hist.windows = windows
        return windows

    def expiry_time(self, entry: WarmContainer) -> float:
        windows = self._windows(entry.fqdn)
        if windows is None:
            return entry.last_used + self.generic_ttl
        head, tail = windows
        if head <= 0:
            # Next invocation may arrive immediately: no pre-warming window,
            # keep alive through the tail of the IAT distribution.
            return entry.last_used + tail * (1.0 + self.margin)
        # A real gap is predicted: release the container right away.  In
        # the trace simulator, the preload from preloads_after re-creates
        # it just before the predicted arrival; the DES container pool
        # schedules no preload.
        return entry.last_used

    def preloads_after(self, fqdn: str, now: float) -> list[PreloadRequest]:
        """Prewarm schedule after an invocation of ``fqdn`` at ``now``."""
        windows = self._windows(fqdn)
        if windows is None:
            return []
        head, tail = windows
        if head <= 0:
            return []  # container stays warm instead
        preload_at = now + head * (1.0 - self.margin)
        keep_until = now + tail * (1.0 + self.margin)
        return [PreloadRequest(when=preload_at, fqdn=fqdn, keep_until=keep_until)]

    def reset(self) -> None:
        self._history.clear()


POLICY_NAMES = ("TTL", "LRU", "FREQ", "GD", "LND", "HIST")


def make_policy(name: str, **kwargs) -> KeepAlivePolicy:
    """Factory by paper legend name (case-insensitive)."""
    table = {
        "TTL": TTLPolicy,
        "LRU": LRUPolicy,
        "FREQ": LFUPolicy,
        "LFU": LFUPolicy,
        "GD": GreedyDualPolicy,
        "GDSF": GreedyDualPolicy,
        "LND": LandlordPolicy,
        "LANDLORD": LandlordPolicy,
        "HIST": HistogramPolicy,
    }
    cls = table.get(name.upper())
    if cls is None:
        raise ValueError(f"unknown keep-alive policy {name!r}; choose from {sorted(table)}")
    return cls(**kwargs)
