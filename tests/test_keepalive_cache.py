"""Unit tests for the memory-bounded keep-alive cache."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.keepalive.cache import KeepAliveCache
from repro.keepalive.policies import (
    POLICY_NAMES,
    GreedyDualPolicy,
    HistogramPolicy,
    LRUPolicy,
    TTLPolicy,
    make_policy,
)


def lru_cache(capacity=1000.0):
    return KeepAliveCache(LRUPolicy(), capacity_mb=capacity)


def test_insert_and_hit():
    c = lru_cache()
    c.insert("f", 100.0, 1.0, 0.1, now=0.0)
    hit = c.lookup("f", now=1.0)
    assert hit is not None
    assert c.stats.hits == 1
    assert c.used_mb == 100.0


def test_miss_on_unknown_function():
    c = lru_cache()
    assert c.lookup("ghost", now=0.0) is None
    assert c.stats.misses == 1


def test_busy_container_not_reusable():
    c = lru_cache()
    e = c.insert("f", 100.0, 1.0, 0.1, now=0.0)
    c.finish(e, busy_until=5.0)
    assert c.lookup("f", now=2.0) is None  # still running
    assert c.lookup("f", now=5.0) is not None


def test_eviction_frees_memory_lru_order():
    c = lru_cache(capacity=250.0)
    c.insert("a", 100.0, 1.0, 0.1, now=0.0)
    c.insert("b", 100.0, 1.0, 0.1, now=1.0)
    # Touch a so b is the LRU victim.
    c.lookup("a", now=2.0)
    c.insert("c", 100.0, 1.0, 0.1, now=3.0)
    assert c.containers_of("b") == []
    assert len(c.containers_of("a")) == 1
    assert c.stats.evictions == 1
    c.check_invariants(now=3.0)


def test_busy_containers_never_evicted():
    c = lru_cache(capacity=200.0)
    e = c.insert("a", 150.0, 1.0, 0.1, now=0.0)
    c.finish(e, busy_until=100.0)
    # Needs eviction of a, but a is busy -> rejected.
    assert c.insert("b", 100.0, 1.0, 0.1, now=1.0) is None
    assert c.stats.rejected == 1
    assert len(c.containers_of("a")) == 1


def test_oversized_insert_rejected():
    c = lru_cache(capacity=100.0)
    assert c.insert("big", 200.0, 1.0, 0.1, now=0.0) is None
    assert c.stats.rejected == 1


def test_ttl_lazy_expiry_on_lookup():
    c = KeepAliveCache(TTLPolicy(ttl=600.0), capacity_mb=1000.0)
    c.insert("f", 100.0, 1.0, 0.1, now=0.0)
    assert c.lookup("f", now=601.0) is None  # expired -> miss
    assert c.stats.expirations == 1
    assert c.used_mb == 0.0


def test_ttl_refreshes_on_access():
    c = KeepAliveCache(TTLPolicy(ttl=600.0), capacity_mb=1000.0)
    c.insert("f", 100.0, 1.0, 0.1, now=0.0)
    hit = c.lookup("f", now=500.0)
    assert hit is not None
    c.finish(hit, busy_until=500.1)
    assert c.lookup("f", now=1000.0) is not None  # 500 s idle < TTL again


def test_expire_sweep():
    c = KeepAliveCache(TTLPolicy(ttl=10.0), capacity_mb=1000.0)
    c.insert("a", 100.0, 1.0, 0.1, now=0.0)
    c.insert("b", 100.0, 1.0, 0.1, now=5.0)
    n = c.expire(now=12.0)
    assert n == 1  # only a has been idle > 10 s
    assert c.containers_of("a") == []
    assert len(c.containers_of("b")) == 1


def test_gd_eviction_prefers_low_value():
    c = KeepAliveCache(GreedyDualPolicy(), capacity_mb=300.0)
    c.insert("cheap_big", 200.0, init_cost=0.5, warm_time=0.1, now=0.0)
    c.insert("dear_small", 50.0, init_cost=5.0, warm_time=0.1, now=1.0)
    # Need 150 more: GD should evict cheap_big (low cost/size).
    c.insert("new", 150.0, init_cost=1.0, warm_time=0.1, now=2.0)
    assert c.containers_of("cheap_big") == []
    assert len(c.containers_of("dear_small")) == 1


def test_multiple_containers_per_function():
    c = lru_cache()
    c.insert("f", 100.0, 1.0, 0.1, now=0.0)
    c.insert("f", 100.0, 1.0, 0.1, now=0.0)
    assert len(c.containers_of("f")) == 2
    assert len(c) == 2
    a = c.lookup("f", now=1.0)
    b = c.lookup("f", now=1.0)
    assert a is not None and b is not None and a is not b


def test_set_capacity_shrink_evicts_idle():
    c = lru_cache(capacity=1000.0)
    for i in range(5):
        c.insert(f"f{i}", 100.0, 1.0, 0.1, now=float(i))
    c.set_capacity(250.0, now=10.0)
    assert c.used_mb <= 250.0
    c.check_invariants(now=10.0)


def test_shrink_excess_never_grows_once_busy_containers_go_idle():
    c = lru_cache(capacity=1000.0)
    busy = [c.insert(f"f{i}", 200.0, 1.0, 0.1, now=0.0) for i in range(4)]
    for container in busy:
        c.finish(container, 5.0)
    c.set_capacity(300.0, now=1.0)    # nothing idle: 800 MB stay resident
    assert c.used_mb == 800.0
    c.check_invariants(now=1.0)
    c.check_invariants(now=6.0)       # idle now, still over the budget
    c.discard(busy[0])
    assert c.used_mb == 600.0
    # An insert fits only under the budget, so it first evicts down to it.
    assert c.insert("g", 100.0, 1.0, 0.1, now=7.0) is not None
    assert c.used_mb <= 300.0
    c.check_invariants(now=7.0)


def test_set_capacity_grow():
    c = lru_cache(capacity=100.0)
    c.set_capacity(500.0, now=0.0)
    assert c.insert("f", 400.0, 1.0, 0.1, now=0.0) is not None


def test_set_capacity_validation():
    c = lru_cache()
    with pytest.raises(ValueError):
        c.set_capacity(0.0, now=0.0)
    with pytest.raises(ValueError):
        KeepAliveCache(LRUPolicy(), capacity_mb=-1.0)


def test_evict_one_skips_busy():
    c = lru_cache(capacity=1000.0)
    busy = c.insert("a", 100.0, 1.0, 0.1, now=0.0)
    c.finish(busy, busy_until=100.0)
    c.insert("b", 100.0, 1.0, 0.1, now=1.0)
    victim = c.evict_one(now=2.0)
    assert victim is not None and victim.fqdn == "b"
    assert c.evict_one(now=2.0) is None  # only the busy one remains


def test_hit_ratio_stats():
    c = lru_cache()
    c.insert("f", 100.0, 1.0, 0.1, now=0.0)
    c.lookup("f", now=1.0)
    c.lookup("ghost", now=1.0)
    assert c.stats.accesses == 2
    assert c.stats.hit_ratio == pytest.approx(0.5)
    assert c.stats.miss_ratio == pytest.approx(0.5)


def test_free_mb_accounting():
    c = lru_cache(capacity=500.0)
    c.insert("f", 200.0, 1.0, 0.1, now=0.0)
    assert c.free_mb == pytest.approx(300.0)


# ------------------------------------------- one-pass lookup vs reference
class TwoPassLookupCache(KeepAliveCache):
    """Reference ``lookup``: find the pick in one scan, then reap expired
    idle containers in a second scan over a copy of the list."""

    def lookup(self, fqdn, now):
        best = None
        for c in self._containers.get(fqdn, ()):
            if c.is_idle(now):
                if c.expires_at <= now:
                    continue
                best = c
                break
        for c in list(self._containers.get(fqdn, ())):
            if c is not best and c.expires_at <= now and c.is_idle(now):
                self._remove(c, expired_eviction=True)
        if best is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        best.busy_until = float("inf")
        self.policy.on_access(best, now)
        self._restamp(best)
        return best


def _make_policy(name):
    if name == "TTL":
        return TTLPolicy(ttl=5.0)
    # Small window, few samples and a short generic TTL: predictable and
    # unpredictable functions, releases and expirations all show up.
    return HistogramPolicy(window_hours=0.1, generic_ttl=20.0, min_samples=2)


class _Replica:
    """One cache under test, with its containers named by insert order."""

    def __init__(self, cls, policy_name, capacity):
        self.evicted = []
        self.cache = cls(_make_policy(policy_name), capacity,
                         on_evict=lambda c: self.evicted.append(self.ordinal[c.id]))
        self.ordinal = {}
        self.claimed = []

    def insert(self, fqdn, mem, now):
        c = self.cache.insert(fqdn, mem, 1.0, 0.5, now)
        if c is None:
            return None
        self.ordinal[c.id] = len(self.ordinal)
        self.cache.finish(c, now + 0.5)
        return self.ordinal[c.id]

    def invoke(self, fqdn, mem, now):
        """An arrival as the simulator plays it: a miss caches a new
        container; a hit stays claimed until ``finish_all``."""
        policy = self.cache.policy
        if isinstance(policy, HistogramPolicy):
            policy.record_arrival(fqdn, now)
        c = self.cache.lookup(fqdn, now)
        if c is None:
            return "cold", self.insert(fqdn, mem, now)
        self.claimed.append(c)
        return "warm", self.ordinal[c.id]

    def finish_all(self, until):
        for c in self.claimed:
            self.cache.finish(c, until)
        self.claimed.clear()

    def state(self):
        s = self.cache.stats
        return (s.hits, s.misses, s.expirations, s.evictions, s.rejected,
                self.cache.used_mb, list(self.evicted))


cache_op = st.tuples(
    st.sampled_from(["insert", "invoke", "invoke", "finish_all", "advance"]),
    st.integers(min_value=0, max_value=2),        # function id
    st.floats(min_value=50.0, max_value=400.0),   # memory
    st.sampled_from([0.25, 1.0, 3.0, 7.0, 45.0, 130.0]),  # time step
)


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(cache_op, min_size=20, max_size=120),
    policy_name=st.sampled_from(["TTL", "HIST"]),
    capacity=st.floats(min_value=300.0, max_value=1500.0),
)
def test_one_pass_lookup_matches_two_pass_reference(ops, policy_name, capacity):
    fast = _Replica(KeepAliveCache, policy_name, capacity)
    ref = _Replica(TwoPassLookupCache, policy_name, capacity)
    now = 0.0
    for kind, fid, mem, step in ops:
        fqdn = f"f{fid}"
        if kind == "insert":
            assert fast.insert(fqdn, mem, now) == ref.insert(fqdn, mem, now)
        elif kind == "invoke":
            assert fast.invoke(fqdn, mem, now) == ref.invoke(fqdn, mem, now)
        elif kind == "finish_all":
            fast.finish_all(now + step)
            ref.finish_all(now + step)
        else:
            now += step
        assert fast.state() == ref.state()
        fast.cache.check_invariants(now=now)


# ------------------------------------------- lazy heap vs eager reference
class EagerHeapCache(KeepAliveCache):
    """Reference heap: every priority update pushes a new tuple, and a
    popped tuple whose stamp is not the container's current one is
    skipped as stale."""

    def _push_heap(self, container):
        heap = self._evict_heap
        heapq.heappush(
            heap, (container.priority, container.stamp, container.seq, container)
        )
        if len(heap) > 2 * self._count + 64:
            self._compact()

    def _compact(self):
        heap = [t for t in self._evict_heap
                if not t[3].evicted and t[1] == t[3].stamp]
        heapq.heapify(heap)
        self._evict_heap = heap

    def _restamp(self, container):
        container.stamp += 1
        self._seq += 1
        container.seq = self._seq
        self._push_heap(container)

    def evict_one(self, now):
        buffer = []
        victim = None
        while self._evict_heap:
            pri, stamp, seq, cand = heapq.heappop(self._evict_heap)
            if cand.evicted or stamp != cand.stamp:
                continue  # stale heap entry
            if not cand.is_idle(now):
                buffer.append((pri, stamp, seq, cand))
                continue
            victim = cand
            break
        for item in buffer:
            heapq.heappush(self._evict_heap, item)
        if victim is None:
            return None
        self._remove(victim, expired_eviction=False)
        return victim

    def _check_heap(self):
        current = [t[3].id for t in self._evict_heap
                   if not t[3].evicted and t[1] == t[3].stamp]
        assert sorted(current) == sorted(c.id for c in self)


class FallingPolicy(LRUPolicy):
    """A priority that rises and falls with the access count, with many
    ties: every fall must take the store's eager push."""

    name = "FALL"

    def priority(self, entry, now):
        return float((entry.freq * 7 + int(now)) % 5)


def _policy_under_test(name):
    if name == "FALL":
        return FallingPolicy()
    if name in ("TTL", "HIST"):
        return _make_policy(name)
    return make_policy(name)


class _HeapReplica:
    """One store under test, driven as both simulators drive it: a claim
    ends either with ``finish`` (trace simulator) or ``release`` (DES)."""

    def __init__(self, cls, policy_name, capacity):
        self.victims = []
        self.ordinal = {}
        self.cache = cls(_policy_under_test(policy_name), capacity,
                         on_evict=lambda c: self.victims.append(self.ordinal[c.id]))
        self.claimed = []

    def _claim(self, c, pick, now):
        """An odd ``pick`` runs the invocation to completion at once."""
        if pick % 2:
            self.cache.finish(c, now + 0.1)
        else:
            self.claimed.append(c)

    def apply(self, kind, fqdn, amount, pick, now):
        cache = self.cache
        if kind == "invoke":
            if isinstance(cache.policy, HistogramPolicy):
                cache.policy.record_arrival(fqdn, now)
            c = cache.lookup(fqdn, now)
            if c is not None:
                self._claim(c, pick, now)
                return "warm", self.ordinal[c.id]
            kind = "insert"
        if kind == "insert":
            c = cache.insert(fqdn, amount, 1.0 + len(fqdn) % 3, 0.1, now)
            if c is None:
                return None
            self.ordinal[c.id] = len(self.ordinal)
            cache.finish(c, float("inf"))
            self._claim(c, pick, now)
            return "cold", self.ordinal[c.id]
        if kind in ("finish", "release"):
            if not self.claimed:
                return None
            c = self.claimed.pop(pick % len(self.claimed))
            if kind == "finish":
                cache.finish(c, now + amount / 400.0)
            else:
                cache.release(c, now)
            return self.ordinal[c.id]
        if kind == "discard":
            resident = sorted(cache, key=lambda c: self.ordinal[c.id])
            if not resident:
                return None
            c = resident[pick % len(resident)]
            cache.discard(c)
            if c in self.claimed:
                self.claimed.remove(c)
            return self.ordinal[c.id]
        if kind == "expire":
            return cache.expire(now)
        if kind == "set_capacity":
            cache.set_capacity(amount * 3.0, now)
            return cache.capacity_mb
        assert kind == "evict_for"
        return cache.evict_for(amount, now)

    def state(self):
        s = self.cache.stats
        return ({k: getattr(s, k) for k in type(s).__slots__},
                self.cache.used_mb, list(self.victims))


heap_op = st.tuples(
    st.sampled_from(["invoke"] * 5 + ["advance"] * 4 + [
        "insert", "finish", "release", "discard", "expire", "set_capacity",
        "evict_for"]),
    st.sampled_from(["f", "gg", "hhh"]),          # function
    st.floats(min_value=50.0, max_value=400.0),   # memory / MB / duration
    st.integers(min_value=0, max_value=7),        # which container
    st.sampled_from([0.25, 1.0, 3.0, 7.0, 45.0]),  # time step
)


@pytest.mark.parametrize("policy_name", POLICY_NAMES + ("FALL",))
@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(heap_op, min_size=20, max_size=80),
    capacity=st.floats(min_value=300.0, max_value=1500.0),
)
def test_lazy_heap_evicts_like_the_eager_reference(ops, policy_name, capacity):
    lazy = _HeapReplica(KeepAliveCache, policy_name, capacity)
    eager = _HeapReplica(EagerHeapCache, policy_name, capacity)
    now = 0.0
    for kind, fqdn, amount, pick, step in ops:
        if kind == "advance":
            now += step
            continue
        assert (lazy.apply(kind, fqdn, amount, pick, now)
                == eager.apply(kind, fqdn, amount, pick, now))
        assert lazy.state() == eager.state()
        lazy.cache.check_invariants(now)
        eager.cache.check_invariants(now)


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_warm_hits_do_not_grow_the_heap(policy_name):
    cache = KeepAliveCache(make_policy(policy_name), capacity_mb=1000.0)
    c = cache.insert("f", 100.0, 1.0, 0.1, now=0.0)
    cache.finish(c, 0.1)
    for i in range(1, 101):
        now = float(i)
        assert cache.lookup("f", now) is c
        cache.finish(c, now + 0.1)
    assert cache.stats.hits == 100
    assert len(cache._evict_heap) == 1
    cache.check_invariants(now=101.0)
