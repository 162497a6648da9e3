"""Property-based tests (hypothesis) on core data structures and invariants."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.keepalive.cache import KeepAliveCache
from repro.keepalive.policies import make_policy
from repro.keepalive.simulator import simulate
from repro.loadbalancer.chbl import ConsistentHashRing, hash_point
from repro.loadbalancer.policies import CHBLPolicy, StatusBoard
from repro.metrics.stats import OnlineStats, bin_timeseries
from repro.sim import Environment, Gauge
from repro.trace.model import Trace, TraceFunction
from repro.trace.replay import expand_minute_bucket


# --------------------------------------------------------------- cache ops
op = st.tuples(
    st.sampled_from(["insert", "lookup", "finish_all", "advance", "expire"]),
    st.integers(min_value=0, max_value=5),   # function id
    st.floats(min_value=1.0, max_value=400.0),  # memory
)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(op, min_size=1, max_size=60),
    policy_name=st.sampled_from(["LRU", "TTL", "GD", "LND", "FREQ"]),
    capacity=st.floats(min_value=100.0, max_value=2000.0),
)
def test_cache_invariants_hold_under_arbitrary_ops(ops, policy_name, capacity):
    cache = KeepAliveCache(make_policy(policy_name), capacity_mb=capacity)
    now = 0.0
    claimed = []
    for kind, fid, mem in ops:
        if kind == "insert":
            entry = cache.insert(f"f{fid}", mem, 1.0, 0.1, now)
            if entry is not None:
                cache.finish(entry, now + 0.5)
        elif kind == "lookup":
            entry = cache.lookup(f"f{fid}", now)
            if entry is not None:
                claimed.append(entry)
        elif kind == "finish_all":
            for entry in claimed:
                cache.finish(entry, now + 0.1)
            claimed.clear()
        elif kind == "advance":
            now += float(fid) + 1.0
        elif kind == "expire":
            cache.expire(now)
        cache.check_invariants(now=now)
    # Conservation: hits + misses == lookups issued.
    lookups = sum(1 for k, *_ in ops if k == "lookup")
    assert cache.stats.hits + cache.stats.misses == lookups


@settings(max_examples=40, deadline=None)
@given(
    stamps=st.lists(
        st.floats(min_value=0.0, max_value=10_000.0), min_size=1, max_size=200
    ),
    policy_name=st.sampled_from(["LRU", "TTL", "GD", "LND", "FREQ", "HIST"]),
)
def test_simulator_accounting_identities(stamps, policy_name):
    functions = [
        TraceFunction(name="f", memory_mb=100.0, warm_time=1.0, cold_time=2.0)
    ]
    ts = np.sort(np.asarray(stamps))
    trace = Trace(functions, ts, np.zeros(len(stamps), dtype=np.int64),
                  duration=10_001.0)
    r = simulate(trace, policy_name, 1024.0)
    assert r.cold_starts + r.warm_starts == len(stamps)
    assert r.cold_starts >= 1  # the first invocation is always cold
    assert r.total_warm_exec == pytest.approx(len(stamps) * 1.0)
    assert r.total_cold_overhead == pytest.approx(r.cold_starts * 1.0)
    assert 0.0 <= r.cold_ratio <= 1.0


# --------------------------------------------------------------- hash ring
@settings(max_examples=40, deadline=None)
@given(
    members=st.lists(
        st.text(alphabet="abcdefgh", min_size=1, max_size=6),
        min_size=1, max_size=8, unique=True,
    ),
    key=st.text(alphabet="xyz0123456789", min_size=1, max_size=12),
)
def test_ring_successors_is_permutation(members, key):
    ring = ConsistentHashRing(vnodes=8)
    for m in members:
        ring.add(m)
    order = ring.successors(key)
    assert sorted(order) == sorted(members)


@settings(max_examples=30, deadline=None)
@given(
    members=st.lists(
        st.text(alphabet="abcdefgh", min_size=1, max_size=6),
        min_size=2, max_size=8, unique=True,
    ),
)
def test_ring_removal_only_moves_victims_keys(members):
    ring = ConsistentHashRing(vnodes=16)
    for m in members:
        ring.add(m)
    keys = [f"key-{i}" for i in range(50)]
    before = {k: ring.successors(k)[0] for k in keys}
    victim = members[0]
    ring.remove(victim)
    for k in keys:
        if before[k] != victim:
            assert ring.successors(k)[0] == before[k]


class _ReferenceCHBL:
    """CH-BL with nothing memoised: every pick walks the whole ring and
    re-reads every member's load for the bound."""

    def __init__(self, load_fn, bound_factor, vnodes):
        self.load_fn = load_fn
        self.bound_factor = bound_factor
        self.vnodes = vnodes
        self.ring: list = []        # sorted (point, member)
        self.forwards = 0

    def add_worker(self, name):
        for v in range(self.vnodes):
            bisect.insort(self.ring, (hash_point(f"{name}#{v}"), name))

    def remove_worker(self, name):
        self.ring = [(p, m) for p, m in self.ring if m != name]

    def successors(self, key):
        points = [p for p, _ in self.ring]
        start = bisect.bisect(points, hash_point(key)) % len(points)
        seen = []
        for off in range(len(points)):
            m = self.ring[(start + off) % len(points)][1]
            if m not in seen:
                seen.append(m)
        return seen

    def bound(self):
        members = sorted({m for _, m in self.ring})
        mean_load = sum(self.load_fn(m) for m in members) / len(members)
        return max(math.ceil(self.bound_factor * mean_load), 1.0)

    def pick(self, key):
        order = self.successors(key)
        limit = self.bound()
        for i, member in enumerate(order):
            if self.load_fn(member) <= limit:
                self.forwards += i and 1
                return member
        self.forwards += 1
        return min(order, key=self.load_fn)


_POOL = [f"w{i}" for i in range(8)]
chbl_op = st.one_of(
    st.tuples(st.just("pick"), st.integers(0, 11)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.3, 1.0, 2.5])),
    st.tuples(st.just("load"), st.integers(0, 7), st.integers(0, 6)),
    st.tuples(st.just("add"), st.integers(0, 7)),
    st.tuples(st.just("remove"), st.integers(0, 7)),
)


@settings(max_examples=150, deadline=None)
@given(
    initial=st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
    ops=st.lists(chbl_op, min_size=1, max_size=80),
    interval=st.sampled_from([None, 1.0, 2.5]),
    vnodes=st.integers(1, 12),
    bound_factor=st.sampled_from([1.0, 1.25, 2.0]),
)
def test_memoised_chbl_matches_uncached_reference(
    initial, ops, interval, vnodes, bound_factor
):
    """The memoised ring walk and per-epoch bound place exactly like a
    full walk with a recomputed bound: same successor orders, picks,
    forwards and status-board publish sequence, across epoch crossings
    and membership changes."""
    clock = {"t": 0.0}
    live = {w: 0 for w in _POOL}

    def board(published):
        return StatusBoard(
            clock=lambda: clock["t"], live_load_fn=live.__getitem__,
            interval=interval,
            publish=lambda w, t, v: published.append((w, t, v)),
        )

    got_pub, want_pub = [], []
    got_board, want_board = board(got_pub), board(want_pub)
    lb = CHBLPolicy(got_board.load, bound_factor=bound_factor, vnodes=vnodes,
                    load_epoch=got_board.epoch)
    ref = _ReferenceCHBL(want_board.load, bound_factor, vnodes)
    members = []
    for i in initial:
        lb.add_worker(_POOL[i])
        ref.add_worker(_POOL[i])
        members.append(_POOL[i])

    for op in ops:
        kind = op[0]
        if kind == "pick":
            key = f"fn-{op[1]}"
            assert lb.pick(key) == ref.pick(key)
            assert lb.ring.successors(key) == ref.successors(key)
            assert lb.forwards == ref.forwards
        elif kind == "advance":
            clock["t"] += op[1]
        elif kind == "load":
            live[_POOL[op[1]]] = op[2]
        elif kind == "add" and _POOL[op[1]] not in members:
            lb.add_worker(_POOL[op[1]])
            ref.add_worker(_POOL[op[1]])
            members.append(_POOL[op[1]])
        elif kind == "remove" and _POOL[op[1]] in members and len(members) > 1:
            lb.remove_worker(_POOL[op[1]])
            ref.remove_worker(_POOL[op[1]])
            members.remove(_POOL[op[1]])
        assert got_pub == want_pub
    assert lb.ring.members() == tuple(sorted(members))
    assert got_board.refreshes == want_board.refreshes


# ------------------------------------------------------------------- gauge
@settings(max_examples=50, deadline=None)
@given(
    amounts=st.lists(
        st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=30
    )
)
def test_gauge_take_give_conserves_level(amounts):
    env = Environment()
    g = Gauge(env, capacity=100.0)
    taken = []
    for amount in amounts:
        if g.try_take(amount):
            taken.append(amount)
    assert g.level == pytest.approx(100.0 - sum(taken))
    for amount in taken:
        g.give(amount)
    assert g.level == pytest.approx(100.0)


# ----------------------------------------------------------------- replay
@settings(max_examples=60, deadline=None)
@given(
    minute=st.integers(min_value=0, max_value=1439),
    count=st.integers(min_value=1, max_value=200),
)
def test_minute_bucket_expansion_properties(minute, count):
    ts = expand_minute_bucket(minute, count)
    assert ts.size == count
    assert ts[0] == minute * 60.0  # first at the start of the minute
    assert np.all(ts >= minute * 60.0)
    assert np.all(ts < (minute + 1) * 60.0)  # all within the minute
    if count > 1:
        gaps = np.diff(ts)
        assert np.allclose(gaps, 60.0 / count)  # equally spaced


# ------------------------------------------------------------------- stats
@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=2, max_size=200,
    )
)
def test_online_stats_agrees_with_numpy(data):
    s = OnlineStats()
    for x in data:
        s.push(x)
    arr = np.asarray(data)
    assert s.mean == pytest.approx(arr.mean(), rel=1e-6, abs=1e-6)
    assert s.variance == pytest.approx(arr.var(), rel=1e-5, abs=1e-4)


@settings(max_examples=50, deadline=None)
@given(
    stamps=st.lists(
        st.floats(min_value=0.0, max_value=99.9), min_size=0, max_size=100
    ),
    width=st.floats(min_value=0.5, max_value=10.0),
)
def test_bin_timeseries_conserves_events(stamps, width):
    counts = bin_timeseries(stamps, duration=100.0, bin_width=width)
    assert counts.sum() == len(stamps)
    assert np.all(counts >= 0)


# ------------------------------------------------------------ trace merges
@settings(max_examples=30, deadline=None)
@given(
    a=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30),
    b=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30),
)
def test_trace_merge_conserves_invocations(a, b):
    fa = [TraceFunction(name="fa", memory_mb=10.0, warm_time=0.1, cold_time=0.2)]
    fb = [TraceFunction(name="fb", memory_mb=10.0, warm_time=0.1, cold_time=0.2)]
    ta = Trace(fa, np.sort(np.asarray(a)), np.zeros(len(a), dtype=np.int64),
               duration=101.0)
    tb = Trace(fb, np.sort(np.asarray(b)), np.zeros(len(b), dtype=np.int64),
               duration=101.0)
    merged = Trace.merge([ta, tb])
    assert len(merged) == len(a) + len(b)
    assert np.all(np.diff(merged.timestamps) >= 0)
