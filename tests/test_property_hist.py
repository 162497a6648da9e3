"""Property tests for the HIST policy's preload machinery and the
simulator's invariants under it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.keepalive.policies import HistogramPolicy
from repro.keepalive.simulator import KeepAliveSimulator
from repro.trace.model import Trace, TraceFunction


@settings(max_examples=40, deadline=None)
@given(
    iats=st.lists(
        st.floats(min_value=1.0, max_value=7200.0), min_size=3, max_size=60
    )
)
def test_hist_windows_are_ordered(iats):
    p = HistogramPolicy(min_samples=2)
    t = 0.0
    for gap in iats:
        p.record_arrival("f", t)
        t += gap
    windows = p._windows("f")
    if windows is not None:
        head, tail = windows
        assert 0.0 <= head <= tail
        # Bucket edges: both are multiples of 60 s.
        assert head % 60.0 == 0.0
        assert tail % 60.0 == 0.0


def _reference_bucket(buckets, q):
    """The bucket numpy's cumsum + searchsorted picks for percentile q."""
    cdf = np.cumsum(np.asarray(buckets, dtype=np.int64))
    return int(np.searchsorted(cdf, math.ceil(q / 100.0 * int(cdf[-1]))))


iat_gap = st.one_of(
    st.floats(min_value=0.0, max_value=59.99),          # sub-minute
    st.integers(min_value=1, max_value=30).map(lambda m: m * 60.0),  # on an edge
    st.floats(min_value=60.0, max_value=1800.0),        # multi-minute
    st.floats(min_value=1800.0, max_value=20000.0),     # beyond small windows
)
percentile = st.one_of(st.just(100.0), st.floats(min_value=0.01, max_value=100.0))


@settings(max_examples=150, deadline=None)
@given(
    gaps=st.lists(iat_gap, min_size=1, max_size=60),
    window_hours=st.sampled_from([0.1, 0.5, 4.0]),
    qs=st.tuples(percentile, percentile).map(sorted),
    min_samples=st.integers(min_value=1, max_value=5),
)
def test_hist_incremental_percentiles_match_numpy(gaps, window_hours, qs,
                                                  min_samples):
    head_q, tail_q = qs
    p = HistogramPolicy(window_hours=window_hours, head_percentile=head_q,
                        tail_percentile=tail_q, min_samples=min_samples)
    t = 0.0
    p.record_arrival("f", t)
    for gap in gaps:
        t += gap
        p.record_arrival("f", t)
        hist = p._history["f"]
        assert len(hist.buckets) == int(window_hours * 60)
        assert sum(hist.buckets) == hist.stats.n
        if hist.stats.n == 0:
            assert math.isnan(hist.percentile_iat(head_q, edge="lower"))
            assert p._windows("f") is None
            continue
        head = _reference_bucket(hist.buckets, head_q)
        tail = _reference_bucket(hist.buckets, tail_q)
        assert (hist.head.idx, hist.tail.idx) == (head, tail)
        for q, idx in ((head_q, head), (tail_q, tail)):
            assert hist.percentile_iat(q, edge="lower") == idx * 60.0
            assert hist.percentile_iat(q, edge="upper") == (idx + 1) * 60.0
        if hist.stats.n < min_samples or not hist.predictable:
            expected = None
        else:
            expected = (head * 60.0, (tail + 1) * 60.0)
        # Asked twice: the memo must be fresh after every arrival.
        assert p._windows("f") == expected
        assert p._windows("f") == expected


@settings(max_examples=25, deadline=None)
@given(
    gaps=st.lists(
        st.sampled_from([30.0, 120.0, 300.0, 1800.0]), min_size=5, max_size=80
    ),
    n_functions=st.integers(min_value=1, max_value=4),
)
def test_hist_simulation_invariants(gaps, n_functions):
    functions = [
        TraceFunction(name=f"f{k}", memory_mb=100.0, warm_time=1.0,
                      cold_time=2.0)
        for k in range(n_functions)
    ]
    ts, idx = [], []
    clocks = [0.0] * n_functions
    for i, gap in enumerate(gaps):
        k = i % n_functions
        clocks[k] += gap
        ts.append(clocks[k])
        idx.append(k)
    order = np.argsort(ts)
    trace = Trace(
        functions,
        np.asarray(ts)[order],
        np.asarray(idx, dtype=np.int64)[order],
        duration=max(ts) + 1.0,
    )
    sim = KeepAliveSimulator(HistogramPolicy(min_samples=2), 1024.0)
    result = sim.run(trace)
    sim.cache.check_invariants(now=sim.now)
    assert result.cold_starts + result.warm_starts == len(gaps)
    assert result.preloads >= 0
    assert sim.cache.used_mb <= 1024.0 + 1e-9


def test_hist_preload_request_ordering():
    from repro.keepalive.policies import PreloadRequest

    a = PreloadRequest(when=1.0, fqdn="a", keep_until=5.0)
    b = PreloadRequest(when=2.0, fqdn="b", keep_until=3.0)
    assert a < b
    assert not (b < a)
