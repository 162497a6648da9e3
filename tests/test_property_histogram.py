"""Property tests: the export-time latency distributions report exact
counts, extremes and means, and p50/p90/p99 within one sketch bucket
(``relative_accuracy``) of the exact nearest-rank sample."""

import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.registry import InvocationRecord, Outcome
from repro.telemetry import latency_distributions

# Exact zeros are common (bypassed or unqueued invocations have a 0.0
# queue time) and land in the sketch's zero bucket, so draw them often.
latency = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
)
samples_strategy = st.lists(
    st.tuples(latency, latency, latency, latency), min_size=1, max_size=200
)


def _run(samples, dropped):
    """Completed records (plus ``dropped`` drops, which must not count)
    and pull breakdowns carrying each sample's claim wait."""
    records = [
        InvocationRecord(function="f", arrival=float(i), outcome=Outcome.WARM,
                         e2e_time=e2e, queue_time=queue, overhead=overhead)
        for i, (e2e, queue, overhead, _claim) in enumerate(samples)
    ]
    records += [
        InvocationRecord(function="f", arrival=-1.0, outcome=Outcome.DROPPED,
                         e2e_time=1e6)
        for _ in range(dropped)
    ]
    breakdowns = [SimpleNamespace(phases={"queue": 0.0, "claim_wait": claim})
                  for *_rest, claim in samples]
    dists = latency_distributions(records, breakdowns)
    columns = dict(zip(
        ("e2e_seconds", "queue_seconds", "overhead_seconds", "claim_wait_seconds"),
        zip(*samples),
    ))
    assert sorted(dists) == sorted(columns)
    return dists, columns


@settings(max_examples=200, deadline=None)
@given(samples=samples_strategy, dropped=st.integers(min_value=0, max_value=3))
def test_quantile_within_one_bucket_of_exact(samples, dropped):
    dists, columns = _run(samples, dropped)
    for name, values in columns.items():
        sketch = dists[name].sketch
        summary = dists[name].summary()
        ordered = sorted(values)
        for key, q in (("p50", 50), ("p90", 90), ("p99", 99)):
            exact = ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]
            est = summary[key]
            if exact <= sketch.min_value:        # the zero bucket
                assert est == 0.0 and exact - est <= sketch.min_value
            else:
                assert abs(est - exact) <= sketch.relative_accuracy * exact + 1e-12
            # The estimate never escapes the observed sample range.
            assert est == 0.0 or ordered[0] <= est <= ordered[-1]


@settings(max_examples=100, deadline=None)
@given(samples=samples_strategy, dropped=st.integers(min_value=0, max_value=3))
def test_count_total_and_extremes_exact(samples, dropped):
    dists, columns = _run(samples, dropped)
    for name, values in columns.items():
        dist = dists[name]
        summary = dist.summary()
        assert summary["count"] == dist.sketch.count == len(values)
        assert summary["min"] == min(values)
        assert summary["max"] == max(values)
        assert dist.total == math.fsum(values)
        assert math.isclose(summary["mean"], math.fsum(values) / len(values),
                            rel_tol=1e-15, abs_tol=0.0)
        cumulative = list(dist.sketch.cumulative())
        assert cumulative[0] == (dist.sketch.min_value,
                                 sum(1 for v in values if v <= dist.sketch.min_value))
        assert cumulative[-1] == (float("inf"), len(values))
