"""Unit tests for the metrics substrate (stats, spans, registry, energy)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    EnergyModel,
    EnergyMonitor,
    InvocationRecord,
    MetricsRegistry,
    OnlineStats,
    Outcome,
    bin_timeseries,
    percentile,
    summarize,
)


# ------------------------------------------------------------------- stats
def test_summarize_basic():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.count == 4
    assert s.mean == pytest.approx(2.5)
    assert s.minimum == 1.0
    assert s.maximum == 4.0
    assert s.p50 == pytest.approx(2.5)


def test_summarize_empty_is_nan():
    s = summarize([])
    assert s.count == 0
    assert np.isnan(s.mean)


def test_summarize_row_keys():
    row = summarize([1.0]).row()
    assert set(row) == {"count", "mean", "std", "min", "p50", "p90", "p99", "max"}


def test_percentile_matches_numpy():
    data = list(np.random.default_rng(0).random(100))
    assert percentile(data, 90) == pytest.approx(np.percentile(data, 90))
    assert np.isnan(percentile([], 50))


def test_bin_timeseries_counts_conserved():
    ts = [0.5, 1.5, 1.7, 9.9]
    counts = bin_timeseries(ts, duration=10.0, bin_width=1.0)
    assert counts.sum() == 4
    assert counts[0] == 1 and counts[1] == 2 and counts[9] == 1


def test_bin_timeseries_clamps_overflow():
    counts = bin_timeseries([15.0], duration=10.0, bin_width=1.0)
    assert counts[-1] == 1  # beyond-duration events land in the last bin


def test_bin_timeseries_validation():
    with pytest.raises(ValueError):
        bin_timeseries([1.0], duration=10.0, bin_width=0.0)
    with pytest.raises(ValueError):
        bin_timeseries([1.0], duration=-1.0)


def test_online_stats_matches_numpy():
    data = np.random.default_rng(1).random(500) * 10
    s = OnlineStats()
    for x in data:
        s.push(float(x))
    assert s.mean == pytest.approx(data.mean())
    assert s.variance == pytest.approx(data.var(), rel=1e-6)
    assert s.cov == pytest.approx(data.std() / data.mean(), rel=1e-6)


def test_online_stats_empty_and_zero_mean():
    s = OnlineStats()
    assert np.isnan(s.mean)
    s.push(0.0)
    assert s.cov == float("inf")


@settings(max_examples=100, deadline=None)
@given(
    left=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                            allow_nan=False, allow_infinity=False),
                  max_size=100),
    right=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                             allow_nan=False, allow_infinity=False),
                   max_size=100),
)
def test_online_stats_merge_matches_pooled_recompute(left, right):
    a, b = OnlineStats(), OnlineStats()
    for x in left:
        a.push(x)
    for x in right:
        b.push(x)
    a.merge(b)
    pooled = np.asarray(left + right, dtype=float)
    assert a.n == pooled.size
    if pooled.size == 0:
        assert np.isnan(a.mean)
    else:
        assert a.mean == pytest.approx(pooled.mean(), abs=1e-6)
        assert a.variance == pytest.approx(pooled.var(), rel=1e-6, abs=1e-6)


def test_online_stats_merge_empty_edges():
    a, b = OnlineStats(), OnlineStats()
    b.push(2.0)
    b.push(4.0)
    a.merge(b)           # empty <- populated copies
    assert (a.n, a.mean) == (2, 3.0)
    a.merge(OnlineStats())  # populated <- empty is a no-op
    assert (a.n, a.mean) == (2, 3.0)


# ------------------------------------------------------------------- spans
def test_breakdown_table_grouping_and_order():
    from types import SimpleNamespace

    from repro.experiments.table2_breakdown import component_table

    contexts = [
        SimpleNamespace(intervals=[
            ("custom_component", 0.0, 0.001),
            ("call_container", 0.001, 0.00226),
            ("exec", 0.00226, 0.5),          # function time -> no row
        ]),
        SimpleNamespace(intervals=[
            ("invoke", 1.0, 1.000026),
            ("call_container", 1.0, 1.00146),
        ]),
    ]
    rows = component_table(contexts, scale=1000.0)
    by_fn = {r["function"]: r for r in rows}
    assert by_fn["invoke"]["group"] == "Ingestion & Queuing"
    assert by_fn["call_container"]["group"] == "Agent Communication"
    assert by_fn["custom_component"]["group"] == "Other"
    assert by_fn["call_container"]["time"] == pytest.approx(1.36)
    # Canonical components come first, in Table 2 order, then "Other".
    assert [r["function"] for r in rows] == \
        ["invoke", "call_container", "custom_component"]


# ----------------------------------------------------------------- registry
def _record(outcome, cold=False, fn="f", overhead=0.001):
    return InvocationRecord(
        function=fn, arrival=0.0, outcome=outcome, exec_time=0.1,
        e2e_time=0.1 + overhead, overhead=overhead, cold=cold,
    )


def test_registry_outcome_tally():
    reg = MetricsRegistry()
    reg.record_invocation(_record(Outcome.WARM))
    reg.record_invocation(_record(Outcome.COLD, cold=True))
    reg.record_invocation(_record(Outcome.DROPPED))
    tally = reg.outcomes()
    assert tally[Outcome.WARM] == 1
    assert tally[Outcome.COLD] == 1
    assert tally[Outcome.DROPPED] == 1
    assert reg.count("invocations.completed") == 2


def test_registry_cold_and_drop_ratios():
    reg = MetricsRegistry()
    reg.record_invocation(_record(Outcome.WARM))
    reg.record_invocation(_record(Outcome.COLD, cold=True))
    reg.record_invocation(_record(Outcome.DROPPED))
    assert reg.cold_ratio() == pytest.approx(0.5)
    assert reg.drop_ratio() == pytest.approx(1 / 3)


def test_registry_by_function_breakdown():
    reg = MetricsRegistry()
    reg.record_invocation(_record(Outcome.WARM, fn="a"))
    reg.record_invocation(_record(Outcome.COLD, cold=True, fn="a"))
    reg.record_invocation(_record(Outcome.DROPPED, fn="b"))
    table = reg.outcomes_by_function()
    assert table["a"] == {"warm": 1, "cold": 1, "dropped": 0}
    assert table["b"] == {"warm": 0, "cold": 0, "dropped": 1}


def test_registry_overheads_exclude_drops():
    reg = MetricsRegistry()
    reg.record_invocation(_record(Outcome.WARM, overhead=0.002))
    reg.record_invocation(_record(Outcome.DROPPED))
    assert reg.overheads() == [0.002]


def test_registry_empty_ratios_nan():
    reg = MetricsRegistry()
    assert np.isnan(reg.cold_ratio())
    assert np.isnan(reg.drop_ratio())


def test_registry_reset():
    reg = MetricsRegistry()
    reg.incr("x")
    reg.record_invocation(_record(Outcome.WARM))
    reg.reset()
    assert reg.count("x") == 0
    assert reg.records == []


def test_invocation_record_stretch():
    rec = InvocationRecord(
        function="f", arrival=0.0, outcome=Outcome.WARM,
        exec_time=1.0, e2e_time=1.5,
    )
    assert rec.stretch == pytest.approx(1.5)
    zero = InvocationRecord(function="f", arrival=0.0, outcome=Outcome.DROPPED)
    assert np.isnan(zero.stretch)


# ------------------------------------------------------------------- energy
def test_energy_model_linear():
    m = EnergyModel(idle_watts=100.0, watts_per_core=2.0)
    assert m.power(0) == 100.0
    assert m.power(10) == 120.0
    with pytest.raises(ValueError):
        m.power(-1)


def test_energy_monitor_integrates_piecewise():
    clock = {"t": 0.0}
    mon = EnergyMonitor(clock=lambda: clock["t"],
                        model=EnergyModel(idle_watts=100.0, watts_per_core=10.0))
    mon.update(0.0)      # start at t=0, idle
    clock["t"] = 10.0
    mon.update(5.0)      # 10 s idle: 1000 J
    clock["t"] = 20.0
    joules = mon.finish()  # 10 s at 150 W: 1500 J
    assert joules == pytest.approx(2500.0)


def test_energy_monitor_clock_backwards_rejected():
    clock = {"t": 10.0}
    mon = EnergyMonitor(clock=lambda: clock["t"])
    mon.update(1.0)
    clock["t"] = 5.0
    with pytest.raises(ValueError):
        mon.update(2.0)


def test_energy_monitor_power_property():
    clock = {"t": 0.0}
    mon = EnergyMonitor(clock=lambda: clock["t"],
                        model=EnergyModel(idle_watts=100.0, watts_per_core=10.0))
    mon.update(0.0)
    assert mon.power == 100.0
    mon.update(4.0)
    assert mon.power == 140.0


def test_energy_monitor_joules_at_mid_interval():
    clock = {"t": 0.0}
    mon = EnergyMonitor(clock=lambda: clock["t"],
                        model=EnergyModel(idle_watts=100.0, watts_per_core=10.0))
    assert mon.joules_at(5.0) == 0.0  # not started yet
    mon.update(2.0)           # 120 W from t=0
    # Mid-interval read integrates the open segment without mutating it.
    assert mon.joules_at(5.0) == pytest.approx(600.0)
    assert mon.joules_at(5.0) == pytest.approx(600.0)  # repeatable
    with pytest.raises(ValueError):
        mon.joules_at(-1.0)   # clock going backwards
    clock["t"] = 10.0
    assert mon.finish() == pytest.approx(1200.0)  # reads did not double-count


def test_energy_monitor_integrates_known_schedule():
    # Busy-core schedule: 2 cores for 10 s, 5 cores for 20 s, idle for 30 s.
    clock = {"t": 0.0}
    mon = EnergyMonitor(clock=lambda: clock["t"],
                        model=EnergyModel(idle_watts=50.0, watts_per_core=4.0))
    mon.update(2.0)
    clock["t"] = 10.0
    mon.update(5.0)
    clock["t"] = 30.0
    mon.update(0.0)
    clock["t"] = 60.0
    joules = mon.finish()
    expected = 58.0 * 10 + 70.0 * 20 + 50.0 * 30
    assert joules == pytest.approx(expected)
