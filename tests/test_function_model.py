"""Unit tests for FunctionRegistration / Invocation and characteristics."""

import numpy as np
import pytest

from repro.core.characteristics import CharacteristicsMap, FunctionStats, MovingAverage
from repro.core.function import FunctionRegistration, Invocation


# ----------------------------------------------------------- registration
def test_registration_defaults_and_fqdn():
    reg = FunctionRegistration(name="hello")
    assert reg.fqdn() == "hello.1"
    assert reg.init_time == pytest.approx(reg.cold_time - reg.warm_time)


def test_registration_versioned_fqdn():
    assert FunctionRegistration(name="f", version=3).fqdn() == "f.3"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"name": ""},
        {"name": "f", "memory_mb": 0},
        {"name": "f", "cpus": 0},
        {"name": "f", "warm_time": -1.0},
        {"name": "f", "warm_time": 2.0, "cold_time": 1.0},
        {"name": "f", "warm_time": float("nan")},
        {"name": "f", "cold_time": float("nan")},
        {"name": "f", "memory_mb": float("nan")},
        {"name": "f", "cpus": float("nan")},
        {"name": "f", "timeout": float("nan")},
    ],
)
def test_registration_validation(kwargs):
    with pytest.raises(ValueError):
        FunctionRegistration(**kwargs)


# -------------------------------------------------------------- invocation
def test_invocation_timing_properties():
    reg = FunctionRegistration(name="f", warm_time=0.1, cold_time=0.5)
    inv = Invocation(function=reg, arrival=10.0)
    inv.enqueued_at = 10.001
    inv.dispatched_at = 10.101
    inv.exec_started_at = 10.102
    inv.exec_finished_at = 10.202
    inv.completed_at = 10.203
    assert inv.queue_time == pytest.approx(0.1)
    assert inv.exec_time == pytest.approx(0.1)
    assert inv.e2e_time == pytest.approx(0.203)
    assert inv.overhead == pytest.approx(0.103)
    assert inv.stretch == pytest.approx(0.203 / 0.1)


def test_invocation_defaults_zero():
    reg = FunctionRegistration(name="f")
    inv = Invocation(function=reg, arrival=0.0)
    assert inv.queue_time == 0.0
    assert inv.exec_time == 0.0
    assert inv.e2e_time == 0.0
    assert np.isnan(inv.stretch)


def test_invocation_ids_unique():
    reg = FunctionRegistration(name="f")
    a = Invocation(function=reg, arrival=0.0)
    b = Invocation(function=reg, arrival=0.0)
    assert a.id != b.id


# ---------------------------------------------------------- moving average
def test_moving_average_window():
    ma = MovingAverage(window=3)
    for v in [1.0, 2.0, 3.0, 4.0]:
        ma.push(v)
    assert ma.value == pytest.approx(3.0)  # [2, 3, 4]
    assert ma.count == 3


def test_moving_average_empty_is_zero():
    ma = MovingAverage()
    assert ma.value == 0.0
    assert not ma


def test_moving_average_invalid_window():
    with pytest.raises(ValueError):
        MovingAverage(window=0)


# ------------------------------------------------------------- statistics
def test_function_stats_iat_tracking():
    s = FunctionStats(fqdn="f.1")
    s.record_arrival(0.0)
    s.record_arrival(2.0)
    s.record_arrival(6.0)
    assert s.avg_iat == pytest.approx(3.0)
    assert s.invocations == 3


def test_function_stats_arrival_order_enforced():
    s = FunctionStats(fqdn="f.1")
    s.record_arrival(5.0)
    with pytest.raises(ValueError):
        s.record_arrival(1.0)


def test_function_stats_cold_warm_split():
    s = FunctionStats(fqdn="f.1")
    s.record_execution(0.1, cold=False)
    s.record_execution(0.5, cold=True)
    assert s.warm_time == pytest.approx(0.1)
    assert s.cold_time == pytest.approx(0.5)
    assert s.cold_invocations == 1


def test_function_stats_cold_falls_back_to_warm():
    s = FunctionStats(fqdn="f.1")
    s.record_execution(0.2, cold=False)
    assert s.cold_time == pytest.approx(0.2)


def test_function_stats_cold_never_below_warm():
    s = FunctionStats(fqdn="f.1")
    s.record_execution(0.5, cold=False)
    s.record_execution(0.1, cold=True)  # anomalous fast cold
    assert s.cold_time >= s.warm_time


def test_function_stats_negative_duration_rejected():
    s = FunctionStats(fqdn="f.1")
    with pytest.raises(ValueError):
        s.record_execution(-0.1, cold=False)


# ---------------------------------------------------------------- the map
def test_characteristics_map_lazy_creation():
    m = CharacteristicsMap()
    assert "f.1" not in m
    stats = m.get("f.1")
    assert "f.1" in m
    assert m.get("f.1") is stats
    assert len(m) == 1


def test_characteristics_expected_exec_time_unseen_is_zero():
    m = CharacteristicsMap()
    assert m.expected_exec_time("new.1", warm_available=True) == 0.0
    assert m.expected_exec_time("new.1", warm_available=False) == 0.0


def test_characteristics_expected_exec_time_uses_mode():
    m = CharacteristicsMap()
    m.record_execution("f.1", 0.1, cold=False)
    m.record_execution("f.1", 0.9, cold=True)
    assert m.expected_exec_time("f.1", warm_available=True) == pytest.approx(0.1)
    assert m.expected_exec_time("f.1", warm_available=False) == pytest.approx(0.9)


def test_characteristics_snapshot():
    m = CharacteristicsMap()
    m.record_arrival("f.1", 0.0)
    m.record_execution("f.1", 0.2, cold=True)
    snap = m.snapshot()
    assert snap["f.1"]["invocations"] == 1
    assert snap["f.1"]["cold_invocations"] == 1
    assert snap["f.1"]["cold_time"] == pytest.approx(0.2)


def test_characteristics_invalid_window():
    with pytest.raises(ValueError):
        CharacteristicsMap(window=0)
