"""Tests for the wall-clock (live) execution mode."""

import json

import pytest

from repro.sim import Environment, SimulationError
from repro.sim.realtime import RealtimeEnvironment
from tests.golden_scenario import GOLDEN_PATH, normalized, run_scenario


class FakeClock:
    """Deterministic wall clock: sleep() advances it exactly."""

    def __init__(self):
        self.now = 100.0
        self.sleeps: list[float] = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def make_env(**kwargs):
    fake = FakeClock()
    env = RealtimeEnvironment(sleep=fake.sleep, clock=fake.clock, **kwargs)
    return env, fake


def test_sleeps_until_event_deadlines():
    env, fake = make_env()

    def proc():
        yield env.timeout(2.0)
        yield env.timeout(3.0)

    env.process(proc())
    env.run()
    assert env.now == 5.0
    assert sum(fake.sleeps) == pytest.approx(5.0)


def test_factor_scales_wall_time():
    env, fake = make_env(factor=0.1)

    def proc():
        yield env.timeout(10.0)

    env.process(proc())
    env.run()
    assert env.now == 10.0
    assert sum(fake.sleeps) == pytest.approx(1.0)  # 10 sim s at 10x speed


def test_behind_schedule_executes_immediately_and_tracks_lag():
    env, fake = make_env()

    def slow_handler():
        yield env.timeout(1.0)
        fake.now += 5.0  # the handler itself burns 5 wall seconds
        yield env.timeout(1.0)  # now 5 s behind schedule

    env.process(slow_handler())
    env.run()
    assert env.max_lag >= 4.0


def test_strict_mode_raises_on_lag():
    env, fake = make_env(strict=True, tolerance=0.5)

    def slow_handler():
        yield env.timeout(1.0)
        fake.now += 5.0
        yield env.timeout(1.0)

    env.process(slow_handler())
    with pytest.raises(SimulationError, match="behind the wall clock"):
        env.run()


def test_same_calendar_same_results_as_des():
    """The realtime environment executes identical event orderings."""
    order_des, order_rt = [], []

    def workload(env, order):
        def client(i, delay):
            yield env.timeout(delay)
            order.append((i, env.now))

        for i, d in enumerate([0.3, 0.1, 0.2]):
            env.process(client(i, d))

    des = Environment()
    workload(des, order_des)
    des.run()

    rt, _fake = make_env(factor=0.001)
    workload(rt, order_rt)
    rt.run()

    assert order_des == order_rt


def test_validation():
    with pytest.raises(ValueError):
        RealtimeEnvironment(factor=0.0)
    with pytest.raises(ValueError):
        RealtimeEnvironment(tolerance=-1.0)


def test_sync_reanchors():
    env, fake = make_env()
    env.timeout(1.0)
    env.run()
    fake.now += 50.0  # wall time passes while the sim is idle
    env.sync()        # re-anchor so the next event is not "late"

    def proc():
        yield env.timeout(1.0)

    env.process(proc())
    env.run()
    assert env.max_lag < 0.5


def test_realtime_smoke_with_actual_clock():
    """A tiny run against the real clock (fast factor, bounded duration)."""
    env = RealtimeEnvironment(factor=0.001)

    def proc():
        yield env.timeout(5.0)
        return "done"

    assert env.run_process(proc()) == "done"


def test_paced_golden_replay_matches_the_fixture():
    """Live mode runs the same code: the golden scenario, paced against a
    fake wall clock at 100x, reduces bit-for-bit to the committed fixture
    without ever falling behind (strict, zero tolerance)."""
    env, fake = make_env(factor=0.01, strict=True, tolerance=0.0)
    reduction = run_scenario(env=env)
    assert normalized(reduction) == json.loads(GOLDEN_PATH.read_text())
    assert sum(fake.sleeps) == pytest.approx(1.2)  # 120 simulated s at 100x
    assert env.max_lag == 0.0
