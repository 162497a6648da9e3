"""Telemetry must observe without perturbing: a run with the full pipeline
attached produces bit-identical invocation records to a run without it,
and with telemetry off the hot path allocates nothing new."""

import pytest

from repro.core.config import WorkerConfig
from repro.core.function import FunctionRegistration
from repro.loadbalancer.cluster import Cluster
from repro.sim.core import Environment
from repro.telemetry import Telemetry, TelemetryConfig

FUNCTIONS = [
    FunctionRegistration(name="alpha", memory_mb=256, warm_time=0.08, cold_time=0.6),
    FunctionRegistration(name="beta", memory_mb=512, warm_time=0.3, cold_time=1.1),
    FunctionRegistration(name="gamma", memory_mb=128, warm_time=0.02, cold_time=0.25),
]
# (arrival time, function index): overlapping arrivals across workers, so
# queueing, cold starts and container reuse all happen.
ARRIVALS = [
    (0.1, 0), (0.15, 1), (0.2, 0), (0.3, 2), (0.35, 0), (0.4, 1),
    (0.9, 2), (1.0, 0), (1.05, 1), (1.1, 2), (2.5, 0), (2.6, 1),
    (2.7, 2), (2.75, 0), (5.0, 1), (5.2, 2),
]


def _run_cluster(with_telemetry):
    env = Environment()
    cluster = Cluster(
        env,
        num_workers=2,
        config=WorkerConfig(cores=2, memory_mb=2048, seed=7),
        status_interval=2.0,
    )
    telemetry = None
    if with_telemetry:
        telemetry = Telemetry(
            env, TelemetryConfig(interval=0.5, sample_energy=True)
        )
        cluster.attach_telemetry(telemetry)
        telemetry.start()
    cluster.start()
    for reg in FUNCTIONS:
        cluster.register_sync(reg)

    def submit(at, fqdn):
        yield env.timeout(at)
        yield from cluster.invoke(fqdn)

    for at, idx in ARRIVALS:
        env.process(submit(at, FUNCTIONS[idx].fqdn()), name=f"sub-{at}")
    env.run(until=60.0)
    cluster.stop()
    if telemetry is not None:
        telemetry.stop()
    return cluster, telemetry


def _record_tuples(cluster):
    rows = [
        (r.function, r.arrival, r.outcome, r.exec_time, r.e2e_time,
         r.queue_time, r.overhead, r.cold, r.worker)
        for w in cluster.workers.values()
        for r in w.metrics.records
    ]
    rows.sort()
    return rows


def test_telemetry_on_off_bit_identical():
    plain, _ = _run_cluster(with_telemetry=False)
    traced, telemetry = _run_cluster(with_telemetry=True)
    a = _record_tuples(plain)
    b = _record_tuples(traced)
    assert len(a) == len(ARRIVALS)
    # Bit-for-bit: tuple equality on floats, no tolerance.
    assert a == b
    # And the telemetry run really did observe things.
    assert telemetry.sampler.samples > 0
    assert len(telemetry.spans()) > 0
    assert len(telemetry.breakdowns()) == len(ARRIVALS)


def test_energy_identical_with_and_without_sampling():
    plain, _ = _run_cluster(with_telemetry=False)
    traced, _ = _run_cluster(with_telemetry=True)
    for name in plain.workers:
        # joules_at is a pure read; sampling it must not change the
        # monitor's integrated state.
        assert plain.workers[name].energy.joules_at(60.0) == \
            traced.workers[name].energy.joules_at(60.0)


def test_telemetry_off_allocates_nothing():
    cluster, _ = _run_cluster(with_telemetry=False)
    for w in cluster.workers.values():
        # Records and counters only: no distribution and no record hook.
        assert set(vars(w.metrics)) == {"clock", "counters", "gauges", "records"}
        assert w.lifecycle.contexts == []          # no per-invocation timing
    assert cluster.front.placement_log is None     # LB records nothing
    assert cluster.front.status_board.publish is None  # no publish hook


def test_telemetry_on_flips_only_observation_switches():
    cluster, telemetry = _run_cluster(with_telemetry=True)
    for w in cluster.workers.values():
        # Telemetry adds nothing to the registry: its distributions and
        # health come from these records at export.
        assert set(vars(w.metrics)) == {"clock", "counters", "gauges", "records"}
        assert w.metrics.records
        assert w.metrics.count("invocations.completed") == sum(
            1 for r in w.metrics.records
            if r.outcome.value not in ("dropped", "timeout")
        )
        assert w.lifecycle.keep_contexts
    # One placement log entry per placement: the LB's only record.
    assert len(cluster.front.placement_log) == cluster.placements > 0
    assert cluster.front.status_board.publish is not None
