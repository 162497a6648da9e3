"""The ledger's four workloads, built only from the simulator's public API.

Each workload is a fixed, seeded, open-loop input replayed in simulated
time.  ``setup(seed, clock)`` builds the inputs and the cluster (timed as
``setup.*`` phases); ``run(state, clock, observe)`` is the timed region and
returns an :class:`Outcome` holding the reduced per-invocation results (the
``sim_digest`` surface) plus the raw facts the per-layer metrics are cut
from.  ``observe=False`` turns the workload's own observability off, which
is how ``obs.tax_pct`` compares on against off in one process.

Seeds drive the arrivals, not the function population.  The Azure-shaped
workloads draw one fixed population from ``trace/azure.py``'s generator
(its default seed, a flat diurnal wave so every window carries the same
load) and the seed picks which window of that day is replayed.  The pull
workload's seed drives its Poisson arrivals.  Keeping the population fixed
is what lets the simulated outcomes repeat within a few percent from seed
to seed: a new population moves the keep-alive cold ratio by about 30%,
and samples drawn from the window rather than from the day by up to 2x.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, thread_time
from typing import Optional

import numpy as np

from repro.cluster_shard import run_sharded_replay
from repro.core import ContainerPool, FunctionRegistration, WorkerConfig
from repro.dispatch import PullDispatch
from repro.experiments.defaults import MEDIUM, SMALL
from repro.keepalive.policies import POLICY_NAMES
from repro.keepalive.simulator import simulate
from repro.loadbalancer import CHBLPolicy, Cluster
from repro.loadgen.openloop import FunctionMix, build_plan, plan_from_trace, replay_plan
from repro.sim.core import Environment
from repro.sim.distributions import Exponential
from repro.telemetry import Telemetry, TelemetryConfig, aggregate_phases, inspect_report
from repro.telemetry.decomposition import CLAIM_WAIT_PHASE
from repro.trace.azure import MINUTES_PER_DAY, AzureDataset, AzureTraceConfig, generate_dataset
from repro.trace.model import Trace
from repro.trace.replay import expand_dataset
from repro.trace.sampling import standard_samples
from repro.workloads.lookbusy import lookbusy_function

# Scratch space for exported run dirs; it stays inside the checkout.
WORK_DIR = Path(__file__).resolve().parent / ".work"

# ``full`` is what BENCHMARK.json runs: one round of each workload takes
# 6.5-13 host seconds (see Metronome), 10-30 s of wall time on a shared
# 2-core box, so a run is one round.  ``smoke`` takes the same code paths
# in about a second.  The keep-alive grid is the MEDIUM experiment scale
# replayed over a 220-minute window, which holds about 1.6M invocations.
SIZES = {
    "full": {
        "azure": {"functions": 4000, "window_minutes": 15, "workers": 32},
        "pull": {"functions": 16, "sim_seconds": 1000.0, "workers": 4},
        "keepalive": replace(MEDIUM, dataset_minutes=220),
    },
    "smoke": {
        "azure": {"functions": 300, "window_minutes": 1, "workers": 8},
        "pull": {"functions": 16, "sim_seconds": 40.0, "workers": 4},
        "keepalive": replace(SMALL, dataset_minutes=10),
    },
}


# --------------------------------------------------------------- timing
# A shared host's speed changes from one moment to the next: on the 2-core
# VM the bounds were measured on, the same pure-Python loop runs up to 2x
# slower in bursts that last from a fraction of a second to half a minute,
# so one run's wall time says more about the neighbours than about the
# simulator.  The gated host times are therefore taken at a reference
# speed.  While a Metronome runs, a timer interrupts the process every
# TICK_S of wall time and times _probe, a fixed loop that touches nothing of
# the simulator; each wall second of work until the next tick counts as
# PROBE_REF_S / (that probe's time) host seconds.  PROBE_REF_S is the
# probe's 1st-percentile time on that VM, about its time on an idle core,
# where host and wall seconds agree.  The probe follows the host within a
# tick: over eight runs of the same input, this brought the interquartile
# spread of throughput from 16% to 3%.  The probe's time is CPU time of
# this thread, so that it reads how fast the core runs, not how often the
# azure_sharded coordinator's own shard processes take the core from it
# (timed on the wall, its spread was 8% against 3.5%).  A short untimed
# pass warms the caches first: right after a slice of the simulator the
# probe runs 5-9% slower, which would tie the reading to the simulator's
# memory footprint.
TICK_S = 0.02
PROBE_REF_S = 3.7e-4
PROBE_LOOPS, WARM_LOOPS = 3000, 500


def _probe(table: dict, loops: int) -> int:
    total = 0
    for i in range(loops):
        table[i & 1023] = i
        total += table[(i * 7) & 1023]
    return total


class Metronome:
    """Seconds of work, at the reference speed (host) and on the wall,
    both without the probes' own time.  Until :meth:`running` starts it,
    host seconds are wall seconds."""

    def __init__(self):
        # (host s, wall s, perf_counter of the last probe's end, host s per wall s)
        self._state = (0.0, 0.0, perf_counter(), 1.0)
        self.ticks = 0
        self._table = dict.fromkeys(range(1024), 0)   # made once: the probe allocates nothing

    def _tick(self, _signum=None, _frame=None) -> None:
        t0 = perf_counter()
        _probe(self._table, WARM_LOOPS)
        c1 = thread_time()
        _probe(self._table, PROBE_LOOPS)
        c2 = thread_time()
        t2 = perf_counter()
        host, wall, since, scale = self._state
        self._state = (host + (t0 - since) * scale, wall + (t0 - since),
                       t2, PROBE_REF_S / (c2 - c1))
        self.ticks += 1

    def now(self) -> tuple[float, float]:
        """(host s, wall s) of work so far."""
        while True:
            state = self._state
            t = perf_counter()
            if state is self._state:   # no tick in between
                host, wall, since, scale = state
                return host + (t - since) * scale, wall + (t - since)

    @contextmanager
    def running(self):
        self._tick()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._tick()


class Clock:
    """Phase spans kept in memory: name, start, end and parent, in seconds
    since the clock was made.  ``phase`` also adds each span's work to
    ``times[name]`` (wall seconds) and ``host[name]`` (host seconds, see
    :class:`Metronome`), which is where the metrics read them from."""

    def __init__(self):
        self.t0 = perf_counter()
        self.metronome = Metronome()
        self.spans: list[dict] = []
        self.times: dict[str, float] = {}
        self.host: dict[str, float] = {}
        self._stack: list[str] = []

    def reset(self) -> None:
        self.times, self.host = {}, {}

    @contextmanager
    def phase(self, name: str, tag: Optional[str] = None):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = perf_counter()
        host0, wall0 = self.metronome.now()
        try:
            yield
        finally:
            host1, wall1 = self.metronome.now()
            end = perf_counter()
            self._stack.pop()
            self.times[name] = self.times.get(name, 0.0) + (wall1 - wall0)
            self.host[name] = self.host.get(name, 0.0) + (host1 - host0)
            span = {"name": name, "start": start - self.t0,
                    "end": end - self.t0, "parent": parent}
            if tag is not None:
                span["tag"] = tag
            self.spans.append(span)


@dataclass
class Probe:
    """Per-call wall-clock accumulator for one wrapped entry point."""

    samples: list = field(default_factory=list)
    hits: int = 0          # calls that returned something other than None

    @property
    def calls(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return float(sum(self.samples))

    def mean_us(self) -> float:
        return self.total / self.calls * 1e6 if self.samples else 0.0

    def p_us(self, q: float) -> float:
        return float(np.percentile(self.samples, q)) * 1e6 if self.samples else 0.0


# Layer entry points a traced round wraps, by probe name.  The wrappers are
# installed on the classes in this process only and removed afterwards.
ENTRY_POINTS = {
    "lb.pick": (CHBLPolicy, "pick"),
    "pool.acquire": (ContainerPool, "try_acquire"),
    "pool.evict": (ContainerPool, "evict_for"),
    "dispatch.offer": (PullDispatch, "offer"),
    "dispatch.claim": (PullDispatch, "claim"),
    "obs.export": (Telemetry, "export"),
}


def _timed(fn, probe: Probe):
    samples = probe.samples

    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        samples.append(perf_counter() - t0)
        if out is not None:
            probe.hits += 1
        return out

    return wrapper


@contextmanager
def probed(names):
    """Wrap the named entry points with :class:`Probe` accumulators."""
    probes = {name: Probe() for name in names}
    saved = []
    try:
        for name in names:
            cls, attr = ENTRY_POINTS[name]
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, _timed(original, probes[name]))
        yield probes
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)


# -------------------------------------------------------------- outcomes
@dataclass
class Outcome:
    """What one replay produced.

    ``rows`` are the reduced per-invocation outcomes in plan order,
    ``(k, dropped, completed, cold, e2e, overhead)`` — the tuples the
    sharded engine returns, so serial and sharded digests compare directly.
    Keep-alive runs carry one tuple per grid cell in ``cells`` instead.
    """

    attempted: int
    rows: Optional[list] = None
    cells: Optional[list] = None
    timed_out: int = 0
    facts: dict = field(default_factory=dict)

    def digest(self) -> str:
        payload = self.rows if self.rows is not None else self.cells
        return hashlib.sha256(repr(payload).encode()).hexdigest()


def _serial_replay(env, cluster, plan, grace: float, clock: Clock, stop=()) -> Outcome:
    """Replay ``plan`` on a serial cluster (the "replay" phase) and reduce it."""
    with clock.phase("replay"):
        invocations = replay_plan(env, cluster, plan, grace=grace)
        cluster.stop()
        for component in stop:
            component.stop()
    done = [i for i in invocations if i.completed_at is not None and not i.dropped]
    return Outcome(
        attempted=len(plan),
        rows=[(k, bool(i.dropped), i.completed_at is not None, bool(i.cold),
               i.e2e_time, i.overhead) for k, i in enumerate(invocations)],
        timed_out=sum(1 for i in invocations if i.timed_out),
        facts={
            "events": env._seq,
            "queue_waits": [i.queue_time for i in done],
            "placements": cluster.placements,
            "evictions": sum(w.pool.evictions for w in cluster.workers.values()),
        },
    )


def _rss_mb() -> float:
    """Resident set size now (not the peak), in MB; 0 where unreadable."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 2**20


def _flat_day(functions: int) -> AzureDataset:
    """One day of the Azure-shaped generator at its default seed, with the
    diurnal wave flattened so that every window carries the same load."""
    return generate_dataset(
        AzureTraceConfig(num_functions=functions, diurnal_amplitude=0.0),
        cache=False,
    )


def _window_start(seed: int, minutes: int) -> int:
    return int(np.random.default_rng(seed).integers(0, MINUTES_PER_DAY - minutes + 1))


def _window(day: AzureDataset, start: int, minutes: int) -> AzureDataset:
    """Minutes ``[start, start + minutes)`` of ``day``, shifted to start at zero."""
    counts = {}
    for fn, (mins, cnt) in day.counts.items():
        sel = (mins >= start) & (mins < start + minutes)
        if sel.any():
            counts[fn] = (mins[sel] - start, cnt[sel])
    return AzureDataset(
        config=replace(day.config, duration_minutes=minutes),
        names=day.names, apps=day.apps, memory_mb=day.memory_mb,
        avg_runtime=day.avg_runtime, max_runtime=day.max_runtime,
        counts=counts,
    )


def _window_trace(trace: Trace, start: int, minutes: int) -> Trace:
    """The arrivals of ``trace`` in minutes ``[start, start + minutes)``,
    shifted to start at zero."""
    lo, hi = np.searchsorted(trace.timestamps, [60.0 * start, 60.0 * (start + minutes)])
    return Trace(trace.functions, trace.timestamps[lo:hi] - 60.0 * start,
                 trace.function_idx[lo:hi], duration=60.0 * minutes, name=trace.name)


# ------------------------------------------------------------- workloads
class Workload:
    kind = "des"
    probes: tuple = ()     # ENTRY_POINTS names a traced round wraps

    def __init__(self, size):
        self.size = size


class AzurePush(Workload):
    """CH-BL over 32 workers on a window of the Azure-shaped day (serial).
    The pools start empty; the first three minutes hold about a third of
    the cold starts, and the window is long enough that the rest of it is
    replayed on warm pools."""

    name = "azure_push"
    size_key = "azure"
    probes = ("lb.pick", "pool.acquire", "pool.evict")
    grace = 300.0

    def setup(self, seed: int, clock: Clock) -> dict:
        minutes = self.size["window_minutes"]
        with clock.phase("setup.dataset"):
            day = _flat_day(self.size["functions"])
        with clock.phase("setup.expand"):
            trace = expand_dataset(
                _window(day, _window_start(seed, minutes), minutes),
                name="azure-window", cache=False,
            )
        with clock.phase("setup.plan"):
            plan = plan_from_trace(trace)
        with clock.phase("setup.cluster"):
            state = {
                "plan": plan,
                "registrations": [
                    FunctionRegistration(name=f.name, memory_mb=f.memory_mb,
                                         warm_time=f.warm_time, cold_time=f.cold_time)
                    for f in trace.functions
                ],
                "config": WorkerConfig(cores=4, memory_mb=8192.0, backend="null",
                                       keepalive_policy="GD", seed=seed),
            }
            self.build(state)
        return state

    def build(self, state: dict) -> None:
        env = Environment()
        cluster = Cluster(env, num_workers=self.size["workers"],
                          config=state["config"], lb_policy="ch_bl",
                          status_interval=2.0)
        cluster.start()
        for reg in state["registrations"]:
            cluster.register_sync(reg)
        state.update(env=env, cluster=cluster)

    def run(self, state: dict, clock: Clock, observe: bool = True) -> Outcome:
        cluster = state["cluster"]
        out = _serial_replay(state["env"], cluster, state["plan"], self.grace, clock)
        out.facts.update(status_refreshes=cluster.status_board.refreshes,
                         forwards=cluster.balancer.forwards)
        return out


class AzureSharded(AzurePush):
    """The azure_push plan and config on 1 coordinator plus 2 shards."""

    name = "azure_sharded"
    probes = ("lb.pick",)   # the pools run in the shard processes

    def build(self, state: dict) -> None:
        return None   # the shards build their own workers, inside the replay

    def run(self, state: dict, clock: Clock, observe: bool = True) -> Outcome:
        plan = state["plan"]
        with clock.phase("replay"):
            out = run_sharded_replay(
                plan, num_workers=self.size["workers"], shards=2,
                registrations=state["registrations"], config=state["config"],
                lb_policy="ch_bl", status_interval=2.0, grace=self.grace,
                flight_recorder=True,
            )
        return Outcome(
            attempted=len(plan),
            rows=[tuple(r) for r in out.summaries],
            facts={
                "forwards": out.forwards,
                "placements": out.placements,
                "flight": out.flight_log["totals"],
                "seam_stats": out.seam_stats,
            },
        )


class PullObserved(Workload):
    """pull_local on heterogeneous workers with telemetry, tracing and
    health on, and the run dir exported."""

    name = "pull_observed"
    size_key = "pull"
    probes = ("pool.acquire", "pool.evict", "dispatch.offer",
              "dispatch.claim", "obs.export")
    grace = 120.0

    def setup(self, seed: int, clock: Clock) -> dict:
        with clock.phase("setup.dataset"):
            functions = [
                lookbusy_function(f"fn-{i}", run_time=0.3 + 0.2 * (i % 4),
                                  memory_mb=128.0, init_time=1.5)
                for i in range(self.size["functions"])
            ]
        with clock.phase("setup.plan"):
            plan = build_plan(
                [FunctionMix(f.fqdn(), Exponential(0.9)) for f in functions],
                self.size["sim_seconds"], seed=seed,
            )
        with clock.phase("setup.cluster"):
            state = {"plan": plan, "registrations": functions, "seed": seed}
            self.build(state)
        return state

    def build(self, state: dict, observe: bool = True) -> None:
        env = Environment()
        base = WorkerConfig(cores=4, memory_mb=1024.0, backend="null",
                            free_memory_buffer_mb=128.0, seed=state["seed"])
        # Alternate small and large workers: pull workers claim in
        # proportion to how fast they drain, which is what this exercises.
        configs = [
            cfg.with_overrides(cores=(2 if i % 2 else 8))
            for i, cfg in enumerate(Cluster.worker_configs(base, self.size["workers"]))
        ]
        cluster = Cluster(env, num_workers=len(configs), config=base,
                          lb_policy="pull_local", worker_configs_override=configs)
        telemetry = None
        if observe:
            telemetry = Telemetry(env, TelemetryConfig(trace=True, health=True))
            cluster.attach_telemetry(telemetry)
            telemetry.start()
        cluster.start()
        for reg in state["registrations"]:
            cluster.register_sync(reg)
        state.update(env=env, cluster=cluster, telemetry=telemetry)

    def run(self, state: dict, clock: Clock, observe: bool = True) -> Outcome:
        """With ``state["inspect"]`` set, the exported run dir is kept and
        returned as ``facts["run_dir"]``; the caller reads it back with
        :func:`inspect_run_dir`, after measuring peak memory."""
        if not observe:
            self.build(state, observe=False)
        env, cluster, plan = state["env"], state["cluster"], state["plan"]
        telemetry = state["telemetry"]
        run_dir = None
        try:
            outcome = _serial_replay(env, cluster, plan, self.grace, clock,
                                      stop=[telemetry] if telemetry else [])
            outcome.facts.update(offers=cluster.dispatch.offered,
                                 claims=cluster.dispatch.claimed,
                                 rss_mb=_rss_mb())
            if telemetry is not None:
                WORK_DIR.mkdir(exist_ok=True)
                run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
                with clock.phase("export"):
                    telemetry.export(run_dir)
                if state.get("inspect"):
                    phases = aggregate_phases(telemetry.breakdowns())
                    outcome.facts.update(
                        run_dir=run_dir,
                        run_dir_mb=_dir_mb(run_dir),
                        spans=len(telemetry.spans()),
                        trace_events=len(telemetry.trace_events()),
                        claim_wait_share=phases.get(CLAIM_WAIT_PHASE, {}).get("share", 0.0),
                    )
                    run_dir = None   # kept for inspect_run_dir
            return outcome
        finally:
            if run_dir is not None:
                shutil.rmtree(run_dir, ignore_errors=True)


def inspect_run_dir(run_dir: Path) -> str:
    """``repro inspect``'s report of an exported run dir, which is then removed."""
    try:
        return inspect_report(run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


class KeepaliveSweep(Workload):
    """The fig 4/5 grid: 3 traces x 6 policies x 6 cache sizes.

    The traces are the experiment's standard samples of the whole day, so
    every seed replays the same functions; the seed picks the window."""

    name = "keepalive_sweep"
    kind = "keepalive"
    size_key = "keepalive"

    def setup(self, seed: int, clock: Clock) -> dict:
        scale = self.size
        with clock.phase("setup.dataset"):
            day = _flat_day(scale.dataset_functions)
        with clock.phase("setup.expand"):
            samples = standard_samples(day, scale.rare_n, scale.representative_n,
                                       scale.random_n, cache=False)
            minutes = scale.dataset_minutes
            start = _window_start(seed, minutes)
            traces = {name: _window_trace(trace, start, minutes)
                      for name, trace in samples.items()}
        return {"traces": traces}

    def run(self, state: dict, clock: Clock, observe: bool = True) -> Outcome:
        cells, cell_s = [], []
        with clock.phase("replay"):
            for trace_name, trace in state["traces"].items():
                for policy in POLICY_NAMES:
                    for gb in self.size.cache_sizes_gb:
                        with clock.phase("cell", tag=f"{trace_name}/{policy}/{gb:g}GB"):
                            r = simulate(trace, policy, gb * 1024.0)
                        cell_s.append(clock.spans[-1]["end"] - clock.spans[-1]["start"])
                        cells.append((trace_name, r.policy, gb, r.invocations,
                                      r.cold_starts, r.warm_starts, r.evictions,
                                      r.expirations, r.total_cold_overhead,
                                      r.total_warm_exec))
        return Outcome(attempted=sum(c[3] for c in cells), cells=cells,
                       facts={"cell_s": cell_s})


WORKLOADS = {cls.name: cls for cls in (AzurePush, AzureSharded, PullObserved, KeepaliveSweep)}


def make(name: str, size: str) -> Workload:
    cls = WORKLOADS[name]
    return cls(SIZES[size][cls.size_key])
