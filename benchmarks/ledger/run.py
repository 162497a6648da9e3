#!/usr/bin/env python3
"""The simulator's performance ledger: one command, four workloads.

Run (from the repository root)::

    python3 benchmarks/ledger/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--size full|smoke] [--out DIR]
    python3 benchmarks/ledger/run.py compare PARENT_DIR CHANGE_DIR

Each workload runs in a fresh subprocess (``PYTHONHASHSEED=0``, ``src`` on
the path), so ``peak_rss_mb`` belongs to that workload alone.  A run
repeats rounds of set-up plus timed replay while the time budget
(``--seconds``, by default the size's own budget) allows another round (at
full size, one round), then times several more set-ups.  The gated times
are host seconds: wall seconds of work rescaled to a reference host speed
by ``workloads.Metronome``, so that the neighbours' load on a shared host
does not read as a change of the simulator's speed.  Every round
replays the same seeded input, so the simulated outcomes of all rounds
must agree bit for bit; that, conservation, no failed invocation, and the
telemetry phase-sum check are verified on every run, and a failed check
makes the command exit 1.

``--trace`` runs untraced and traced rounds; the traced ones wrap each
layer's public entry points with ``perf_counter`` accumulators and yield
the per-layer metrics.  Every metric is printed by name and unit; the last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json, or its per-layer
metrics under ``--trace``).  ``--out`` also writes one results JSON per
workload (with provenance) and, when tracing, the phase spans as JSON
lines.

``compare`` reads two directories of results holding the same workloads,
seeds and sizes, and gives each (metric, workload) a verdict from the
bounds in BENCHMARK.json: better, worse, unchanged, or unresolved when the
run-to-run spread exceeds the bound.  It also flags any ``sim_digest``
that changed for the same workload and seed and any run with failed
invocations, and exits 1 on any of these.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict, is_dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("azure_push", "azure_sharded", "pull_observed", "keepalive_sweep")
# After its rounds, a run sets the workload up again until it has at least
# SETUP_REPS set-up timings spanning at least SETUP_SPAN_S; setup_s is
# their median.  These extra set-ups run in a warm process, and a cheap
# set-up is sampled many times, so neither the first call's one-off costs
# nor a burst of host noise shorter than half the span moves the median.
SETUP_REPS = 5
SETUP_SPAN_S = 1.0
# Time budget of a run of each size when --seconds is not given; None
# stands for run_seconds of BENCHMARK.json.
SIZE_SECONDS = {"full": None, "smoke": 1.0}
CHILD_TIMEOUT_S = 170   # a workload process is killed after this long

# Every metric the ledger computes, with its unit.  BENCHMARK.json names
# the subset the regression gate bounds.
END_TO_END = {
    "sim_inv_per_s": "1/s",
    "wall_inv_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
    "sim_e2e_p50_ms": "ms",
    "sim_e2e_p999_ms": "ms",
    "sim_overhead_p50_ms": "ms",
    "sim_overhead_p999_ms": "ms",
    "sim_cold_ratio": "ratio",
    "sim_exec_increase_pct": "%",
}
_POLICIES = ("TTL", "LRU", "FREQ", "GD", "LND", "HIST")
PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_inv": "events/inv",
    "sim.us_per_event": "us",
    "lb.picks": "count",
    "lb.pick_us": "us",
    "lb.pick_p99_us": "us",
    "lb.pick_share": "ratio",
    "lb.forward_ratio": "ratio",
    "lb.status_refreshes": "count",
    "core.invocations": "count",
    "core.cold_starts": "count",
    "core.residual_us_per_inv": "us",
    "core.queue_wait_p999_ms": "ms",
    "pool.acquires": "count",
    "pool.warm_hit_ratio": "ratio",
    "pool.acquire_us": "us",
    "pool.evictions": "count",
    "pool.evict_us": "us",
    "dispatch.offers": "count",
    "dispatch.claims": "count",
    "dispatch.offer_us": "us",
    "dispatch.claim_us": "us",
    "dispatch.claim_wait_share": "ratio",
    "seam.epochs": "count",
    "seam.messages_per_shard": "count",
    "seam.payload_bytes": "bytes",
    "seam.stall_s": "s",
    "seam.pick_s": "s",
    "seam.send_s": "s",
    "seam.overlap_efficiency": "ratio",
    "seam.merge_s": "s",
    "obs.tax_pct": "%",
    "obs.export_s": "s",
    "obs.run_dir_mb": "MB",
    "obs.rss_delta_mb": "MB",
    "obs.spans": "count",
    "obs.trace_events": "count",
    "keepalive.us_per_inv": "us",
    **{f"keepalive.{p}.us_per_inv": "us" for p in _POLICIES},
    "keepalive.small_cache.us_per_inv": "us",
    "keepalive.large_cache.us_per_inv": "us",
    "keepalive.evictions": "count",
    "keepalive.expirations": "count",
    "setup.dataset_s": "s",
    "setup.expand_s": "s",
    "setup.plan_s": "s",
    "setup.cluster_s": "s",
    "trace.overhead_pct": "%",
}
SETUP_PHASES = ("setup.dataset", "setup.expand", "setup.plan", "setup.cluster")
PHASE_SUMS = re.compile(r"phase sums match (\d+)/(\d+) records")


# ------------------------------------------------------------ reductions
def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tail(samples_ms: np.ndarray, q: float = 99.9) -> dict:
    """Percentile entry with its sample count and the samples beyond it."""
    value = float(np.percentile(samples_ms, q)) if samples_ms.size else 0.0
    return {"value": value, "n": int(samples_ms.size),
            "beyond": int((samples_ms > value).sum())}


def summarize(out) -> tuple[dict, list, int, int]:
    """Simulated metrics of one replay, its check failures (conservation,
    and any failed invocation: the workloads are sized so none fails), and
    its attempted and failed counts.  Metrics are ``{name: {"value": ...}}``."""
    failures = []
    if out.cells is not None:
        for trace, policy, gb, n, cold, warm, *_ in out.cells:
            if cold + warm != n:
                failures.append(
                    f"conservation: keep-alive cell {trace}/{policy}/{gb:g}GB has "
                    f"cold {cold} + warm {warm} != {n} invocations")
        n = sum(c[3] for c in out.cells)
        sim = {
            "failed_ratio": {"value": 0.0},
            "sim_cold_ratio": {"value": _ratio(sum(c[4] for c in out.cells), n)},
            "sim_exec_increase_pct": {"value": 100.0 * _ratio(
                sum(c[8] for c in out.cells), sum(c[9] for c in out.cells))},
        }
        return sim, failures, n, 0
    rows = out.rows
    dropped = sum(1 for r in rows if r[1])
    ok = [r for r in rows if r[2] and not r[1]]
    completed = len(ok) - out.timed_out
    missing = out.attempted - completed - dropped - out.timed_out
    untriggered = out.attempted - len(rows)
    if missing or untriggered:
        failures.append(
            f"conservation: attempted {out.attempted} != completed {completed} + "
            f"dropped {dropped} + timed out {out.timed_out} "
            f"({untriggered} events never triggered)")
    failed = dropped + out.timed_out + missing
    if failed:
        failures.append(
            f"failed: {failed} of {out.attempted} invocations were dropped, "
            f"timed out or never completed")
    e2e = np.array([r[4] for r in ok]) * 1e3
    overhead = np.array([r[5] for r in ok]) * 1e3
    sim = {
        "failed_ratio": {"value": _ratio(failed, out.attempted)},
        "sim_e2e_p50_ms": _tail(e2e, 50.0),
        "sim_e2e_p999_ms": _tail(e2e),
        "sim_overhead_p50_ms": _tail(overhead, 50.0),
        "sim_overhead_p999_ms": _tail(overhead),
        "sim_cold_ratio": {"value": _ratio(sum(1 for r in ok if r[3]), len(ok))},
        "sim_exec_increase_pct": {"value": 100.0 * _ratio(
            float(overhead.sum()), float((e2e - overhead).sum()))},
    }
    return sim, failures, out.attempted, failed


def layer_metrics(wl, rounds: list, setups: list) -> dict:
    """Per-layer values from a traced run; 0 where the workload bypasses
    the layer (or runs it in a shard process, out of this process's view)."""
    def first(kind):
        return next((r for r in rounds if r["kind"] == kind), None)

    def replay(kind):   # host seconds: comparable across rounds and runs
        return _median([r["host"]["replay"] for r in rounds if r["kind"] == kind])

    u, t, o = first("U"), first("T"), first("O")
    fu, ft = u["outcome"].facts, t["outcome"].facts
    probes = t["probes"]
    inv = t["attempted"]
    replay_u, replay_t = replay("U"), replay("T")
    m = {name: 0 for name in PER_LAYER}

    events = fu.get("events", 0)
    m["sim.events"] = events
    m["sim.events_per_inv"] = _ratio(events, inv)
    m["sim.us_per_event"] = _ratio(replay_u, events) * 1e6

    if "lb.pick" in probes:
        pick = probes["lb.pick"]
        m.update({
            "lb.picks": pick.calls, "lb.pick_us": pick.mean_us(),
            "lb.pick_p99_us": pick.p_us(99.0),
            "lb.pick_share": _ratio(pick.total, t["times"]["replay"]),
            "lb.forward_ratio": _ratio(ft["forwards"], ft["placements"]),
            "lb.status_refreshes": ft.get("status_refreshes", 0),
        })

    if wl.kind == "des":
        rows = t["outcome"].rows
        inside = sum(p.total for name, p in probes.items() if name != "obs.export")
        m["core.invocations"] = sum(1 for r in rows if r[2] and not r[1])
        m["core.cold_starts"] = sum(1 for r in rows if r[2] and not r[1] and r[3])
        m["core.residual_us_per_inv"] = _ratio(t["times"]["replay"] - inside, inv) * 1e6
        waits = ft.get("queue_waits")
        if waits:
            m["core.queue_wait_p999_ms"] = float(np.percentile(waits, 99.9)) * 1e3

    if "pool.acquire" in probes:
        acquire, evict = probes["pool.acquire"], probes["pool.evict"]
        m.update({
            "pool.acquires": acquire.calls,
            "pool.warm_hit_ratio": _ratio(acquire.hits, acquire.calls),
            "pool.acquire_us": acquire.mean_us(),
            "pool.evictions": ft["evictions"],
            "pool.evict_us": evict.mean_us(),
        })

    if "dispatch.offer" in probes:
        m.update({
            "dispatch.offers": ft["offers"], "dispatch.claims": ft["claims"],
            "dispatch.offer_us": probes["dispatch.offer"].mean_us(),
            "dispatch.claim_us": probes["dispatch.claim"].mean_us(),
            "dispatch.claim_wait_share": fu["claim_wait_share"],
        })

    if "flight" in ft:
        flight, stats = ft["flight"], ft["seam_stats"]
        m.update({
            "seam.epochs": flight["epochs"],
            "seam.messages_per_shard": stats["messages_per_shard"],
            **{f"seam.{k}": flight[k] for k in (
                "payload_bytes", "stall_s", "pick_s", "send_s",
                "overlap_efficiency", "merge_s")},
        })

    if o is not None:
        m.update({
            "obs.tax_pct": (_ratio(replay_u, replay("O")) - 1.0) * 100.0,
            "obs.export_s": _median([r["host"]["export"] for r in rounds
                                     if r["kind"] == "U"]),
            "obs.run_dir_mb": fu["run_dir_mb"],
            "obs.rss_delta_mb": fu["rss_mb"] - o["outcome"].facts["rss_mb"],
            "obs.spans": fu["spans"],
            "obs.trace_events": fu["trace_events"],
        })

    if wl.kind == "keepalive":
        cells = t["outcome"].cells
        gbs = [c[2] for c in cells]

        def us_per_inv(keep):
            picked = [(c[3], s) for c, s in zip(cells, ft["cell_s"]) if keep(c)]
            return _ratio(sum(s for _n, s in picked), sum(n for n, _s in picked)) * 1e6

        m["keepalive.us_per_inv"] = us_per_inv(lambda c: True)
        for p in _POLICIES:
            m[f"keepalive.{p}.us_per_inv"] = us_per_inv(lambda c, p=p: c[1] == p)
        m["keepalive.small_cache.us_per_inv"] = us_per_inv(lambda c: c[2] == min(gbs))
        m["keepalive.large_cache.us_per_inv"] = us_per_inv(lambda c: c[2] == max(gbs))
        m["keepalive.evictions"] = sum(c[6] for c in cells)
        m["keepalive.expirations"] = sum(c[7] for c in cells)

    for phase in SETUP_PHASES:
        m[f"{phase}_s"] = _median([s.get(phase, 0.0) for s in setups])
    m["trace.overhead_pct"] = (_ratio(replay_t, replay_u) - 1.0) * 100.0
    return {name: {"value": v, "unit": PER_LAYER[name]} for name, v in m.items()}


# ------------------------------------------------------ workload process
def _round(wl, kind: str, state: dict, clock, index: int, inspect: bool) -> dict:
    """Run the timed region once on a fresh ``state``.  ``kind`` is U (the
    workload as defined), T (traced) or O (its observability off)."""
    from workloads import probed

    gc.collect()
    clock.reset()
    probes = {}
    state["inspect"] = inspect
    with clock.phase("round", tag=f"{index}:{kind}"):
        if kind == "T":
            with probed(wl.probes) as probes:
                out = wl.run(state, clock)
        else:
            out = wl.run(state, clock, observe=(kind != "O"))
    sim, failures, attempted, failed = summarize(out)
    return {"kind": kind, "times": clock.times, "host": clock.host,
            "timed": clock.host["replay"] + clock.host.get("export", 0.0),
            "timed_wall": clock.times["replay"] + clock.times.get("export", 0.0),
            "digest": out.digest(), "sim": sim, "failures": failures,
            "attempted": attempted, "failed": failed, "outcome": out,
            "probes": probes}


def measure(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Run one workload in this process; returns its result record."""
    from workloads import WORK_DIR

    try:
        return _measure(name, seed, seconds, trace, size)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


def _measure(name, seed, seconds, trace, size) -> dict:
    import workloads

    wl = workloads.make(name, size)
    clock = workloads.Clock()
    start = perf_counter()
    setups = []

    def set_up() -> dict:
        clock.reset()
        with clock.phase("setup"):
            state = wl.setup(seed, clock)
        setups.append(clock.host)
        return state

    cycle = ("U", "T") if trace else ("U",)
    if trace and "obs.export" in wl.probes:
        cycle = ("O", *cycle)
    rounds = []
    with clock.metronome.running():
        while True:
            cycle_start = perf_counter()
            for kind in cycle:
                seen = any(r["kind"] == kind for r in rounds)
                r = _round(wl, kind, set_up(), clock, len(rounds), inspect=not seen)
                if seen:   # only the first round of a kind keeps its raw data
                    r["outcome"] = r["probes"] = None
                rounds.append(r)
            now = perf_counter()
            if now - start + (now - cycle_start) > seconds:
                break
        span_start = perf_counter()
        while len(setups) < SETUP_REPS or perf_counter() - span_start < SETUP_SPAN_S:
            set_up()
    usage = resource.getrusage
    peak_kb = (usage(resource.RUSAGE_SELF).ru_maxrss
               + usage(resource.RUSAGE_CHILDREN).ru_maxrss)

    failures = []
    for i, r in enumerate(rounds):
        failures += [f"round {i}: {f}" for f in r["failures"]]
        if r["digest"] != rounds[0]["digest"]:
            failures.append(
                f"determinism: round {i} ({r['kind']}) sim_digest differs from "
                f"round 0 ({rounds[0]['kind']})")
    first_u = next(r for r in rounds if r["kind"] == "U")
    run_dir = first_u["outcome"].facts.pop("run_dir", None)
    if run_dir is not None:
        # Read back after the peak was taken: checking is not the workload.
        match = PHASE_SUMS.search(workloads.inspect_run_dir(run_dir))
        if not match or match.group(1) != match.group(2) or match.group(2) == "0":
            failures.append("telemetry: inspect_report does not show phase sums "
                            "matching N/N records: "
                            + (match.group(0) if match else "no decomposition"))

    u_rounds = [r for r in rounds if r["kind"] == "U"]
    setup_totals = [sum(s.get(p, 0.0) for p in SETUP_PHASES) for s in setups]
    metrics = {
        "sim_inv_per_s": {
            "value": first_u["attempted"] / _median([r["timed"] for r in u_rounds]),
            "rounds": len(u_rounds)},
        "wall_inv_per_s": {
            "value": first_u["attempted"] / _median([r["timed_wall"] for r in u_rounds])},
        "setup_s": {"value": _median(setup_totals), "n": len(setup_totals)},
        "peak_rss_mb": {"value": peak_kb / 1024.0},
        **first_u["sim"],
    }
    for key, entry in metrics.items():
        entry["unit"] = END_TO_END[key]
    result = {
        "workload": name,
        "sizes": asdict(wl.size) if is_dataclass(wl.size) else wl.size,
        "correct": not failures,
        "checks": failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "sim_digest": rounds[0]["digest"],
        "rounds": [{"kind": r["kind"],
                    **{f"{unit}_s": {k: v for k, v in r[key].items() if k != "cell"}
                       for unit, key in (("wall", "times"), ("host", "host"))}}
                   for r in rounds],
        "metronome": {"tick_s": workloads.TICK_S, "probe_ref_s": workloads.PROBE_REF_S,
                      "ticks": clock.metronome.ticks},
        "metrics": metrics,
    }
    if trace:
        result["per_layer"] = layer_metrics(wl, rounds, setups)
        result["spans"] = clock.spans
    return result


# -------------------------------------------------------- parent command
def _provenance(seed: int, size: str, seconds: float) -> dict:
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            commit = dirty = None
    return {
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "pythonhashseed": "0",
    }


def _run_child(name: str, args) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(Path(__file__).resolve()), "_child", name,
           str(args.seed), str(args.seconds), str(int(bool(args.trace))), args.size]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(entry: dict) -> str:
    extra = "".join(f" {k}={entry[k]}" for k in ("n", "beyond", "rounds") if k in entry)
    return f"{entry['value']:.6g} {entry['unit']}{extra}"


def run(args) -> int:
    if not (SRC / "repro").is_dir():
        print(f"run.py: the simulator sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    gated = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if args.seconds is None:
        args.seconds = float(SIZE_SECONDS[args.size] or spec["run_seconds"])
    provenance = _provenance(args.seed, args.size, args.seconds)
    results = {}
    for name in args.workload:
        try:
            result = _run_child(name, args)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        result["provenance"] = {**provenance, "sizes": result.pop("sizes")}
        results[name] = result
    push, sharded = results.get("azure_push"), results.get("azure_sharded")
    if push and sharded and push["sim_digest"] != sharded["sim_digest"]:
        sharded["correct"] = False
        sharded["checks"].append(
            f"sim_digest: azure_sharded {sharded['sim_digest'][:16]} != "
            f"azure_push {push['sim_digest'][:16]}")

    final_metrics = {}
    for name, result in results.items():
        print(f"{name}  seed={args.seed}  size={args.size}  "
              f"attempted={result['attempted']}  failed={result['failed']}  "
              f"sim_digest={result['sim_digest'][:16]}")
        for key, entry in result["metrics"].items():
            print(f"  {key:<36} {_fmt(entry)}")
        for key, entry in result.get("per_layer", {}).items():
            print(f"  {key:<36} {_fmt(entry)}")
        for failure in result["checks"]:
            print(f"  CHECK FAILED: {failure}")
        table = result["per_layer"] if args.trace else result["metrics"]
        prefix = f"{name}." if len(results) > 1 else ""
        for key in gated:
            final_metrics[prefix + key] = {"value": table[key]["value"],
                                           "unit": table[key]["unit"]}
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            stem = f"{name}-seed{args.seed}{'-trace' if args.trace else ''}"
            spans = result.pop("spans", None)
            if spans is not None:
                with open(out / f"{stem}.spans.jsonl", "w") as fh:
                    fh.writelines(json.dumps(s) + "\n" for s in spans)
            (out / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": final_metrics,
    }))
    return 0 if correct else 1


# --------------------------------------------------------------- compare
def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def rel_iqr(values) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    q1, q3 = _quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for one (metric, workload)."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = statistics.median(parent), statistics.median(change)
    gain = sign * (c - p) / abs(p) if p else sign * (c - p)
    spread = max(rel_iqr(parent), rel_iqr(change))
    if spread > bound:
        if all(sign * (y - x) > 0 for x in parent for y in change):
            return "better"
        if -gain > bound and all(sign * (y - x) < 0 for x in parent for y in change):
            return "worse"
        return "unresolved"
    if -gain > bound:
        return "worse"
    if gain > 0 and gain > rel_iqr(parent):
        return "better"
    return "unchanged"


def _load(directory) -> list:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def _key(result) -> tuple:
    return (result["workload"], result["provenance"]["seed"], result["provenance"]["size"])


def compare(parent_dir, change_dir) -> int:
    """Print the verdicts; 0 when nothing is worse, 1 when a metric is
    worse, a digest changed or a run failed, 2 when the two sides do not
    hold the same runs (then the digests could not all be compared)."""
    spec = json.loads(BENCHMARK.read_text())
    sides = [[r for r in _load(d) if "per_layer" not in r] for d in (parent_dir, change_dir)]
    keys = [{_key(r) for r in side} for side in sides]
    if keys[0] != keys[1] or not keys[0]:
        print("run.py compare: both sides must hold results of the same workloads, "
              f"seeds and sizes; only in {parent_dir}: {sorted(keys[0] - keys[1])}, "
              f"only in {change_dir}: {sorted(keys[1] - keys[0])}", file=sys.stderr)
        return 2
    workloads = sorted({r["workload"] for side in sides for r in side})
    bad = 0
    print(f"{'metric':<24}{'workload':<17}{'parent median [q1, q3]':<36}"
          f"{'change median [q1, q3]':<36}verdict")
    for metric in spec["end_to_end"]:
        for wl in workloads:
            vals = [[r["metrics"][metric["name"]]["value"] for r in side
                     if r["workload"] == wl] for side in sides]
            if not all(vals):
                continue
            v = verdict(vals[0], vals[1], metric["better"], metric["bound"])
            bad += v == "worse"
            cells = [f"{statistics.median(x):.6g} [{_quartiles(x)[0]:.6g}, "
                     f"{_quartiles(x)[1]:.6g}]" for x in vals]
            print(f"{metric['name']:<24}{wl:<17}{cells[0]:<36}{cells[1]:<36}{v}")
    digests = [{_key(r): r["sim_digest"] for r in side} for side in sides]
    for key in sorted(keys[0]):
        if digests[0][key] != digests[1][key]:
            bad += 1
            print(f"SIM_DIGEST CHANGED: {key[0]} seed={key[1]} size={key[2]}")
    for directory, side in zip((parent_dir, change_dir), sides):
        for r in side:
            if r["failed"] or not r["correct"]:
                bad += 1
                print(f"FAILED RUN: {directory} {r['workload']} seed={_key(r)[1]} "
                      f"failed={r['failed']} checks={r['checks']}")
    return 1 if bad else 0


# ------------------------------------------------------------------ main
def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["_child"]:
        name, seed, seconds, trace, size = argv[1:6]
        result = measure(name, int(seed), float(seconds), trace == "1", size)
        print(json.dumps(result))
        return 0
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent_dir")
        parser.add_argument("change_dir")
        args = parser.parse_args(argv[1:])
        return compare(args.parent_dir, args.change_dir)
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES,
                        default=list(WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="time budget per workload (set-up plus rounds); "
                             "default: 1 at smoke size, else run_seconds of "
                             "BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="measure per-layer metrics")
    parser.add_argument("--size", choices=tuple(SIZE_SECONDS), default="full")
    parser.add_argument("--out", help="directory for results JSON and spans")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
