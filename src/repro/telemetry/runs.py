"""The telemetry pipeline: attach → sample → export → inspect.

:class:`Telemetry` bundles the whole observability stack behind one
opt-in object.  An experiment constructs it, attaches a worker or a
cluster *before* starting the run, and calls :meth:`export` afterwards to
produce a self-contained run directory (layout in
:mod:`~repro.telemetry.export`, whose exporter writes every run dir).

``repro inspect <run-dir>`` (see :func:`inspect_report`) renders the
directory back into the paper-style tables.  When no ``Telemetry`` is
constructed nothing here runs — the worker hot path is byte-identical to
a build without this package.
"""

from __future__ import annotations

import heapq
import json
from operator import attrgetter
from pathlib import Path
from typing import Optional, Union

from ..metrics.spans import Span
from .export import (
    RECORD_KEY,
    RUN_FILES,
    TIMELINE_KEY,
    MergedTelemetry,
    TelemetryPart,
)
from .sampler import TelemetryConfig, TelemetrySampler, Timeseries
from .timeline import TimelineRow

__all__ = [
    "Telemetry",
    "read_run_file",
    "load_run",
    "inspect_report",
]

# A retained context's sort key: its invocation id.
_CONTEXT_ID = attrgetter("inv.id")


class Telemetry:
    """One run's telemetry: sampler + context retention, derived at export.

    Attach targets before ``start()``; attaching flips the context
    -retention switch on the target's existing lifecycle, so the
    instrumentation already woven through the worker starts keeping data
    — no new callbacks enter the invocation path.  The retained contexts'
    stage times and ``intervals``, joined with the push front end's
    placement log, are the run's one per-invocation timeline (the
    ``traces.jsonl`` rows; :meth:`spans`, :meth:`trace_events` and
    :meth:`breakdowns` are derived from them), and the registries'
    records are its one outcome log: the latency distributions and the
    health collector are built from them by :meth:`export`.

    ``shard`` is the index a cluster-shard engine stamps on the timeline
    rows of a traced run.
    """

    def __init__(self, env, config: Optional[TelemetryConfig] = None):
        self.env = env
        self.config = config or TelemetryConfig()
        self.sampler = TelemetrySampler(
            env,
            interval=self.config.interval,
            sample_energy=self.config.sample_energy,
        )
        self._workers: list = []
        self._front = None   # the attached push cluster's front end
        self.shard: Optional[int] = None
        # Active dispatch policy description; set by attach_cluster
        # (worker-only pipelines have no placement layer to describe).
        self.dispatch_info = None
        self._live_writer = None
        self._live_running = False
        # The heartbeat's own collector, and how many of each worker's
        # records it has folded in (worker name -> cursor).
        self._live_health = None
        self._live_cursors: dict[str, int] = {}

    # -- wiring ------------------------------------------------------------
    def attach_worker(self, worker) -> None:
        self.sampler.attach_worker(worker)
        worker.lifecycle.keep_contexts = True
        self._workers.append(worker)

    def attach_cluster(self, cluster) -> None:
        front = cluster.front
        if front is not None and self._front is not None:
            raise ValueError("a Telemetry pipeline observes one push cluster")
        for worker in cluster.workers.values():
            self.attach_worker(worker)
        if front is not None:
            # The push front end logs its placements and publishes the
            # load values the balancer actually acted on.
            self._front = front
            front.observe([], self.sampler.record_lb_load)
        self.dispatch_info = cluster.dispatch_info()

    def start(self) -> None:
        self.sampler.start()

    def stop(self) -> None:
        self.sampler.stop()
        self._live_running = False

    # -- live heartbeat ----------------------------------------------------
    def enable_live(self, path) -> None:
        """Stream windowed health snapshots to ``path`` (JSON lines) while
        the run executes — the feed ``repro watch`` tails.  Requires
        health to be enabled.  Each beat folds the records appended since
        the last one into the heartbeat's own collector; that and the
        other probes are read-only, so the heartbeat process cannot
        perturb the schedule."""
        if self.config.health is None:
            raise RuntimeError(
                "live heartbeats need health enabled: TelemetryConfig(health=...)"
            )
        if self._live_writer is not None:
            raise RuntimeError("live heartbeat already enabled")
        from ..health.live import LiveWriter

        self._live_writer = LiveWriter(path)
        self._live_health = self.config.health.collector()
        self._live_running = True
        self.env.process(self._live_loop(), name="health-live-heartbeat")

    def _live_snapshot(self) -> dict:
        health = self._live_health
        cursors = self._live_cursors
        for w in self._workers:
            records = w.metrics.records
            for record in records[cursors.get(w.name, 0):]:
                health.observe_record(record)
            cursors[w.name] = len(records)
        totals = health.totals()
        queue_depth = sum(len(w.queue) for w in self._workers)
        running = sum(w.load.running for w in self._workers)
        latest = health.latest_e2e()
        p99 = None
        if latest is not None:
            value = latest.quantile(99.0)
            p99 = value if value == value else None
        return {
            "t": self.env.now,
            "engine": "serial",
            **totals,
            "queue_depth": queue_depth,
            "running": running,
            "e2e_p99": p99,
        }

    def _live_loop(self):
        interval = self.config.health.heartbeat_interval()
        writer = self._live_writer
        while self._live_running:
            yield self.env.timeout(interval)
            writer.heartbeat(self._live_snapshot())

    def _finish_live(self) -> None:
        if self._live_writer is None:
            return
        self._live_running = False
        final = self._live_snapshot()
        final["done"] = True
        self._live_writer.heartbeat(final)
        self._live_writer.close()
        self._live_writer = None

    # -- views -------------------------------------------------------------
    @property
    def series(self) -> dict[str, Timeseries]:
        return self.sampler.series

    def part(self) -> TelemetryPart:
        """The attached workers' share of the run, as one
        :class:`TelemetryPart`: each stream is derived from the workers'
        records and retained contexts when it is walked.  The timeline
        holds one :class:`~repro.telemetry.timeline.TimelineRow` per
        retained context (in-flight invocations included), in id order,
        referencing the context's stage times and intervals; rows carry
        :attr:`shard` when it is set."""
        workers = self._workers
        shard = self.shard

        def records():
            out = [r for w in workers for r in w.metrics.records]
            out.sort(key=RECORD_KEY)
            yield from out

        def worker_rows(w):
            for ctx in sorted(w.lifecycle.contexts, key=_CONTEXT_ID):
                yield TimelineRow(ctx.inv.id, w.name, shard, ctx.entered,
                                  ctx.exited, ctx.intervals,
                                  ctx.outcome is not None)

        def timeline():
            # Each worker's rows in id order, merged stably in worker
            # order: the stable sort of all rows, with no per-context
            # sort key kept for the whole walk.
            return heapq.merge(*map(worker_rows, workers), key=TIMELINE_KEY)

        return TelemetryPart(
            {"records": records, "timeline": timeline},
            metrics=[(w.name, w.metrics.counters, w.metrics.gauges)
                     for w in workers],
            series=dict(self.sampler.series),
            samples=self.sampler.samples,
        )

    def _merged(self) -> MergedTelemetry:
        """The run as a merge of :meth:`part` with the attached push
        front end's placement log and the LB load series."""
        front = self._front
        return MergedTelemetry(
            self.config,
            [w.name for w in self._workers],
            [self.part()],
            () if front is None else front.placement_log,
            0.0 if front is None else front.rpc_latency,
            self.sampler.lb_loads,
            dispatch_info=self.dispatch_info,
        )

    def spans(self) -> list[Span]:
        """Worker and LB spans in ``(start, end, name)`` order."""
        return self._merged().spans()

    def records(self) -> list:
        return self._merged().records()

    def breakdowns(self) -> list:
        """Per-invocation phase breakdowns of the completed invocations,
        read off the timeline rows."""
        return self._merged().breakdowns()

    def trace_events(self) -> list:
        """The run's causal trace events in ``(trace_id, seq)`` order;
        empty unless ``config.trace`` is set."""
        return self._merged().trace_events()

    def summary(self) -> dict:
        return self._merged().summary()

    # -- export ------------------------------------------------------------
    def export(self, run_dir: Union[str, Path]) -> dict[str, Path]:
        """Write the run directory; returns {kind: path}."""
        self._finish_live()
        return self._merged().export(run_dir)


# ---------------------------------------------------------------- inspect
def _json(path: Path):
    return json.loads(path.read_text())


def _jsonl(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _traces(path: Path) -> list:
    from ..tracing.events import load_trace_jsonl

    return load_trace_jsonl(path)


# The one parser of each run-dir file (by RUN_FILES kind), and the empty
# value a missing file reads as.  live.jsonl, which a run appends to while
# it executes, has its own torn-line-tolerant reader, health.live.read_live.
_READERS = {
    "summary": (_json, dict),
    "records": (_jsonl, list),
    "timeseries": (_jsonl, list),
    "metrics": (Path.read_text, str),
    "manifest": (_json, dict),
    "flight": (_json, dict),
    "traces": (_traces, list),
    "health": (_json, dict),
    "slo": (_jsonl, list),
}


def read_run_file(run_dir: Union[str, Path], kind: str):
    """Parse one run-dir file, named by its :data:`RUN_FILES` kind; a
    file the run did not write reads as an empty value."""
    parse, empty = _READERS[kind]
    path = Path(run_dir) / RUN_FILES[kind]
    return parse(path) if path.exists() else empty()


def load_run(run_dir: Union[str, Path]) -> dict:
    """Read a telemetry run directory back into memory.

    Returns ``{"summary", "records", "timeseries", "metrics_text",
    "manifest", "flight", "traces", "health", "slo"}`` with missing files
    mapped to empty values, so partially exported directories still
    inspect cleanly.
    """
    out = {kind: read_run_file(run_dir, kind) for kind in _READERS}
    out["metrics_text"] = out.pop("metrics")
    return out


def _trace_counts(path: Path) -> tuple[int, int]:
    """``(trace events, traced invocations)`` of a timeline file, derived
    one row at a time; ``(0, 0)`` when the run was not traced."""
    if not path.exists():
        return 0, 0
    from ..tracing.events import derive_trace_events, load_timeline

    events = traced = 0
    for row in load_timeline(path):
        n = sum(1 for _ in derive_trace_events((row,)))
        events += n
        traced += n > 0
    return events, traced


def _table(rows: list[dict], columns: list[tuple[str, str]]) -> list[str]:
    """Minimal fixed-width text table: columns = [(key, header), ...]."""
    def fmt(v):
        return f"{v:.3f}" if isinstance(v, float) else str(v)

    widths = {
        key: max(len(header), *(len(fmt(r.get(key, ""))) for r in rows))
        for key, header in columns
    } if rows else {key: len(header) for key, header in columns}
    header = "  ".join(h.ljust(widths[k]) for k, h in columns)
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append("  ".join(fmt(r.get(k, "")).ljust(widths[k]) for k, _ in columns))
    return lines


def inspect_report(run_dir: Union[str, Path]) -> str:
    """Render a telemetry run directory as a human-readable report:
    run overview, outcome tallies, latency percentiles, the Table-2-style
    overhead decomposition, and a timeseries digest.  Reads only the files
    it reports on, and counts trace events one timeline row at a time."""
    run_dir = Path(run_dir)
    summary = read_run_file(run_dir, "summary")
    lines: list[str] = [f"telemetry run: {run_dir}", ""]

    manifest = read_run_file(run_dir, "manifest")
    if manifest:
        lines.append(
            f"manifest: version={manifest.get('version')}  "
            f"config_hash={manifest.get('config_hash')}  "
            f"shards={manifest.get('shards')}  "
            f"cpu_count={manifest.get('cpu_count')}"
        )
        lines.append("")

    if summary:
        cfg = summary.get("config", {})
        lines.append(
            f"interval={cfg.get('interval')}s  samples={summary.get('samples')}  "
            f"workers={len(summary.get('workers', []))}  "
            f"invocations={summary.get('invocations')}"
        )
        outcomes = summary.get("outcomes", {})
        if outcomes:
            tally = "  ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
            lines.append(f"outcomes: {tally}")
        lines.append("")

        hists = summary.get("histograms", {})
        if hists:
            lines.append("latency distributions (seconds):")
            rows = [
                {"metric": name, **{k: s[k] for k in ("count", "mean", "p50", "p90", "p99")}}
                for name, s in sorted(hists.items())
            ]
            lines.extend(_table(rows, [
                ("metric", "metric"), ("count", "count"), ("mean", "mean"),
                ("p50", "p50"), ("p90", "p90"), ("p99", "p99"),
            ]))
            lines.append("")

    # Dispatch section: silently absent for run dirs that predate the
    # dispatch layer or never attached a cluster (worker-only pipelines).
    dispatch = (summary or {}).get("dispatch")
    if dispatch:
        line = (
            f"dispatch: policy={dispatch.get('policy')}  "
            f"kind={dispatch.get('kind')}"
        )
        if "claim_latency" in dispatch:
            line += f"  claim_latency={dispatch['claim_latency']}s"
        lines.append(line)
        claim = (summary or {}).get("histograms", {}).get("claim_wait_seconds")
        if claim:
            lines.append(
                "claim wait (seconds): "
                f"count={claim.get('count')}  mean={claim.get('mean'):.6f}  "
                f"p50={claim.get('p50'):.6f}  p99={claim.get('p99'):.6f}"
            )
        lines.append("")

    # The decomposition summary.json already holds (computed at export
    # from the lifecycle contexts and checked against the records).
    decomposition = (summary or {}).get("decomposition") or {}
    if decomposition.get("invocations"):
        lines.append(
            f"overhead decomposition ({decomposition['invocations']} "
            f"invocations; phase sums match "
            f"{decomposition['matched_records']}/"
            f"{decomposition['compared_records']} records):"
        )
        lines.extend(_table(decomposition["rows"], [
            ("phase", "phase"), ("mean", "mean_ms"),
            ("p99", "p99_ms"), ("share_pct", "share_%"),
        ]))
        lines.append("")

    flight = read_run_file(run_dir, "flight")
    if flight:
        seam = flight.get("seam_stats") or {}
        totals = flight.get("totals") or {}
        if seam:
            lines.append(
                "sharded seam: "
                f"epochs={seam.get('epochs')}  "
                f"sync_points={seam.get('sync_points')}  "
                f"messages_per_shard={seam.get('messages_per_shard')}  "
                f"chunk_size={seam.get('chunk_size')}"
            )
        if totals:
            eff = totals.get("overlap_efficiency", 0.0)
            lines.append(
                "flight recorder: "
                f"stall={totals.get('stall_s', 0.0):.3f}s  "
                f"overlap={totals.get('overlap_s', 0.0):.3f}s "
                f"(efficiency {100.0 * eff:.1f}%)  "
                f"payload={totals.get('payload_bytes', 0) / 1e6:.2f}MB  "
                f"merge={totals.get('merge_s', 0.0):.3f}s  "
                f"wall={totals.get('wall_s', 0.0):.3f}s"
            )
        lines.append("")

    events, traced = _trace_counts(run_dir / RUN_FILES["traces"])
    if events:
        lines.append(
            f"causal traces: {events} events over {traced} "
            f"invocations (render with `repro trace {run_dir}`)"
        )
        lines.append("")

    from ..health.report import health_section

    lines.extend(health_section(run_dir))
    lines.append("")

    ts = read_run_file(run_dir, "timeseries")
    if ts:
        per_series: dict[str, int] = {}
        for row in ts:
            per_series[row.get("series", "?")] = per_series.get(row.get("series", "?"), 0) + 1
        digest = "  ".join(f"{k}:{v}" for k, v in sorted(per_series.items()))
        lines.append(f"timeseries rows: {len(ts)}  ({digest})")
        worker_rows = [r for r in ts if "queue_depth" in r]
        if worker_rows:
            depth = [r["queue_depth"] for r in worker_rows]
            running = [r["running"] for r in worker_rows]
            lines.append(
                f"mean queue depth {sum(depth) / len(depth):.3f}, "
                f"mean running {sum(running) / len(running):.3f}, "
                f"peak queue depth {max(depth)}"
            )
    if not (summary or ts):
        lines.append("(no telemetry artifacts found)")
    return "\n".join(lines).rstrip() + "\n"
