"""The run-directory exporter: one writer for both engines.

A run's telemetry arrives as *parts*, one per worker set
(:class:`TelemetryPart`): the serial engine's :class:`~repro.telemetry.
runs.Telemetry` is one part covering every worker, and each cluster shard
streams the part of its own workers over the seam.  :class:`MergedTelemetry`
merges the parts with the push front end's placement log and the LB load
series, and is the only code that writes a run directory:

=================  ====================================================
``timeseries.jsonl``  sampled gauge rows, one JSON object per line,
                      ``series`` keying the worker (plus ``lb`` for the
                      status-board load signal)
``records.jsonl``     per-invocation records
``metrics.prom``      Prometheus text-format snapshot of the merged
                      registries
``summary.json``      config echo, outcome tallies, latency-distribution
                      summaries and the phase decomposition
=================  ====================================================

plus ``traces.jsonl`` (the per-invocation timeline, one row per
invocation id; schema in :mod:`repro.tracing.events`, rows and their one
writer in :mod:`repro.telemetry.timeline`) when the run was traced, and
``flight.json`` and the health files when the run produced them.  Every
distribution, breakdown and the health grade are derived here from the
merged streams, and span and trace-event views from the timeline rows;
nothing feeds them while the simulation runs.

An export walks each stream once:

* the records, in merge order, each written as its ``records.jsonl``
  line and folded by :class:`~repro.telemetry.distributions.RecordFold`
  into the outcome tallies, the id → overhead map, the run-wide e2e,
  queue and overhead distributions and (health on) the windowed health
  collector — one bucket key per completed sample feeds both;
* the timeline rows, in id order, written as ``traces.jsonl`` when the
  run is traced (an untraced run walks the worker rows without writing),
  each closed row's intervals folded into per-phase
  :class:`~repro.telemetry.decomposition.PhaseColumns`.

``summary.json`` and ``metrics.prom`` are then written from the two
folds, and the health files graded from the collector.

Each part stream is sorted by its merge key, so every merged view is a
k-way ``heapq.merge``.  ``heapq.merge`` is stable (the earlier stream
wins ties) and workers are partitioned into contiguous ranges, so the
merge equals the stable sort of the concatenation in worker order.  A
serial export is a merge of one part, which ``heapq.merge`` passes
straight through, so serial and sharded run directories are identical
by construction.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import json
import os
from json.encoder import encode_basestring_ascii as _string
from math import isfinite
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

from ..metrics.registry import MetricsRegistry
from .decomposition import PhaseColumns, decompose_rows
from .distributions import RecordFold
from .exporters import (
    dump_timeseries_jsonl,
    write_health_prometheus,
    write_prometheus,
)
from .sampler import TelemetryConfig
from .timeline import TimelineRow, encode_row

__all__ = [
    "RUN_FILES",
    "RECORD_KEY",
    "TIMELINE_KEY",
    "PART_STREAMS",
    "TelemetryPart",
    "MergedTelemetry",
    "build_summary",
    "build_manifest",
]

# Canonical run-directory layout (name → filename).  The first four are
# always written; the rest only when the run produced them ("traces" when
# tracing was enabled, "flight" when the sharded coordinator recorded its
# flight log, "health"/"slo"/"health_prom" when the health layer was on,
# "live" while a health-enabled run is in flight); "manifest" is always
# written.
RUN_FILES = {
    "timeseries": "timeseries.jsonl",
    "records": "records.jsonl",
    "metrics": "metrics.prom",
    "summary": "summary.json",
    "traces": "traces.jsonl",
    "flight": "flight.json",
    "health": "health.json",
    "slo": "slo.jsonl",
    "health_prom": "health.prom",
    "live": "live.jsonl",
    "manifest": "manifest.json",
}
_CORE_FILES = ("timeseries", "records", "metrics", "summary")

# Merge keys of the record and timeline streams.
RECORD_KEY = lambda r: (r.arrival, r.invocation_id)  # noqa: E731
TIMELINE_KEY = attrgetter("id")

PART_STREAMS = ("records", "timeline")


class TelemetryPart:
    """One worker set's share of a run's telemetry.

    ``streams`` maps each of :data:`PART_STREAMS` to a zero-argument
    callable that returns the stream in merge-key order; each call walks
    it afresh, so a part is re-iterable and derives nothing until the
    export asks.  ``metrics`` holds ``(worker, counters, gauges)`` per
    worker in cluster order, ``series`` the workers' gauge timeseries and
    ``samples`` the sampler's round count.
    """

    __slots__ = ("_streams", "metrics", "series", "samples")

    def __init__(self, streams: dict[str, Callable[[], Iterable]],
                 metrics: list, series: dict, samples: int):
        self._streams = streams
        self.metrics = metrics
        self.series = series
        self.samples = samples

    @classmethod
    def from_chunks(cls, chunks: dict[str, list], meta: dict) -> "TelemetryPart":
        """A part rebuilt from streamed chunks (each a list, in stream
        order) and the :meth:`meta` that closed them."""
        return cls(
            {kind: functools.partial(itertools.chain.from_iterable, chunks[kind])
             for kind in PART_STREAMS},
            **meta,
        )

    def stream(self, kind: str) -> Iterator:
        return iter(self._streams[kind]())

    def meta(self) -> dict:
        """Everything but the streams, for the part's closing message."""
        return {"metrics": self.metrics, "series": self.series,
                "samples": self.samples}


class MergedTelemetry:
    """A run's telemetry views and run directory, merged from its parts.

    ``placement_log`` is the push front end's ``(t, fqdn, target)`` log
    in placement order (empty for pull dispatch and worker-only runs);
    it supplies the timeline rows' LB entries.  ``lb_loads`` is
    the balancer-visible load series.  ``flight`` is the sharded
    coordinator's flight log, written as ``flight.json``.  The views are
    lists; the merged records are built once and kept, and the
    timeline is streamed off the parts on each walk.
    """

    def __init__(self, config: TelemetryConfig, worker_names,
                 parts: list[TelemetryPart], placement_log=(),
                 rpc_latency: float = 0.0, lb_loads=None, *,
                 flight: Optional[dict] = None, dispatch_info=None):
        self.config = config
        self.worker_names = list(worker_names)
        self._parts = list(parts)
        self.placement_log = placement_log
        self.rpc_latency = rpc_latency
        self.lb_loads = lb_loads
        self.flight = flight
        self.dispatch_info = dispatch_info
        self._fold: Optional[RecordFold] = None

    @functools.cached_property
    def _records(self) -> list:
        """The merged records, walked off the parts once and shared by
        every view and the export."""
        return list(self._merge("records", key=RECORD_KEY))

    @property
    def health(self):
        """The run's health collector, folded from the merged records on
        first use (``None`` when health is off)."""
        if self.config.health is None:
            return None
        return self._walk_records().health

    # -- streams (merge-key order, never materialized) ----------------------
    def _merge(self, kind: str, key) -> Iterator:
        return heapq.merge(*(p.stream(kind) for p in self._parts), key=key)

    def iter_timeline(self) -> Iterator[TimelineRow]:
        """The run's timeline rows in id order: the parts' context rows
        outer-joined with the placement log, whose ordinals are ids."""
        rows = self._merge("timeline", key=TIMELINE_KEY)
        if not self.placement_log:
            return rows
        return _join_placements(rows, self.placement_log, self.rpc_latency)

    def _walk_records(self, fh=None) -> RecordFold:
        """The records' one walk: each record is folded into the run's
        :class:`RecordFold` (unless an earlier walk did) and, given
        ``fh``, written as its ``records.jsonl`` line."""
        fold, add = self._fold, None
        if fold is None:
            fold = self._fold = RecordFold(self.config.health)
            add = fold.add
        write = None if fh is None else fh.write
        if add is None and write is None:
            return fold
        for r in self._records:
            if add is not None:
                add(r)
            if write is not None:
                write(encode_record(r))
                write("\n")
        return fold

    def _walk_timeline(self, fh=None) -> PhaseColumns:
        """The timeline's one walk, in id order: each closed row's phase
        sums go into the returned columns and, given ``fh`` (a traced
        run), every row is written as its ``traces.jsonl`` line.  Without
        ``fh`` only the worker rows are walked (no placement join)."""
        columns = PhaseColumns()
        add = columns.add
        if fh is None:
            for row in self._merge("timeline", key=TIMELINE_KEY):
                if row.closed:
                    add(row.id, row.intervals)
            return columns
        write = fh.write
        for row in self.iter_timeline():
            write(encode_row(row))
            write("\n")
            if row.closed:
                add(row.id, row.intervals)
        return columns

    # -- views -------------------------------------------------------------
    def records(self) -> list:
        return list(self._records)

    def spans(self) -> list:
        from ..tracing.events import derive_spans

        return derive_spans(self.iter_timeline(), self.worker_names)

    def breakdowns(self) -> list:
        """Per-invocation phase breakdowns of the completed invocations,
        derived from the timeline rows."""
        return decompose_rows(self._merge("timeline", key=TIMELINE_KEY))

    def trace_events(self) -> list:
        """The run's causal trace events in ``(trace_id, seq)`` order;
        empty unless ``config.trace`` is set."""
        if not self.config.trace:
            return []
        from ..tracing.events import derive_trace_events

        return list(derive_trace_events(self.iter_timeline()))

    def _registry(self) -> MetricsRegistry:
        """Counters summed, gauges worker-prefixed, in worker order."""
        merged = MetricsRegistry()
        for part in self._parts:
            for name, counters, gauges in part.metrics:
                for key, v in counters.items():
                    merged.incr(key, v)
                for key, v in gauges.items():
                    merged.set_gauge(f"{name}.{key}", v)
        return merged

    def summary(self) -> dict:
        return self._summary(self._walk_records(), self._walk_timeline())[0]

    def _summary(self, fold: RecordFold, columns: PhaseColumns) -> tuple[dict, dict]:
        return build_summary(
            self.config,
            self.worker_names,
            # Every part's sampler ticks the same simulated grid over the
            # same horizon, so each saw the same number of rounds.
            max((p.samples for p in self._parts), default=0),
            fold,
            columns,
            dispatch=self.dispatch_info,
        )

    # -- export ------------------------------------------------------------
    def export(self, run_dir: Union[str, Path]) -> dict[str, Path]:
        """Write the run directory; returns {kind: path}.

        Each stream is walked once, straight onto disk: the records (into
        ``records.jsonl``, folded on the way into the outcome tallies,
        distributions and health collector), then the timeline (into
        ``traces.jsonl`` when traced, its phase sums collected on the way);
        ``summary.json`` and ``metrics.prom`` are written from the two
        folds, and the health files are graded from the collector.
        """
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        paths = {k: run_dir / RUN_FILES[k] for k in _CORE_FILES}
        config = self.config

        series: dict = {}
        for part in self._parts:
            series.update(part.series)
        if self.lb_loads is not None and len(self.lb_loads):
            series["lb"] = self.lb_loads
        dump_timeseries_jsonl(series, paths["timeseries"])

        with open(paths["records"], "w") as fh:
            fold = self._walk_records(fh)
        if config.trace:
            paths["traces"] = run_dir / RUN_FILES["traces"]
            with open(paths["traces"], "w") as fh:
                columns = self._walk_timeline(fh)
        else:
            columns = self._walk_timeline()

        summary, histograms = self._summary(fold, columns)
        write_prometheus(self._registry(), paths["metrics"], histograms)
        _dump_json(summary, paths["summary"])

        if self.flight is not None:
            paths["flight"] = run_dir / RUN_FILES["flight"]
            _dump_json(self.flight, paths["flight"])
        if fold.health is not None:
            from ..health.slo import evaluate_health

            report = evaluate_health(fold.health, series=series,
                                     config=config.health)
            paths["health"] = run_dir / RUN_FILES["health"]
            _dump_json(report.health, paths["health"])
            paths["slo"] = run_dir / RUN_FILES["slo"]
            with open(paths["slo"], "w") as fh:
                for row in report.rows:
                    fh.write(json.dumps(row, separators=(",", ":")))
                    fh.write("\n")
            paths["health_prom"] = run_dir / RUN_FILES["health_prom"]
            write_health_prometheus(report.health, paths["health_prom"])
        paths["manifest"] = run_dir / RUN_FILES["manifest"]
        _dump_json(build_manifest(config, self.worker_names, len(self._parts)),
                   paths["manifest"])
        return paths


def _dump_json(obj, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _join_placements(rows: Iterator[TimelineRow], log,
                     rpc_latency: float) -> Iterator[TimelineRow]:
    """Outer-join id-ordered context ``rows`` with a placement log: entry
    ``k`` (1-based) becomes invocation ``k``'s ``lb`` entry, on its context
    row or on a row of its own when no worker opened a context for it
    (the RPC hop was still in flight at the horizon)."""
    row = next(rows, None)
    for k, (t, fqdn, target) in enumerate(log, 1):
        while row is not None and row.id < k:
            yield row
            row = next(rows, None)
        lb = [t, fqdn, target, t + rpc_latency if rpc_latency > 0 else None]
        if row is not None and row.id == k:
            yield row._replace(lb=lb)
            row = next(rows, None)
        else:
            yield TimelineRow(k, lb=lb)
    if row is not None:
        yield row
        yield from rows


def record_object(r) -> dict:
    """A record's ``records.jsonl`` object."""
    return {
        "function": r.function,
        "arrival": r.arrival,
        "outcome": r.outcome.value,
        "exec_time": r.exec_time,
        "e2e_time": r.e2e_time,
        "queue_time": r.queue_time,
        "overhead": r.overhead,
        "cold": r.cold,
        "worker": r.worker,
        "invocation_id": r.invocation_id,
    }


_FLOAT = {float}
_RECORD_LINE = (
    '{"function": %s, "arrival": %s, "outcome": %s, "exec_time": %s, '
    '"e2e_time": %s, "queue_time": %s, "overhead": %s, "cold": %s, '
    '"worker": %s, "invocation_id": %s}'
)


def encode_record(r) -> str:
    """A record's ``records.jsonl`` line (no newline), equal to
    ``json.dumps(record_object(r))``: filled into a template when every
    field has its usual type and the times are finite floats, encoded by
    ``json`` otherwise."""
    times = (r.arrival, r.exec_time, r.e2e_time, r.queue_time, r.overhead)
    if not (_FLOAT.issuperset(map(type, times)) and isfinite(sum(times))
            and type(r.cold) is bool and type(r.invocation_id) is int
            and type(r.function) is str and type(r.worker) is str):
        return json.dumps(record_object(r))
    arrival, exec_time, e2e_time, queue_time, overhead = map(float.__repr__, times)
    return _RECORD_LINE % (
        _string(r.function), arrival, _string(r.outcome.value), exec_time,
        e2e_time, queue_time, overhead, "true" if r.cold else "false",
        _string(r.worker), r.invocation_id,
    )


def build_summary(
    config: TelemetryConfig,
    worker_names: list,
    samples: int,
    fold: RecordFold,
    columns: PhaseColumns,
    dispatch: Optional[dict] = None,
) -> tuple[dict, dict]:
    """The ``summary.json`` structure from the folded records and the
    timeline's phase columns, and the distributions it summarizes
    (``metrics.prom`` renders them); called by :class:`MergedTelemetry`
    alone."""
    histograms = fold.distributions(columns.claimed)
    matched, compared = columns.match(fold.overheads)
    cfg = {
        "interval": config.interval,
        "sample_energy": config.sample_energy,
    }
    # Only present when enabled, so a health-off summary.json stays
    # byte-identical to exports from before the health layer existed.
    health = getattr(config, "health", None)
    if health is not None:
        cfg["health"] = health.describe()
    out = {
        "config": cfg,
        "workers": list(worker_names),
        "samples": samples,
        "invocations": fold.count,
        "outcomes": dict(fold.outcomes),
        "histograms": {
            name: dist.summary() for name, dist in histograms.items()
        },
        "decomposition": {
            "invocations": len(columns),
            "matched_records": matched,
            "compared_records": compared,
            "rows": columns.rows(),
        },
    }
    # Only present for cluster runs (the telemetry pipeline learned the
    # active policy from attach_cluster); worker-only runs and run dirs
    # from before the dispatch layer simply lack the key.
    if dispatch is not None:
        out["dispatch"] = dict(dispatch)
    return out, histograms


def build_manifest(
    config: TelemetryConfig,
    worker_names: list,
    shards: int = 1,
) -> dict:
    """The ``manifest.json`` provenance record for a run directory.

    Deliberately free of wall-clock timestamps: two runs of the same
    configuration produce the same manifest (``shards`` aside), so the
    serial-vs-sharded byte-identity gates only have to exclude this one
    file — and can still assert ``config_hash`` equality across it.
    """
    cfg = {
        "interval": config.interval,
        "sample_energy": config.sample_energy,
        "trace": getattr(config, "trace", False),
    }
    health = getattr(config, "health", None)
    if health is not None:
        cfg["health"] = health.describe()
    payload = json.dumps({"config": cfg, "workers": list(worker_names)},
                         sort_keys=True)
    from .. import __version__

    return {
        "schema": 2,
        "version": __version__,
        "config_hash": hashlib.sha256(payload.encode()).hexdigest()[:16],
        "config": cfg,
        "workers": list(worker_names),
        "shards": int(shards),
        "cpu_count": os.cpu_count() or 1,
    }
