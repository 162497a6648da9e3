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
``spans.jsonl``       merged spans (workers' derived from the lifecycle
                      contexts' intervals, the load balancer's from its
                      placement log)
``records.jsonl``     per-invocation records
``metrics.prom``      Prometheus text-format snapshot of the merged
                      registries
``summary.json``      config echo, outcome tallies, latency-distribution
                      summaries and the phase decomposition
=================  ====================================================

plus ``traces.jsonl``, ``flight.json`` and the health files when the run
produced them.  Every distribution, the health grade and the trace trees
are derived here from the merged streams; nothing feeds them while the
simulation runs.

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
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

from ..loadbalancer.frontend import placement_spans
from ..metrics.registry import MetricsRegistry
from ..metrics.spans import dump_spans_jsonl
from .decomposition import BREAKDOWN_KEY, breakdown_rows, match_records
from .distributions import latency_distributions
from .exporters import (
    dump_timeseries_jsonl,
    write_health_prometheus,
    write_prometheus,
)
from .sampler import TelemetryConfig

__all__ = [
    "RUN_FILES",
    "RECORD_KEY",
    "SPAN_KEY",
    "PART_STREAMS",
    "TelemetryPart",
    "MergedTelemetry",
    "write_run_dir",
    "build_summary",
    "build_manifest",
]

# Canonical run-directory layout (name → filename).  The first five are
# always written; the rest only when the run produced them ("traces" when
# tracing was enabled, "flight" when the sharded coordinator recorded its
# flight log, "health"/"slo"/"health_prom" when the health layer was on,
# "live" while a health-enabled run is in flight); "manifest" is always
# written.
RUN_FILES = {
    "timeseries": "timeseries.jsonl",
    "spans": "spans.jsonl",
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
_CORE_FILES = ("timeseries", "spans", "records", "metrics", "summary")

# Merge keys of the record and span streams; breakdowns merge under
# decomposition.BREAKDOWN_KEY and trace events under
# tracing.events.TRACE_KEY.
RECORD_KEY = lambda r: (r.arrival, r.invocation_id)  # noqa: E731
SPAN_KEY = lambda s: (s.start, s.end, s.name)  # noqa: E731

PART_STREAMS = ("records", "spans", "breakdowns", "traces")


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
    the LB spans and trace events derive from it here.  ``lb_loads`` is
    the balancer-visible load series.  ``flight`` is the sharded
    coordinator's flight log, written as ``flight.json``.  The views are
    lists; the ``iter_*`` variants stream the merge without
    materializing it.
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

    @functools.cached_property
    def health(self):
        """The run's health collector, folded from the merged records on
        first use (``None`` when health is off)."""
        config = self.config.health
        if config is None:
            return None
        return config.collector(self.iter_records())

    # -- streams (merge-key order, never materialized) ----------------------
    def _merge(self, kind: str, *extra: Iterable, key) -> Iterator:
        return heapq.merge(*(p.stream(kind) for p in self._parts), *extra,
                           key=key)

    def iter_records(self) -> Iterator:
        return self._merge("records", key=RECORD_KEY)

    def iter_spans(self) -> Iterator:
        # The LB spans come in placement order, which is *not*
        # start-sorted when arrivals share a timestamp (a pick span (t, t)
        # sorts before the previous arrival's rpc span (t, t+latency)).
        lb_spans = sorted(
            placement_spans(self.placement_log, self.rpc_latency),
            key=SPAN_KEY,
        )
        return self._merge("spans", lb_spans, key=SPAN_KEY)

    def iter_breakdowns(self) -> Iterator:
        return self._merge("breakdowns", key=BREAKDOWN_KEY)

    def iter_trace_events(self) -> Iterator:
        """The parts' worker-side trace events and the LB events derived
        from the placement log, in ``(trace_id, seq)`` order (LB seqs 0/1
        lead each tree); empty unless ``config.trace`` is set."""
        if not self.config.trace:
            return iter(())
        from ..tracing.events import TRACE_KEY, derive_trace_events

        return self._merge(
            "traces",
            derive_trace_events((), self.placement_log, self.rpc_latency),
            key=TRACE_KEY,
        )

    # -- views -------------------------------------------------------------
    def records(self) -> list:
        return list(self.iter_records())

    def spans(self) -> list:
        return list(self.iter_spans())

    def breakdowns(self) -> list:
        return list(self.iter_breakdowns())

    def trace_events(self) -> list:
        return list(self.iter_trace_events())

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
        return self._summary()[0]

    def _summary(self) -> tuple[dict, dict]:
        # The merged record and breakdown lists live only for this call.
        return build_summary(
            self.config,
            self.worker_names,
            # Every part's sampler ticks the same simulated grid over the
            # same horizon, so each saw the same number of rounds.
            max((p.samples for p in self._parts), default=0),
            self.records(),
            self.breakdowns(),
            dispatch=self.dispatch_info,
        )

    # -- export ------------------------------------------------------------
    def export(self, run_dir: Union[str, Path]) -> dict[str, Path]:
        """Write the run directory; returns {kind: path}.  The summary's
        transient pass comes first; the record, span and trace files then
        stream straight off the merged iterators."""
        series: dict = {}
        for part in self._parts:
            series.update(part.series)
        if self.lb_loads is not None and len(self.lb_loads):
            series["lb"] = self.lb_loads
        summary, histograms = self._summary()
        return write_run_dir(
            run_dir,
            config=self.config,
            worker_names=self.worker_names,
            series=series,
            spans=self.iter_spans(),
            records=self.iter_records(),
            registry=self._registry(),
            summary=summary,
            histograms=histograms,
            health=self.health,
            traces=self.iter_trace_events() if self.config.trace else None,
            flight=self.flight,
            shards=len(self._parts),
        )


def write_run_dir(
    run_dir: Union[str, Path],
    *,
    config: TelemetryConfig,
    worker_names: list,
    series: dict,
    spans,
    records,
    registry: MetricsRegistry,
    summary: dict,
    histograms: dict,
    health=None,
    traces=None,
    flight: Optional[dict] = None,
    shards: int = 1,
) -> dict[str, Path]:
    """Write the canonical run-directory layout from merged streams,
    grading ``health`` and stamping the manifest on the way; called by
    :meth:`MergedTelemetry.export` alone.

    ``summary`` and ``histograms`` come from :func:`build_summary`;
    ``health`` is the run's :class:`~repro.health.HealthCollector`
    (``None`` when health is off).  ``spans``, ``records`` and ``traces``
    may be any single-pass iterables (each is walked exactly once,
    straight onto disk).  The optional artifacts are written (and
    included in the returned paths) only when supplied, so a tracing-off
    export stays byte-identical to earlier layouts apart from the
    provenance manifest.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    paths = {k: run_dir / RUN_FILES[k] for k in _CORE_FILES}

    dump_timeseries_jsonl(series, paths["timeseries"])
    dump_spans_jsonl(spans, paths["spans"])

    with open(paths["records"], "w") as fh:
        for r in records:
            fh.write(json.dumps({
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
            }))
            fh.write("\n")

    write_prometheus(registry, paths["metrics"], histograms)

    with open(paths["summary"], "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    if traces is not None:
        from ..tracing.events import dump_trace_jsonl

        paths["traces"] = run_dir / RUN_FILES["traces"]
        dump_trace_jsonl(traces, paths["traces"])
    if flight is not None:
        paths["flight"] = run_dir / RUN_FILES["flight"]
        with open(paths["flight"], "w") as fh:
            json.dump(flight, fh, indent=2)
            fh.write("\n")
    if health is not None:
        from ..health.slo import evaluate_health

        report = evaluate_health(health, series=series, config=config.health)
        paths["health"] = run_dir / RUN_FILES["health"]
        with open(paths["health"], "w") as fh:
            json.dump(report.health, fh, indent=2)
            fh.write("\n")
        paths["slo"] = run_dir / RUN_FILES["slo"]
        with open(paths["slo"], "w") as fh:
            for row in report.rows:
                fh.write(json.dumps(row, separators=(",", ":")))
                fh.write("\n")
        paths["health_prom"] = run_dir / RUN_FILES["health_prom"]
        write_health_prometheus(report.health, paths["health_prom"])
    paths["manifest"] = run_dir / RUN_FILES["manifest"]
    with open(paths["manifest"], "w") as fh:
        json.dump(build_manifest(config, worker_names, shards), fh, indent=2)
        fh.write("\n")
    return paths


def build_summary(
    config: TelemetryConfig,
    worker_names: list,
    samples: int,
    records: list,
    breakdowns: list,
    dispatch: Optional[dict] = None,
) -> tuple[dict, dict]:
    """The ``summary.json`` structure from the merged records and
    breakdowns, and the :func:`latency_distributions` it summarizes
    (``metrics.prom`` renders them); called by
    :class:`MergedTelemetry` alone.  The export calls this before it
    walks the span stream, so the lists need not outlive it."""
    histograms = latency_distributions(records, breakdowns)
    outcomes: dict[str, int] = {}
    for r in records:
        outcomes[r.outcome.value] = outcomes.get(r.outcome.value, 0) + 1
    matched, compared = match_records(breakdowns, records)
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
        "invocations": len(records),
        "outcomes": outcomes,
        "histograms": {
            name: dist.summary() for name, dist in histograms.items()
        },
        "decomposition": {
            "invocations": len(breakdowns),
            "matched_records": matched,
            "compared_records": compared,
            "rows": breakdown_rows(breakdowns),
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
        "schema": 1,
        "version": __version__,
        "config_hash": hashlib.sha256(payload.encode()).hexdigest()[:16],
        "config": cfg,
        "workers": list(worker_names),
        "shards": int(shards),
        "cpu_count": os.cpu_count() or 1,
    }
