"""Streaming cluster health: sketches, SLOs, anomaly alerts, live watch.

The health observatory answers the question the end-of-run summary
cannot: *which functions are violating their latency targets, in which
windows, and is the cluster degrading right now?*  It is layered on the
telemetry seam — opt in with ``TelemetryConfig(health=True)`` (or a
tuned :class:`HealthConfig`) and the run dir gains ``health.json``,
``slo.jsonl``, ``health.prom`` and a ``live.jsonl`` heartbeat; read them
back with ``repro health RUN_DIR`` and ``repro watch RUN_DIR``.

Determinism contract: the collector is built at export from the run's
merged records and holds only integer counters and :class:`DDSketch`
buckets, so the sharded engine builds exactly the serial run's collector
and the exported ``health.json`` / ``slo.jsonl`` are byte-identical
across engines.  With health off, runs are bit-identical to a build
without this package.
"""

from .collector import HealthCollector
from .detectors import Alert, EwmaDetector, detect_anomalies
from .live import LiveWriter, read_live, sparkline, watch, watch_report
from .report import health_report, health_section, load_health
from .sketch import DDSketch, WindowedSketch, window_index
from .slo import (
    HealthConfig,
    HealthReport,
    SLOTarget,
    evaluate_health,
    normalize_health,
)

__all__ = [
    "Alert",
    "DDSketch",
    "EwmaDetector",
    "HealthCollector",
    "HealthConfig",
    "HealthReport",
    "LiveWriter",
    "SLOTarget",
    "detect_anomalies",
    "evaluate_health",
    "health_report",
    "health_section",
    "load_health",
    "normalize_health",
    "read_live",
    "sparkline",
    "watch",
    "watch_report",
    "window_index",
    "WindowedSketch",
]
