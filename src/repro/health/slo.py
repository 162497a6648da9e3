"""Declarative SLO targets and the windowed health evaluation.

:class:`SLOTarget` states what "healthy" means for a family of functions
(glob pattern): p99/p50 end-to-end ceilings, cold-start ratio, drop
ratio.  :func:`evaluate_health` grades every (function, window) cell of a
:class:`~repro.health.collector.HealthCollector` against its first
matching target and produces the run-dir artifacts:

``slo.jsonl``
    one row per active (function, window) — counts, sketch quantiles,
    and the list of violated clauses;

``health.json``
    the rollup — per-function violation spans (consecutive violating
    windows), SRE-style multi-window burn rates
    (``violating-fraction / error-budget``), per-worker queue/overhead
    sketches, anomaly alerts, and totals.

Everything here is a pure function of order-independent accumulators and
the sampled gauge series, iterated in sorted order — which is the whole
determinism argument: a sharded run folds the same records into its
collector as the serial run, so the JSON bytes match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Iterable, Optional, Sequence

from .collector import COUNT_KEYS, HealthCollector

__all__ = [
    "SLOTarget", "HealthConfig", "HealthReport", "evaluate_health",
]


def _clean(value: float) -> Optional[float]:
    """NaN is not valid strict JSON; absent data is ``null``."""
    if value is None or value != value:
        return None
    return value


@dataclass(frozen=True)
class SLOTarget:
    """What "healthy" means for functions matching ``function`` (glob)."""

    function: str = "*"
    e2e_p99_s: Optional[float] = 2.0
    e2e_p50_s: Optional[float] = None
    cold_ratio: Optional[float] = 0.5
    drop_ratio: Optional[float] = 0.01

    def matches(self, fqdn: str) -> bool:
        return fnmatchcase(fqdn, self.function)

    def describe(self) -> dict:
        return {
            "function": self.function,
            "e2e_p99_s": self.e2e_p99_s,
            "e2e_p50_s": self.e2e_p50_s,
            "cold_ratio": self.cold_ratio,
            "drop_ratio": self.drop_ratio,
        }


@dataclass(frozen=True)
class HealthConfig:
    """Knobs for the health/SLO layer (``TelemetryConfig(health=...)``)."""

    window: float = 10.0              # sim-seconds per evaluation window
    relative_accuracy: float = 0.01   # sketch quantile error bound
    targets: Sequence[SLOTarget] = (SLOTarget(),)
    availability: float = 0.9         # windows allowed to violate: 1 - this
    burn_windows: Sequence[int] = (6, 30)
    detectors: bool = True
    ewma_alpha: float = 0.3
    z_threshold: float = 4.0
    cold_storm_min: int = 4           # cold starts per window to call a storm
    live_interval: Optional[float] = None  # heartbeat period; None -> window

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if not 0.0 < self.relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {self.relative_accuracy}"
            )
        if not 0.0 <= self.availability < 1.0:
            raise ValueError(
                f"availability must be in [0, 1), got {self.availability}"
            )
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(
            self, "burn_windows",
            tuple(int(k) for k in self.burn_windows),
        )
        if any(k < 1 for k in self.burn_windows):
            raise ValueError(f"burn_windows must be >= 1, got {self.burn_windows}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if self.z_threshold <= 0:
            raise ValueError(f"z_threshold must be positive, got {self.z_threshold}")
        if self.cold_storm_min < 1:
            raise ValueError(
                f"cold_storm_min must be >= 1, got {self.cold_storm_min}"
            )
        if self.live_interval is not None and self.live_interval <= 0:
            raise ValueError(
                f"live_interval must be positive, got {self.live_interval}"
            )

    def target_for(self, function: str) -> Optional[SLOTarget]:
        """First matching target wins (declaration order)."""
        for target in self.targets:
            if target.matches(function):
                return target
        return None

    def heartbeat_interval(self) -> float:
        return self.live_interval if self.live_interval is not None else self.window

    def collector(self, records: Iterable = ()) -> HealthCollector:
        """A collector on this config's grid with ``records`` folded in."""
        collector = HealthCollector(self.window, self.relative_accuracy)
        for record in records:
            collector.observe_record(record)
        return collector

    def describe(self) -> dict:
        return {
            "window": self.window,
            "relative_accuracy": self.relative_accuracy,
            "availability": self.availability,
            "burn_windows": list(self.burn_windows),
            "detectors": self.detectors,
            "targets": [t.describe() for t in self.targets],
        }


@dataclass(frozen=True)
class HealthReport:
    """The evaluated run: ``health.json`` dict + ``slo.jsonl`` rows + alerts."""

    health: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    alerts: list = field(default_factory=list)   # Alert objects


def _grade_window(target: Optional[SLOTarget], row: dict) -> list[str]:
    """The violated clauses of ``target`` in one (function, window) cell."""
    if target is None:
        return []
    violations = []
    p99, p50 = row["e2e_p99"], row["e2e_p50"]
    if target.e2e_p99_s is not None and p99 is not None and p99 > target.e2e_p99_s:
        violations.append(f"e2e_p99>{target.e2e_p99_s:g}")
    if target.e2e_p50_s is not None and p50 is not None and p50 > target.e2e_p50_s:
        violations.append(f"e2e_p50>{target.e2e_p50_s:g}")
    cold = row["cold_ratio"]
    if target.cold_ratio is not None and cold is not None and cold > target.cold_ratio:
        violations.append(f"cold_ratio>{target.cold_ratio:g}")
    drop = row["drop_ratio"]
    if target.drop_ratio is not None and drop is not None and drop > target.drop_ratio:
        violations.append(f"drop_ratio>{target.drop_ratio:g}")
    return violations


def _spans(violating: list[int], window: float) -> list[dict]:
    """Consecutive violating window indices, as inclusive spans."""
    spans: list[dict] = []
    for idx in violating:
        if spans and idx == spans[-1]["end_window"] + 1:
            spans[-1]["end_window"] = idx
            spans[-1]["windows"] += 1
            spans[-1]["t1"] = (idx + 1) * window
        else:
            spans.append({
                "start_window": idx,
                "end_window": idx,
                "windows": 1,
                "t0": idx * window,
                "t1": (idx + 1) * window,
            })
    return spans


def _burn_rates(violating: set[int], first: int, last: int,
                config: HealthConfig) -> dict[str, float]:
    """Worst trailing-K burn rate per configured K.

    Burn rate = (violating fraction of the trailing K windows) divided by
    the error budget ``1 - availability``; 1.0 means "burning budget
    exactly as fast as allowed", >1 means the SLO fails if sustained.
    Gap windows (no traffic) count as healthy.
    """
    budget = 1.0 - config.availability
    out: dict[str, float] = {}
    for k in config.burn_windows:
        worst = 0.0
        for end in range(first, last + 1):
            lo = max(first, end - k + 1)
            bad = sum(1 for w in range(lo, end + 1) if w in violating)
            frac = bad / k
            if frac > worst:
                worst = frac
        out[str(k)] = worst / budget
    return out


def evaluate_health(collector: HealthCollector,
                    series: Optional[dict] = None,
                    config: Optional[HealthConfig] = None) -> HealthReport:
    """Grade a collector (and optionally the sampled gauge series) into the
    ``health.json`` / ``slo.jsonl`` artifacts.  Deterministic: sorted
    iteration everywhere, no wall-clock, NaN-free output."""
    if config is None:
        config = HealthConfig(
            window=collector.window,
            relative_accuracy=collector.relative_accuracy,
        )
    if (config.window != collector.window
            or config.relative_accuracy != collector.relative_accuracy):
        raise ValueError(
            "HealthConfig does not match the collector it is grading: "
            f"window {config.window} vs {collector.window}, "
            f"relative_accuracy {config.relative_accuracy} vs "
            f"{collector.relative_accuracy}"
        )
    window = collector.window
    rows: list[dict] = []
    functions: dict[str, dict] = {}
    total_violating = 0
    worst_burn = (0.0, None)  # (rate, function)

    for fn in collector.functions():
        by_window = collector.counts.get(fn, {})
        sketches = collector.e2e.get(fn)
        target = config.target_for(fn)
        indices = set(by_window)
        if sketches is not None:
            indices.update(sketches.sketches)
        violating: list[int] = []
        fn_totals = dict.fromkeys(COUNT_KEYS, 0)
        for idx in sorted(indices):
            counts = by_window.get(idx, dict.fromkeys(COUNT_KEYS, 0))
            for key in COUNT_KEYS:
                fn_totals[key] += counts[key]
            sketch = sketches.sketch(idx) if sketches is not None else None
            p50 = _clean(sketch.quantile(50.0)) if sketch else None
            p99 = _clean(sketch.quantile(99.0)) if sketch else None
            completed, total = counts["completed"], counts["total"]
            row = {
                "function": fn,
                "window": idx,
                "t0": idx * window,
                "t1": (idx + 1) * window,
                **counts,
                "e2e_p50": p50,
                "e2e_p99": p99,
                "cold_ratio": counts["cold"] / completed if completed else None,
                "drop_ratio": counts["dropped"] / total if total else None,
            }
            row["violations"] = _grade_window(target, row)
            row["ok"] = not row["violations"]
            if row["violations"]:
                violating.append(idx)
            rows.append(row)
        total_violating += len(violating)
        first = min(indices) if indices else 0
        last = max(indices) if indices else -1
        burn = (
            _burn_rates(set(violating), first, last, config)
            if indices else {str(k): 0.0 for k in config.burn_windows}
        )
        fn_worst = max(burn.values(), default=0.0)
        if fn_worst > worst_burn[0]:
            worst_burn = (fn_worst, fn)
        merged = sketches.merged() if sketches is not None else None
        functions[fn] = {
            **fn_totals,
            "target": target.describe() if target is not None else None,
            "e2e": (
                {k: _clean(v) for k, v in merged.summary().items()}
                if merged is not None and merged.count else None
            ),
            "violating_windows": len(violating),
            "spans": _spans(violating, window),
            "burn_rates": burn,
            "worst_burn_rate": fn_worst,
        }

    workers: dict[str, dict] = {}
    for worker in collector.workers():
        entry = {}
        for attr in ("queue", "overhead"):
            sketch_bank = getattr(collector, attr).get(worker)
            merged = sketch_bank.merged() if sketch_bank is not None else None
            entry[attr] = (
                {k: _clean(v) for k, v in merged.summary().items()}
                if merged is not None and merged.count else None
            )
        workers[worker] = entry

    alerts: list = []
    if config.detectors and series is not None:
        from .detectors import detect_anomalies
        alerts = detect_anomalies(series, collector, config)

    first, last = collector.window_range()
    totals = collector.totals()
    health = {
        "version": 1,
        "config": config.describe(),
        "window_range": [first, last],
        "totals": {
            **totals,
            "slo_rows": len(rows),
            "violating_windows": total_violating,
            "alert_count": len(alerts),
        },
        "worst_burn": {
            "rate": worst_burn[0],
            "function": worst_burn[1],
        },
        "functions": functions,
        "workers": workers,
        "alerts": [a.as_dict() for a in alerts],
    }
    return HealthReport(health=health, rows=rows, alerts=alerts)


def normalize_health(value) -> Optional[HealthConfig]:
    """Coerce a ``TelemetryConfig(health=...)`` value: ``True`` means
    defaults, ``None``/``False`` means off, a :class:`HealthConfig`
    passes through."""
    if value is None or value is False:
        return None
    if value is True:
        return HealthConfig()
    if isinstance(value, HealthConfig):
        return value
    raise TypeError(
        f"health must be a HealthConfig, bool, or None, got {value!r}"
    )


__all__.append("normalize_health")
