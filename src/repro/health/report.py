"""Post-hoc health reports over an exported run directory.

``repro health RUN_DIR`` prints :func:`health_report` — the SLO table,
violation spans, burn rates, worker queue/overhead quantiles, and the
alert stream, all read back from ``health.json`` / ``slo.jsonl``.
:func:`health_section` is the condensed variant `repro inspect` embeds.
Both degrade gracefully on runs exported without health enabled.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

__all__ = ["load_health", "health_report", "health_section"]


def load_health(run_dir: Union[str, Path]) -> tuple[Optional[dict], list[dict]]:
    """``(health.json dict or None, slo.jsonl rows)`` from a run dir."""
    # Deferred: the telemetry package imports this one.
    from ..telemetry.runs import read_run_file

    health = read_run_file(run_dir, "health")
    if not health:
        return None, []
    return health, read_run_file(run_dir, "slo")


def _table(rows: list[list[str]], header: list[str]) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*row) for row in rows)
    return lines


def _ms(value) -> str:
    return "-" if value is None else f"{value * 1000.0:.1f}"


def _ratio(value) -> str:
    return "-" if value is None else f"{value:.3f}"


def _missing(run_dir) -> str:
    return (
        f"(no health artifacts in {run_dir} — export the run with health "
        "enabled, e.g. `repro --telemetry DIR cluster-study --health`)"
    )


def health_report(run_dir: Union[str, Path]) -> str:
    """The full ``repro health`` report for an exported run dir."""
    health, rows = load_health(run_dir)
    if health is None:
        return _missing(run_dir)
    totals = health.get("totals", {})
    config = health.get("config", {})
    lines = [
        f"health report for {run_dir}",
        f"  window {config.get('window', '?')}s, availability target "
        f"{config.get('availability', '?')}, sketch accuracy "
        f"±{config.get('relative_accuracy', 0) * 100:g}%",
        f"  {totals.get('total', 0):,} invocations "
        f"({totals.get('completed', 0):,} completed, "
        f"{totals.get('cold', 0):,} cold, {totals.get('dropped', 0):,} dropped) "
        f"over windows {health.get('window_range')}",
        "",
        "per-function SLO compliance:",
    ]
    table_rows = []
    functions = health.get("functions", {})
    for fn in sorted(functions):
        info = functions[fn]
        e2e = info.get("e2e") or {}
        burn = info.get("burn_rates", {})
        worst_k = max(burn, key=lambda k: burn[k]) if burn else "-"
        table_rows.append([
            fn,
            str(info.get("total", 0)),
            _ms(e2e.get("p50")),
            _ms(e2e.get("p99")),
            str(info.get("violating_windows", 0)),
            str(len(info.get("spans", []))),
            (f"{info.get('worst_burn_rate', 0.0):.2f}x@{worst_k}w"
             if burn else "-"),
        ])
    lines.extend(_table(
        table_rows,
        ["function", "n", "p50_ms", "p99_ms", "viol_w", "spans", "worst_burn"],
    ))

    worst = health.get("worst_burn", {})
    if worst.get("function"):
        lines += [
            "",
            f"worst burn rate: {worst.get('rate', 0.0):.2f}x error budget "
            f"({worst['function']})",
        ]

    workers = health.get("workers", {})
    if workers:
        lines += ["", "per-worker control-plane latency (ms):"]
        table_rows = []
        for worker in sorted(workers):
            info = workers[worker]
            queue = info.get("queue") or {}
            overhead = info.get("overhead") or {}
            table_rows.append([
                worker,
                _ms(queue.get("p50")), _ms(queue.get("p99")),
                _ms(overhead.get("p50")), _ms(overhead.get("p99")),
            ])
        lines.extend(_table(
            table_rows,
            ["worker", "queue_p50", "queue_p99", "ovh_p50", "ovh_p99"],
        ))

    alerts = health.get("alerts", [])
    lines += ["", f"alerts: {len(alerts)}"]
    for alert in alerts:
        lines.append(
            f"  [{alert.get('severity', '?'):8s}] t={alert.get('t', 0.0):9.2f} "
            f"{alert.get('kind')}: {alert.get('message')}"
        )

    violating = totals.get("violating_windows", 0)
    slo_rows = totals.get("slo_rows", 0)
    lines += [
        "",
        f"SLO: {slo_rows - violating}/{slo_rows} windows in compliance "
        f"({violating} violating), {len(rows)} slo.jsonl rows",
    ]
    return "\n".join(lines)


def health_section(run_dir: Union[str, Path]) -> list[str]:
    """The condensed health block for ``repro inspect`` (empty-safe):
    read from ``health.json`` alone, pointing at the full report."""
    from ..telemetry.runs import read_run_file

    health = read_run_file(run_dir, "health")
    if not health:
        return ["health: (not enabled for this run)"]
    totals = health.get("totals", {})
    worst = health.get("worst_burn", {})
    lines = [
        f"health: {totals.get('violating_windows', 0)} violating windows "
        f"across {totals.get('slo_rows', 0)} (function, window) cells; "
        f"{totals.get('alert_count', 0)} alerts",
    ]
    if worst.get("function"):
        lines.append(
            f"  worst burn rate: {worst.get('rate', 0.0):.2f}x error budget "
            f"({worst['function']})"
        )
    functions = health.get("functions", {})
    bad = [
        (info.get("violating_windows", 0), fn)
        for fn, info in functions.items() if info.get("violating_windows")
    ]
    for count, fn in sorted(bad, reverse=True)[:3]:
        lines.append(f"  {fn}: {count} violating windows")
    lines.append(f"  (full report: `repro health {run_dir}`)")
    return lines
