"""Command-line entry point: run any paper experiment from a shell.

Examples::

    python -m repro fig1 --scale small
    python -m repro fig4 --scale medium --jobs 4
    python -m repro table2
    python -m repro fig8
    python -m repro litmus --workloads skew_frequency
    python -m repro ablation --which queue
    python -m repro export-azure --out /tmp/azure-day --functions 1000
    python -m repro --scale small --telemetry /tmp/run cluster-study --trace
    python -m repro --scale small --telemetry /tmp/run cluster-study --health
    python -m repro inspect /tmp/run
    python -m repro health /tmp/run
    python -m repro watch /tmp/run --once
    python -m repro trace /tmp/run --top 5 --perfetto /tmp/run/trace.json

Every command prints the paper-style table to stdout; ``--scale`` selects
the experiment sizing (small/medium/full) and ``--jobs`` fans sweep
commands out over worker processes (``REPRO_JOBS`` is the ambient
default; results are identical at any job count).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .cache import CACHE_ENV_VAR
from .telemetry import TELEMETRY_ENV_VAR

from .experiments import (
    FULL,
    MEDIUM,
    SMALL,
    fig1_rows,
    fig4_rows,
    fig5_rows,
    fig6_rows,
    fig7_rows,
    format_table,
    make_traces,
    run_bypass_ablation,
    run_coldpath_ablation,
    run_fig8,
    run_keepalive_sweep,
    run_queue_policy_ablation,
    run_regulator_ablation,
    run_table2,
    table3_rows,
    table4_rows,
)
from .parallel import resolve_jobs

__all__ = ["main", "build_parser"]

_SCALES = {"small": SMALL, "medium": MEDIUM, "full": FULL}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the Ilúvatar/FaasCache paper artifacts.",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="small",
        help="experiment sizing (default: small; benches use medium)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep commands (default: $REPRO_JOBS "
             "or 1 = serial; 0 = all cores)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed artifact cache for generated traces "
             "(default: $REPRO_CACHE if set, else no caching); results "
             "are bit-identical with or without the cache",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help="export a telemetry run directory (timeseries, spans, records, "
             "Prometheus snapshot, summary) for commands that support it "
             "(default: $REPRO_TELEMETRY if set, else off); the simulated "
             "results are bit-identical with telemetry on or off",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig1", help="control-plane overhead vs concurrency")
    table2 = sub.add_parser("table2", help="worker latency breakdown")
    table2.add_argument("--invocations", type=int, default=200)
    sub.add_parser("table3", help="trace-sample statistics")
    sub.add_parser("table4", help="FunctionBench catalog")
    sub.add_parser("fig4", help="keep-alive sweep: execution-time increase")
    sub.add_parser("fig5", help="keep-alive sweep: cold-start fraction")
    litmus = sub.add_parser("litmus", help="Fig 6: FaasCache vs OpenWhisk")
    litmus.add_argument(
        "--workloads", nargs="+",
        default=["skew_frequency", "cyclic", "two_size"],
    )
    sub.add_parser("fig7", help="per-function breakdown")
    sub.add_parser("fig8", help="dynamic cache sizing")
    ablation = sub.add_parser("ablation", help="design-choice ablations")
    ablation.add_argument(
        "--which",
        choices=["queue", "bypass", "regulator", "coldpath", "lb", "dispatch",
                 "all"],
        default="all",
    )
    hrc = sub.add_parser(
        "hrc", help="hit-ratio-curve provisioning recommendation"
    )
    hrc.add_argument("--target-cold-ratio", type=float, default=0.10)
    cluster = sub.add_parser("cluster-study", help="full-stack cluster trace study")
    cluster.add_argument(
        "--compare-lb",
        action="store_true",
        help="sweep the study across LB policies (one process per policy)",
    )
    cluster.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard the cluster's workers across N processes with a "
             "time-synchronized LB seam (default: $REPRO_SHARDS or 1 = "
             "single process; 0 = all cores); results are bit-identical "
             "at any shard count",
    )
    cluster.add_argument(
        "--trace",
        action="store_true",
        help="collect causal trace trees into the telemetry run directory "
             "(traces.jsonl; sharded runs also record the coordinator "
             "flight log in flight.json); requires --telemetry; render "
             "them afterwards with `repro trace RUN_DIR`",
    )
    cluster.add_argument(
        "--health",
        action="store_true",
        help="grade the run through the streaming health/SLO engine "
             "(health.json, slo.jsonl, health.prom, live.jsonl in the run "
             "directory); requires --telemetry; read back with "
             "`repro health RUN_DIR` or watch live with `repro watch`",
    )
    inspect = sub.add_parser(
        "inspect", help="summarize a telemetry run directory"
    )
    inspect.add_argument("run_dir", metavar="RUN_DIR")
    health_cmd = sub.add_parser(
        "health",
        help="SLO/health report over a run directory (one produced with "
             "cluster-study --health)",
    )
    health_cmd.add_argument("run_dir", metavar="RUN_DIR")
    watch_cmd = sub.add_parser(
        "watch",
        help="live dashboard over a run directory's live.jsonl heartbeats "
             "(refreshes until the run reports done)",
    )
    watch_cmd.add_argument("run_dir", metavar="RUN_DIR")
    watch_cmd.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no refresh loop)",
    )
    watch_cmd.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="refresh interval in wall-clock seconds (default: 1.0)",
    )
    trace_cmd = sub.add_parser(
        "trace",
        help="critical-path report over a traced run directory "
             "(one produced with cluster-study --trace)",
    )
    trace_cmd.add_argument("run_dir", metavar="RUN_DIR")
    trace_cmd.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="render the N slowest invocations' critical paths (default: 5)",
    )
    trace_cmd.add_argument(
        "--percentile", type=float, default=None, metavar="P",
        help="also render the invocation at the Pth e2e-latency percentile",
    )
    trace_cmd.add_argument(
        "--perfetto", default=None, metavar="PATH",
        help="export the traces as Chrome trace-event JSON (loadable in "
             "Perfetto / chrome://tracing) to PATH",
    )
    export = sub.add_parser(
        "export-azure", help="write a synthetic dataset in the Azure CSV schema"
    )
    export.add_argument("--out", required=True)
    export.add_argument("--functions", type=int, default=2000)
    export.add_argument("--minutes", type=int, default=1440)
    export.add_argument("--seed", type=int, default=0xFAA5)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolve_jobs(args.jobs)
    except ValueError as exc:  # e.g. REPRO_JOBS=banana
        parser.error(str(exc))
    if args.cache_dir:
        # Exported (not passed) so parallel worker processes inherit it.
        os.environ[CACHE_ENV_VAR] = args.cache_dir
    telemetry_dir = args.telemetry or os.environ.get(TELEMETRY_ENV_VAR) or None
    scale = _SCALES[args.scale]
    out = []

    if args.command == "fig1":
        out.append(format_table(fig1_rows(scale), title="Figure 1"))
    elif args.command == "table2":
        out.append(
            format_table(run_table2(args.invocations), title="Table 2 (ms)")
        )
    elif args.command == "table3":
        out.append(format_table(table3_rows(scale), title="Table 3"))
    elif args.command == "table4":
        out.append(format_table(table4_rows(), title="Table 4"))
    elif args.command in ("fig4", "fig5"):
        results = run_keepalive_sweep(scale, n_jobs=args.jobs)
        rows = fig4_rows(results) if args.command == "fig4" else fig5_rows(results)
        title = "Figure 4" if args.command == "fig4" else "Figure 5"
        out.append(format_table(rows, title=title))
    elif args.command == "litmus":
        out.append(
            format_table(
                fig6_rows(scale, workloads=tuple(args.workloads),
                          n_jobs=args.jobs),
                title="Figure 6",
            )
        )
    elif args.command == "fig7":
        out.append(format_table(fig7_rows(scale), title="Figure 7"))
    elif args.command == "fig8":
        outcome = run_fig8(scale)
        out.append(format_table([outcome.as_dict()], title="Figure 8"))
    elif args.command == "ablation":
        which = args.which
        if which in ("queue", "all"):
            out.append(format_table(run_queue_policy_ablation(n_jobs=args.jobs),
                                    title="Queue disciplines"))
        if which in ("bypass", "all"):
            out.append(format_table(run_bypass_ablation(), title="Bypass"))
        if which in ("regulator", "all"):
            out.append(format_table(run_regulator_ablation(), title="Regulator"))
        if which in ("coldpath", "all"):
            out.append(format_table(run_coldpath_ablation(), title="Cold path"))
        if which in ("lb", "all"):
            from .experiments import run_lb_ablation, run_lb_policy_comparison

            out.append(format_table(run_lb_ablation(n_jobs=args.jobs),
                                    title="CH-BL bound factor"))
            out.append(format_table(run_lb_policy_comparison(n_jobs=args.jobs),
                                    title="LB policies"))
        if which in ("dispatch", "all"):
            from .experiments import run_dispatch_race

            out.append(format_table(
                run_dispatch_race(n_jobs=args.jobs),
                title="Dispatch race (push CH-BL vs pull)",
            ))
    elif args.command == "hrc":
        from .keepalive import hit_ratio_curve, recommend_cache_size

        trace = make_traces(scale)["representative"]
        curve = hit_ratio_curve(trace)
        rows = [
            {"cache_gb": gb,
             "predicted_warm_pct": 100 * curve.hit_ratio_at(gb * 1024.0)}
            for gb in (1, 2, 4, 8, 16, 32)
        ]
        size = recommend_cache_size(trace, args.target_cold_ratio)
        out.append(format_table(rows, title="Hit-ratio curve"))
        out.append(
            f"smallest cache for <= {args.target_cold_ratio:.0%} cold: "
            f"{'unreachable' if size is None else f'{size:,.0f} MB'}"
        )
    elif args.command == "cluster-study":
        if args.trace and telemetry_dir is None:
            parser.error("--trace requires --telemetry DIR (or "
                         f"${TELEMETRY_ENV_VAR}) to hold traces.jsonl")
        if args.trace and args.compare_lb:
            parser.error("--trace applies to a single study run, not the "
                         "LB sweep")
        if args.health and telemetry_dir is None:
            parser.error("--health requires --telemetry DIR (or "
                         f"${TELEMETRY_ENV_VAR}) to hold health.json")
        if args.health and args.compare_lb:
            parser.error("--health applies to a single study run, not the "
                         "LB sweep")
        if args.compare_lb:
            from .experiments import run_cluster_lb_sweep

            rows = run_cluster_lb_sweep(scale, n_jobs=args.jobs,
                                        shards=args.shards)
            out.append(format_table(rows, title="Cluster study (LB sweep)"))
        else:
            from .experiments import run_cluster_study

            result = run_cluster_study(scale, telemetry_dir=telemetry_dir,
                                       shards=args.shards,
                                       trace_invocations=args.trace,
                                       health=args.health)
            out.append(format_table([result.as_dict()], title="Cluster study"))
            if telemetry_dir is not None:
                out.append(f"telemetry run exported to {telemetry_dir}")
                if args.trace:
                    out.append(
                        f"causal traces collected: repro trace {telemetry_dir}"
                    )
                if args.health:
                    out.append(
                        f"health graded: repro health {telemetry_dir}"
                    )
    elif args.command == "inspect":
        from .telemetry import inspect_report

        out.append(inspect_report(args.run_dir).rstrip())
    elif args.command == "health":
        from .health import health_report

        out.append(health_report(args.run_dir).rstrip())
    elif args.command == "watch":
        from .health import watch

        watch(args.run_dir, once=args.once, interval=args.interval)
        print()
        return 0
    elif args.command == "trace":
        from .tracing import export_perfetto, trace_report

        out.append(
            trace_report(args.run_dir, top=args.top,
                         percentile=args.percentile).rstrip()
        )
        if args.perfetto is not None:
            try:
                slices = export_perfetto(args.run_dir, args.perfetto)
            except FileNotFoundError as exc:
                parser.error(str(exc))
            out.append(f"wrote {slices} trace slices to {args.perfetto}")
    elif args.command == "export-azure":
        from .trace.azure import AzureTraceConfig, generate_dataset
        from .trace.azure_io import write_azure_csvs

        dataset = generate_dataset(
            AzureTraceConfig(
                num_functions=args.functions,
                duration_minutes=args.minutes,
                seed=args.seed,
            )
        )
        path = write_azure_csvs(dataset, args.out)
        out.append(
            f"wrote {dataset.total_invocations()} invocations / "
            f"{len(dataset.counts)} functions to {path}"
        )
    else:  # pragma: no cover - argparse enforces choices
        raise SystemExit(2)

    print("\n\n".join(out))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
