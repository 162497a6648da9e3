"""Experiment harnesses: one module per paper table/figure plus ablations."""

from .cluster_study import ClusterStudyResult, run_cluster_lb_sweep, run_cluster_study
from .defaults import FULL, MEDIUM, SMALL, Scale
from .fig1_overhead_scaling import Fig1Row, fig1_rows, run_fig1
from .fig6_litmus import LITMUS_WORKLOADS, fig6_rows, run_litmus
from .fig7_faasbench import fig7_rows, run_faasbench, warm_hit_ratios
from .fig8_dynamic import DynamicSizingOutcome, run_fig8
from .keepalive_sweep import fig4_rows, fig5_rows, make_traces, run_keepalive_sweep
from .lb_ablation import (
    DISPATCH_RACE_SCENARIOS,
    run_dispatch_race,
    run_lb_ablation,
    run_lb_policy_comparison,
)
from .queue_ablation import (
    run_bypass_ablation,
    run_coldpath_ablation,
    run_queue_policy_ablation,
    run_regulator_ablation,
)
from .report import format_table, print_table
from .table2_breakdown import PAPER_TABLE2_MS, run_table2
from .tables import PAPER_TABLE3, appendix_timeseries, table3_rows, table4_rows

__all__ = [
    "ClusterStudyResult",
    "run_cluster_study",
    "run_cluster_lb_sweep",
    "FULL",
    "MEDIUM",
    "SMALL",
    "Scale",
    "Fig1Row",
    "fig1_rows",
    "run_fig1",
    "LITMUS_WORKLOADS",
    "fig6_rows",
    "run_litmus",
    "fig7_rows",
    "run_faasbench",
    "warm_hit_ratios",
    "DynamicSizingOutcome",
    "run_fig8",
    "fig4_rows",
    "fig5_rows",
    "make_traces",
    "run_keepalive_sweep",
    "DISPATCH_RACE_SCENARIOS",
    "run_dispatch_race",
    "run_lb_ablation",
    "run_lb_policy_comparison",
    "run_bypass_ablation",
    "run_coldpath_ablation",
    "run_queue_policy_ablation",
    "run_regulator_ablation",
    "format_table",
    "print_table",
    "PAPER_TABLE2_MS",
    "run_table2",
    "PAPER_TABLE3",
    "appendix_timeseries",
    "table3_rows",
    "table4_rows",
]
