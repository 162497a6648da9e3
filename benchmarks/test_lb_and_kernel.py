"""Load-balancer ablation benchmarks.

Two extension benchmarks beyond the paper's figures:

* CH-BL bound-factor sensitivity — the locality/spillover tradeoff the
  design section argues about;
* the placement-policy comparison under memory pressure.

How fast the simulator pushes invocations through the control plane is
measured by the performance ledger (``benchmarks/ledger``), not here.
"""

from repro.experiments import format_table
from repro.experiments.lb_ablation import run_lb_ablation, run_lb_policy_comparison


def test_chbl_bound_factor_ablation(benchmark, artifact):
    rows = benchmark.pedantic(
        lambda: run_lb_ablation(), rounds=1, iterations=1
    )
    artifact(
        "ablation_chbl_bound",
        format_table(rows, title="CH-BL bound-factor ablation"),
    )
    by_factor = {r["bound_factor"]: r for r in rows}
    # Tighter bounds forward more (weakly monotone).
    assert by_factor[1.0]["forwards"] >= by_factor[2.0]["forwards"]
    # Looser bounds preserve (or improve) locality.
    assert by_factor[2.0]["warm_ratio"] >= by_factor[1.0]["warm_ratio"] - 0.05
    for r in rows:
        assert r["completed"] > 0


def test_lb_policy_comparison(benchmark, artifact):
    rows = benchmark.pedantic(
        lambda: run_lb_policy_comparison(), rounds=1, iterations=1
    )
    artifact(
        "ablation_lb_policies",
        format_table(rows, title="LB policy comparison (locality effect)"),
    )
    by_policy = {r["policy"]: r for r in rows}
    # CH-BL's locality yields a higher warm ratio than round-robin.
    assert by_policy["ch_bl"]["warm_ratio"] > by_policy["round_robin"]["warm_ratio"]
    for r in rows:
        assert r["completed"] > 0
