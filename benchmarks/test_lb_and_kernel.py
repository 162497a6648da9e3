"""Load-balancer ablation benchmarks.

Three extension benchmarks beyond the paper's figures:

* CH-BL bound-factor sensitivity — the locality/spillover tradeoff the
  design section argues about;
* the placement-policy comparison under memory pressure;
* the dispatch race: push CH-BL against the pull policies.

How fast the simulator pushes invocations through the control plane is
measured by the performance ledger (``benchmarks/ledger``), not here.
"""

from repro.experiments import format_table
from repro.experiments.lb_ablation import (
    run_dispatch_race,
    run_lb_ablation,
    run_lb_policy_comparison,
)


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


def test_dispatch_race(benchmark, artifact):
    rows = benchmark.pedantic(
        lambda: run_dispatch_race(), rounds=1, iterations=1
    )
    artifact(
        "ablation_dispatch_race",
        format_table(rows, title="Dispatch race (push CH-BL vs pull)"),
    )
    by_cell = {(r["scenario"], r["policy"]): r for r in rows}
    scenarios = sorted({r["scenario"] for r in rows})
    for scenario in scenarios:
        # Every cell of a scenario replays the identical plan.
        completed = {by_cell[scenario, p]["completed"]
                     for p in ("ch_bl", "pull", "pull_local")}
        assert len(completed) == 1, (scenario, completed)
        # FIFO pull destroys locality; locality-aware pull keeps more.
        assert (by_cell[scenario, "pull"]["warm_ratio"]
                < by_cell[scenario, "pull_local"]["warm_ratio"]), scenario
    # Heterogeneous workers: pull claims in proportion to drain rate,
    # which CH-BL's name hashing cannot see.
    assert (by_cell["heterogeneous", "pull_local"]["e2e_p99_ms"]
            < by_cell["heterogeneous", "ch_bl"]["e2e_p99_ms"])
