"""Figure 6 benchmark: FaasCache vs OpenWhisk on skewed workloads."""

from repro.experiments import format_table, run_litmus


def test_fig6_litmus_tests(benchmark, scale, artifact):
    results = benchmark.pedantic(
        lambda: run_litmus(scale), rounds=1, iterations=1
    )
    rows = [r.as_dict() for r in results]
    artifact(
        "fig6_litmus",
        format_table(rows, title="Figure 6 — warm/cold/dropped per system"),
    )

    by_key = {(r.workload, r.system): r for r in results}
    # Aggregate direction across the litmus suite: FaasCache serves more
    # and sheds less (paper: 50-100% more warm+cold, ~2x total served).
    fc_served = sum(r.served for r in results if r.system == "faascache")
    ow_served = sum(r.served for r in results if r.system == "openwhisk")
    fc_dropped = sum(r.dropped for r in results if r.system == "faascache")
    ow_dropped = sum(r.dropped for r in results if r.system == "openwhisk")
    assert fc_served > ow_served
    assert fc_dropped < ow_dropped

    # Each workload individually shows the win (EXPERIMENTS.md, Fig 6).
    for workload in sorted({r.workload for r in results}):
        fc = by_key[(workload, "faascache")]
        ow = by_key[(workload, "openwhisk")]
        assert fc.warm >= ow.warm, workload
        assert fc.served >= ow.served, workload
        assert fc.dropped <= ow.dropped, workload
