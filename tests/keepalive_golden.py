"""The keep-alive golden grid: every ``KeepAliveResult`` field pinned.

SMALL's three standard trace samples x the six paper policies x
{2, 40} GB, replayed through the fast keep-alive simulator.
:func:`run_grid` reduces each replay to a JSON-stable dict holding every
field of :class:`~repro.keepalive.simulator.KeepAliveResult`, including
``preloads``, ``uncacheable`` and ``per_function_cold``, which the
ledger's ``keepalive_sweep`` cells do not record.

``tests/data/keepalive_golden.json`` holds the grid captured before the
HIST histogram and the cache lookup were made incremental;
``tests/test_keepalive_golden.py`` replays it and compares by value.
Regenerate (only for an intended change of simulated outcomes) with::

    PYTHONPATH=src:. python tests/keepalive_golden.py
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from repro.experiments import SMALL, make_traces
from repro.keepalive.policies import POLICY_NAMES
from repro.keepalive.simulator import KeepAliveResult, simulate

GOLDEN_PATH = Path(__file__).parent / "data" / "keepalive_golden.json"
CACHE_SIZES_GB = (2.0, 40.0)


def reduce_result(result: KeepAliveResult) -> dict:
    """Every dataclass field; JSON round-trips Python floats exactly."""
    out = {f.name: getattr(result, f.name) for f in fields(result)}
    out["per_function_cold"] = dict(sorted(result.per_function_cold.items()))
    return out


def run_grid() -> list[dict]:
    traces = make_traces(SMALL)
    grid = []
    for trace_name, trace in traces.items():
        for policy in POLICY_NAMES:
            for size_gb in CACHE_SIZES_GB:
                result = simulate(trace, policy, size_gb * 1024.0)
                grid.append({"trace": trace_name, **reduce_result(result)})
    return grid


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(run_grid(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
