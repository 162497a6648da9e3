"""Pin the fast keep-alive simulator to the captured golden grid.

``tests/data/keepalive_golden.json`` (see ``tests/keepalive_golden.py``)
records every ``KeepAliveResult`` field for SMALL's three standard
samples x six policies x {2, 40} GB.  A replay must reproduce every value
exactly: counts, float totals, preloads, uncacheable colds and the
per-function cold counts.
"""

import json

import pytest

from tests.keepalive_golden import GOLDEN_PATH, run_grid


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def replay():
    return run_grid()


def test_fixture_covers_the_grid(golden):
    assert len(golden) == 3 * 6 * 2
    assert {row["policy"] for row in golden} == {
        "TTL", "LRU", "FREQ", "GD", "LND", "HIST"
    }
    # The fields the ledger does not record are exercised, not all zero.
    assert any(row["preloads"] for row in golden)
    assert any(row["uncacheable"] for row in golden)
    assert all(row["per_function_cold"] for row in golden)


def test_replay_matches_golden_by_value(replay, golden):
    assert len(replay) == len(golden)
    for got, want in zip(replay, golden):
        key = (want["trace"], want["policy"], want["cache_size_mb"])
        assert got == want, key
