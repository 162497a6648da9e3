"""Checks of the ledger itself, at ``--size smoke`` (the full-size code paths
on tiny inputs, about a second per workload).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

import json
import shutil
import signal
import subprocess
import sys
from time import perf_counter

import pytest

import run as ledger
from workloads import Metronome, Outcome

SPEC = json.loads(ledger.BENCHMARK.read_text())


def _git_status():
    if shutil.which("git") is None or not (ledger.ROOT / ".git").exists():
        return None
    return subprocess.run(["git", "-C", str(ledger.ROOT), "status", "--porcelain"],
                          capture_output=True, text=True, check=True).stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced and one traced smoke run of every workload."""
    before = _git_status()
    runs = {}
    for trace in ("0", "1"):
        out = tmp_path_factory.mktemp(f"trace{trace}")
        proc = subprocess.run(
            [sys.executable, str(ledger.LEDGER / "run.py"), "--size", "smoke",
             "--seed", "3", "--trace", trace, "--out", str(out)],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        final = json.loads(proc.stdout.strip().splitlines()[-1])
        results = {r["workload"]: r for r in map(json.loads, (
            p.read_text() for p in sorted(out.glob("*.json"))))}
        runs[trace] = (final, results)
    return runs, before, _git_status()


def test_every_listed_metric_appears_with_its_unit(smoke):
    runs, _before, _after = smoke
    for trace, key, listed in (("0", "metrics", SPEC["end_to_end"]),
                               ("1", "per_layer", SPEC["per_layer"])):
        final, results = runs[trace]
        assert final["correct"] is True
        assert final["attempted"] >= 1 and final["failed"] == 0
        assert set(results) == set(ledger.WORKLOAD_NAMES)
        for workload, result in results.items():
            assert result["checks"] == []
            for metric in listed:
                entry = result[key][metric["name"]]
                assert entry["unit"] == metric["unit"], (workload, metric)
                assert entry["value"] == entry["value"]   # not NaN
                got = final["metrics"][f"{workload}.{metric['name']}"]
                assert got == {"value": entry["value"], "unit": metric["unit"]}


def test_traced_run_keeps_simulated_outputs(smoke):
    runs, _before, _after = smoke
    plain, traced = runs["0"][1], runs["1"][1]
    for workload in ledger.WORKLOAD_NAMES:
        assert traced[workload]["sim_digest"] == plain[workload]["sim_digest"]
        for name, entry in plain[workload]["metrics"].items():
            if name.startswith("sim_") and name != "sim_inv_per_s":
                assert traced[workload]["metrics"][name] == entry
    assert plain["azure_push"]["sim_digest"] == plain["azure_sharded"]["sim_digest"]


def test_run_leaves_git_status_unchanged(smoke):
    _runs, before, after = smoke
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before


def test_metronome_counts_work_and_restores_the_timer():
    metronome = Metronome()
    before = signal.getsignal(signal.SIGALRM)
    with metronome.running():
        host0, wall0 = metronome.now()
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
        host1, wall1 = metronome.now()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert metronome.ticks >= 5
    assert 0.2 < wall1 - wall0 < 0.3   # the probes' own time is not work
    assert host1 > host0


@pytest.mark.parametrize("parent,change,better,bound,expected", [
    ([100, 101, 99, 100], [120, 121, 119, 120], "higher", 0.1, "better"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "higher", 0.1, "worse"),
    ([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "lower", 0.1, "worse"),
    ([1.0, 1.01, 0.99], [0.7, 0.71, 0.69], "lower", 0.1, "better"),
    ([100, 101, 99, 100], [100, 102, 98, 101], "higher", 0.1, "unchanged"),
    ([100, 60, 140, 100], [95, 55, 135, 90], "higher", 0.1, "unresolved"),
    ([90, 100, 110], [200, 190, 210], "higher", 0.1, "better"),
    ([5.0, 5.0, 5.0], [5.0, 5.0, 5.0], "lower", 0.0, "unchanged"),
])
def test_compare_verdicts(parent, change, better, bound, expected):
    assert ledger.verdict(parent, change, better, bound) == expected


def _record(workload, seed, digest, failed=0):
    metrics = {m["name"]: {"value": 10.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    return {"workload": workload, "sim_digest": digest, "metrics": metrics,
            "failed": failed, "correct": not failed, "checks": [],
            "provenance": {"seed": seed, "size": "smoke"}}


def _write(directory, records):
    directory.mkdir()
    for r in records:
        seed = r["provenance"]["seed"]
        (directory / f"{r['workload']}-{seed}.json").write_text(json.dumps(r))
    return directory


def test_compare_flags_changed_digests_failed_runs_and_unmatched_seeds(tmp_path, capsys):
    parent = _write(tmp_path / "parent", [_record("a", s, "x") for s in (1, 2, 3)])
    same = _write(tmp_path / "same", [_record("a", s, "x") for s in (1, 2, 3)])
    changed = _write(tmp_path / "changed",
                     [_record("a", s, "y" if s == 2 else "x") for s in (1, 2, 3)])
    failing = _write(tmp_path / "failing",
                     [_record("a", s, "x", failed=int(s == 3)) for s in (1, 2, 3)])
    other_seeds = _write(tmp_path / "other", [_record("a", s, "x") for s in (1, 2, 4)])
    assert ledger.compare(parent, same) == 0
    assert ledger.compare(parent, changed) == 1
    assert "SIM_DIGEST CHANGED: a seed=2" in capsys.readouterr().out
    assert ledger.compare(parent, failing) == 1
    assert "FAILED RUN:" in capsys.readouterr().out
    assert ledger.compare(parent, other_seeds) == 2
    assert "('a', 3, 'smoke')" in capsys.readouterr().err


@pytest.mark.parametrize("outcome,message", [
    (Outcome(attempted=2, rows=[(0, False, True, False, 1.0, 0.1),
                                (1, False, True, True, 2.0, 1.0)]), None),
    (Outcome(attempted=2, rows=[(0, False, True, False, 1.0, 0.1),
                                (1, True, True, False, 0.0, 0.0)]), "failed: 1 of 2"),
    (Outcome(attempted=3, rows=[(0, False, True, False, 1.0, 0.1),
                                (1, False, True, True, 2.0, 1.0)]), "conservation"),
    (Outcome(attempted=2, rows=[(0, False, True, False, 1.0, 0.1),
                                (1, False, False, False, 0.0, 0.0)]), "conservation"),
    (Outcome(attempted=10, cells=[("rare", "TTL", 2.0, 10, 4, 6, 0, 0, 1.0, 5.0)]), None),
    (Outcome(attempted=10, cells=[("rare", "TTL", 2.0, 10, 4, 5, 0, 0, 1.0, 5.0)]),
     "conservation: keep-alive cell rare/TTL/2GB"),
])
def test_doctored_outcomes_fail_the_checks(outcome, message):
    _sim, failures, _attempted, failed = ledger.summarize(outcome)
    if message is None:
        assert failures == [] and failed == 0
    else:
        assert any(f.startswith(message) for f in failures), failures
        assert outcome.rows is None or failed > 0
