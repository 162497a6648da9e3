"""Unit tests for the process-pool sweep runner (`repro.parallel`)."""

import os
import time

import pytest

from repro.parallel import (
    effective_jobs,
    last_run_info,
    resolve_jobs,
    run_parallel,
)

# Task functions must be top-level so pool workers can import them.  They
# take the shared payload as their first argument only when one is given.


def _identity(x):
    return x


def _with_shared(shared, key):
    return (shared[key], os.getpid())


def _scaled(shared, x):
    return shared * x


def _boom(x):
    if x == 3:
        raise ValueError("cell 3 exploded")
    return x


def _reverse_sleeper(index, count):
    # Later-submitted cells finish first: exposes completion-order leaks.
    time.sleep(0.02 * (count - index))
    return index


# -- resolve_jobs ---------------------------------------------------------


def test_resolve_jobs_defaults_to_serial(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None) == 5


def test_resolve_jobs_explicit_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_zero_means_all_cores(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    cores = os.cpu_count() or 1
    assert resolve_jobs(0) == cores
    assert resolve_jobs(-1) == cores


def test_resolve_jobs_rejects_garbage_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError):
        resolve_jobs(None)


def test_effective_jobs_capped_by_tasks():
    assert effective_jobs(8, 3) == 3
    assert effective_jobs(2, 100) == 2
    assert effective_jobs(4, 0) == 1


# -- run_parallel ---------------------------------------------------------


def test_serial_path_runs_in_process():
    pid_results = run_parallel(_with_shared, [("a",), ("b",)], n_jobs=1,
                               shared={"a": 1, "b": 2})
    assert [v for v, _ in pid_results] == [1, 2]
    assert all(pid == os.getpid() for _, pid in pid_results)


def test_parallel_matches_serial():
    tasks = [(i,) for i in range(20)]
    assert run_parallel(_identity, tasks, n_jobs=2) == \
        run_parallel(_identity, tasks, n_jobs=1)


def test_results_in_submission_order_despite_completion_order():
    count = 6
    tasks = [(i, count) for i in range(count)]
    out = run_parallel(_reverse_sleeper, tasks, n_jobs=2, chunksize=1)
    assert out == list(range(count))


def test_shared_payload_reaches_workers():
    out = run_parallel(_scaled, [(x,) for x in range(8)], n_jobs=2, shared=10)
    assert out == [10 * x for x in range(8)]


def test_empty_task_list():
    assert run_parallel(_identity, [], n_jobs=4) == []


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_task_exception_propagates(n_jobs):
    with pytest.raises(ValueError, match="cell 3 exploded"):
        run_parallel(_boom, [(i,) for i in range(6)], n_jobs=n_jobs)


def test_pool_failure_falls_back_to_serial():
    tasks = [(i,) for i in range(4)]
    with pytest.warns(RuntimeWarning, match="running serially"):
        out = run_parallel(_identity, tasks, n_jobs=2,
                           start_method="no-such-start-method")
    assert out == [0, 1, 2, 3]


def test_repro_jobs_env_drives_pool(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    out = run_parallel(_with_shared, [("k",)] * 4, shared={"k": 7})
    assert [v for v, _ in out] == [7, 7, 7, 7]


def test_last_run_info_records_serial_path():
    run_parallel(_identity, [(1,), (2,)], n_jobs=1)
    info = last_run_info()
    assert info["pool_used"] is False
    assert info["fallback_reason"] == "single worker requested"
    assert info["jobs"] == 1 and info["tasks"] == 2
    assert info["cpu_count"] == (os.cpu_count() or 1)


def test_last_run_info_records_fallback_reason():
    with pytest.warns(RuntimeWarning):
        run_parallel(_identity, [(i,) for i in range(4)], n_jobs=2,
                     start_method="no-such-start-method")
    info = last_run_info()
    assert info["pool_used"] is False
    assert "no-such-start-method" in info["fallback_reason"]


def test_last_run_info_reflects_pool_runs():
    # A real pool run (pool_used=True, no reason) when this machine can
    # start one; an honest fallback record when it cannot.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run_parallel(_identity, [(i,) for i in range(4)], n_jobs=2)
    info = last_run_info()
    if info["pool_used"]:
        assert info["fallback_reason"] is None
    else:
        assert info["fallback_reason"]
    assert info["jobs"] == 2 and info["tasks"] == 4
