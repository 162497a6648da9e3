"""Process-pool sweep runner.

``run_parallel`` executes one top-level row function over a list of
argument tuples: ``func(*args)`` per task, or ``func(shared, *args)``
when a ``shared`` payload is given.  The contract that keeps parallel
runs interchangeable with serial ones:

* **Determinism** — results are keyed by task index and returned in
  submission order; completion order never leaks into the output.
* **Pickle-once shipping** — the ``shared`` payload (typically the dict
  of NumPy-backed traces) is serialized a single time in the parent and
  rehydrated once per worker by the pool initializer, which binds it as
  the function's first argument, so per-task messages carry only small
  argument tuples.
* **Graceful fallback** — ``n_jobs=1`` (or a pool that cannot start:
  missing semaphores, sandboxed /dev/shm, restricted fork) runs the
  exact same function in-process.

Row functions must be importable top-level callables
(``module.function``), so they survive both ``fork`` and ``spawn``
start methods.  :func:`resolve_count` is the one rule for a process
count (``--jobs``/``REPRO_JOBS`` here, ``--shards``/``REPRO_SHARDS`` in
the cluster-shard engine).
"""

from __future__ import annotations

import os
import pickle
import warnings
from functools import partial
from typing import Any, Callable, Optional, Sequence

__all__ = [
    "ParallelUnavailable",
    "resolve_count",
    "resolve_jobs",
    "effective_jobs",
    "run_parallel",
    "last_run_info",
]


class ParallelUnavailable(RuntimeError):
    """Raised internally when a process pool cannot be started."""


# Per-worker row function installed by the pool initializer, with the
# shared payload bound as its first argument when there is one.
_WORKER_FUNC: Optional[Callable] = None

# How the most recent run_parallel call actually executed.  Benchmarks
# record this next to their timings: a "parallel" number measured on the
# serial fallback path (sandboxed /dev/shm, missing semaphores) is
# indistinguishable from a real pool run by wall clock alone.
_LAST_RUN: dict = {
    "pool_used": False,
    "jobs": 0,
    "tasks": 0,
    "cpu_count": os.cpu_count() or 1,
    "fallback_reason": None,
}


def last_run_info() -> dict:
    """How the most recent :func:`run_parallel` call executed.

    ``pool_used`` is True only when a process pool genuinely ran the
    tasks; otherwise ``fallback_reason`` says why execution was serial
    (single worker requested, no tasks, or the ``ParallelUnavailable``
    message).  ``cpu_count`` rides along so recorded speedups can be
    judged against the machine they were measured on.
    """
    return dict(_LAST_RUN)


def _note_run(jobs: int, tasks: int, pool_used: bool,
              fallback_reason: Optional[str]) -> None:
    _LAST_RUN.update(
        jobs=jobs,
        tasks=tasks,
        pool_used=pool_used,
        cpu_count=os.cpu_count() or 1,
        fallback_reason=fallback_reason,
    )


def resolve_count(value: Optional[int], env_var: str) -> int:
    """Resolve a process count: explicit ``value`` > the ``env_var``
    environment variable > 1.

    ``0`` or a negative value (either source) means "all cores"; a
    non-integer environment value raises a ``ValueError`` naming
    ``env_var``.
    """
    if value is None:
        raw = os.environ.get(env_var, "").strip()
        if not raw:
            return 1
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{env_var} must be an integer, got {raw!r}"
            ) from None
    value = int(value)
    if value <= 0:
        return max(os.cpu_count() or 1, 1)
    return value


def resolve_jobs(n_jobs: Optional[int] = None) -> int:
    """Resolve the worker count: explicit arg > ``REPRO_JOBS`` env > 1
    (see :func:`resolve_count`)."""
    return resolve_count(n_jobs, "REPRO_JOBS")


def effective_jobs(n_jobs: Optional[int], num_tasks: int) -> int:
    """Workers actually worth starting: never more than there are tasks."""
    return max(1, min(resolve_jobs(n_jobs), num_tasks))


def _bind(func: Callable, shared: Any) -> Callable:
    """``func`` with the shared payload, if any, as its first argument."""
    return func if shared is None else partial(func, shared)


def _init_worker(func: Callable, payload: Optional[bytes]) -> None:
    """Pool initializer: rehydrate the shared payload once per worker."""
    global _WORKER_FUNC
    _WORKER_FUNC = _bind(func, None if payload is None else pickle.loads(payload))


def _run_cell(item: tuple) -> tuple:
    """Execute one task in a worker; results ride home with their index."""
    index, args = item
    return index, _WORKER_FUNC(*args)


def _default_chunksize(num_tasks: int, jobs: int) -> int:
    """~4 chunks per worker: amortize IPC without starving the tail."""
    return max(1, num_tasks // (jobs * 4))


def _run_serial(func: Callable, tasks: Sequence[tuple], shared: Any) -> list:
    call = _bind(func, shared)
    return [call(*args) for args in tasks]


def run_parallel(
    func: Callable,
    tasks: Sequence[tuple],
    n_jobs: Optional[int] = None,
    shared: Any = None,
    chunksize: Optional[int] = None,
    start_method: Optional[str] = None,
) -> list:
    """Run ``func(*args)`` for every args-tuple in ``tasks``, or
    ``func(shared, *args)`` when ``shared`` is not None.

    Returns the results in task order.  ``n_jobs`` resolves through
    :func:`resolve_jobs`; with one worker (the default) everything runs
    in-process.  ``start_method`` overrides the multiprocessing context
    (``REPRO_MP_START`` env var is the ambient override).
    """
    tasks = [tuple(args) for args in tasks]
    jobs = effective_jobs(n_jobs, len(tasks))
    if jobs <= 1 or not tasks:
        _note_run(jobs, len(tasks), pool_used=False,
                  fallback_reason="no tasks" if not tasks
                  else "single worker requested")
        return _run_serial(func, tasks, shared)

    try:
        result = _run_pool(func, tasks, jobs, shared, chunksize, start_method)
    except ParallelUnavailable as exc:
        warnings.warn(
            f"process pool unavailable ({exc}); running serially",
            RuntimeWarning,
            stacklevel=2,
        )
        _note_run(jobs, len(tasks), pool_used=False, fallback_reason=str(exc))
        return _run_serial(func, tasks, shared)
    _note_run(jobs, len(tasks), pool_used=True, fallback_reason=None)
    return result


def _run_pool(
    func: Callable,
    tasks: list,
    jobs: int,
    shared: Any,
    chunksize: Optional[int],
    start_method: Optional[str],
) -> list:
    import multiprocessing as mp

    method = start_method or os.environ.get("REPRO_MP_START") or None
    try:
        ctx = mp.get_context(method)
        payload = (
            pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL)
            if shared is not None
            else None
        )
        pool = ctx.Pool(
            processes=jobs,
            initializer=_init_worker,
            initargs=(func, payload),
        )
    except (OSError, ValueError, ImportError, AttributeError, pickle.PicklingError) as exc:
        raise ParallelUnavailable(str(exc)) from exc

    size = chunksize if chunksize is not None else _default_chunksize(len(tasks), jobs)
    out: list = [None] * len(tasks)
    try:
        for index, value in pool.imap_unordered(
            _run_cell, list(enumerate(tasks)), chunksize=size
        ):
            out[index] = value
    except BaseException:
        pool.terminate()
        pool.join()
        raise
    pool.close()
    pool.join()
    return out
