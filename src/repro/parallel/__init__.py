"""Parallel experiment execution.

Every paper artifact in this repo is a sweep over *embarrassingly
independent* simulation cells (trace x policy x cache size, workload x
system x seed, ...).  This package fans those cells out over a process
pool while keeping the results bit-identical to a serial run:

* each sweep hands :func:`run_parallel` its own **top-level** row
  function (spawn-safe, pickled by reference) and one argument tuple
  per cell;
* large shared inputs (the NumPy-backed traces) are pickled **once per
  worker** through the pool initializer and passed as the row
  function's first argument, never once per task;
* results are keyed by task index, so output order is the submission
  order regardless of completion order;
* ``n_jobs=1`` (the default) runs in-process with zero pool overhead,
  and any pool start-up failure falls back to the same serial path.

The ``n_jobs`` knob threads through every experiment runner, the
``--jobs`` CLI flag, and the ``REPRO_JOBS`` environment variable.  The
pool imports no experiment: the experiments import it.
"""

from .pool import (
    ParallelUnavailable,
    effective_jobs,
    last_run_info,
    resolve_count,
    resolve_jobs,
    run_parallel,
)

__all__ = [
    "ParallelUnavailable",
    "effective_jobs",
    "last_run_info",
    "resolve_count",
    "resolve_jobs",
    "run_parallel",
]
