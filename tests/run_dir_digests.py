"""Byte-for-byte pins of two serial run directories.

Two runs, each exported with tracing and health on:

* ``golden`` — the golden scenario (``tests/golden_scenario.py``) on its
  push cluster, so the export merges the front end's placement log;
* ``pull``   — the same functions and arrivals on a ``pull_local``
  cluster, which has no placement log: trace trees root at ``admit``.

Pull clusters number invocations from the process-global counter in
``core.function``, so each run executes in a fresh ``spawn`` process
where that counter starts at 1.  :func:`run_digests` returns the sha256
of every exported file except ``manifest.json`` (it records the package
version); ``tests/data/run_dir_digests.json`` holds the digests, and
``tests/test_run_dir_digests.py`` compares against them.

Regenerate the fixture with ``PYTHONPATH=src python -m
tests.run_dir_digests`` — only when an export is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import tempfile
from pathlib import Path

DIGESTS_PATH = Path(__file__).parent / "data" / "run_dir_digests.json"
RUNS = ("golden", "pull")


def _config():
    from repro.telemetry import TelemetryConfig

    return TelemetryConfig(interval=1.0, sample_energy=True, trace=True,
                           health=True)


def _golden_export(run_dir) -> None:
    from tests.golden_scenario import run_scenario

    _, telemetry = run_scenario(_config(), return_telemetry=True)
    telemetry.export(run_dir)


def _pull_export(run_dir) -> None:
    from repro.core.config import WorkerConfig
    from repro.loadbalancer.cluster import Cluster
    from repro.sim.core import Environment
    from repro.telemetry import Telemetry
    from tests.golden_scenario import ARRIVALS, FUNCTIONS

    env = Environment()
    cluster = Cluster(env, num_workers=3, lb_policy="pull_local",
                      config=WorkerConfig(cores=2, memory_mb=4096, seed=13,
                                          backend="containerd"))
    telemetry = Telemetry(env, _config())
    cluster.attach_telemetry(telemetry)
    telemetry.start()
    cluster.start()
    for reg in FUNCTIONS:
        cluster.register_sync(reg)

    def submit(at, fqdn):
        yield env.timeout(at)
        yield from cluster.invoke(fqdn)

    for at, idx in ARRIVALS:
        env.process(submit(at, FUNCTIONS[idx].fqdn()), name=f"sub-{at}")
    env.run(until=120.0)
    cluster.stop()
    telemetry.stop()
    telemetry.export(run_dir)


def _export(run: str, run_dir: str) -> None:
    {"golden": _golden_export, "pull": _pull_export}[run](run_dir)


def file_digests(run_dir) -> dict[str, str]:
    """sha256 of every file in ``run_dir`` except ``manifest.json``."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(run_dir).iterdir())
        if path.name != "manifest.json"
    }


def run_digests(run: str) -> dict[str, str]:
    """Export ``run`` in a fresh ``spawn`` process; its file digests."""
    with tempfile.TemporaryDirectory(prefix="repro-digest-") as tmp:
        proc = mp.get_context("spawn").Process(target=_export, args=(run, tmp))
        proc.start()
        proc.join()
        if proc.exitcode != 0:
            raise RuntimeError(f"{run} export exited with {proc.exitcode}")
        return file_digests(tmp)


if __name__ == "__main__":  # pragma: no cover - fixture (re)generation
    DIGESTS_PATH.write_text(json.dumps(
        {run: run_digests(run) for run in RUNS}, indent=2) + "\n")
    print(f"wrote {DIGESTS_PATH}")
