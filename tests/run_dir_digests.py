"""Byte-for-byte pins of two serial run directories.

Two runs, each exported with tracing and health on:

* ``golden`` — the golden scenario (``tests/golden_scenario.py``) on its
  push cluster, so the export merges the front end's placement log;
* ``pull``   — the same functions and arrivals on a ``pull_local``
  cluster, which has no placement log: trace trees root at ``admit``.

Push clusters number invocations by placement ordinal and pull clusters
by claim ordinal, so both runs reproduce their ids in any process.
:func:`run_digests` returns the sha256 of every exported file except
``manifest.json`` (it records the package version).  The digests were
pinned while run dirs held one ``traces.jsonl`` line per trace event and
a ``spans.jsonl``; those two are rebuilt from the timeline rows
(``tests/legacy_run_files.py``) and hashed.  The timeline file itself is
hashed as written too, under ``schema2/traces.jsonl``: the rebuilds parse
it, so only this digest sees a writer that changes float formatting, key
order or escaping but parses the same.

:func:`report_digests` pins the text ``repro trace --top 5 --percentile
99`` and ``repro inspect`` print, and the file ``repro trace --perfetto``
writes, for ``golden``, ``pull`` and ``sharded`` (the golden scenario on
1 coordinator and 2 shards, traced and health-graded).  Before hashing
the texts, the run-dir path becomes ``<run-dir>`` and the manifest
line's ``version`` and ``cpu_count``, which name the package build and
the host, become ``<version>`` and ``<cpu_count>``; the Perfetto file is
hashed as written.

``tests/data/run_dir_digests.json`` holds the digests (the reports under
``"reports"``), and ``tests/test_run_dir_digests.py`` compares against
them.

Regenerate the fixture with ``PYTHONPATH=src python -m
tests.run_dir_digests`` — only when an export is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import re
import tempfile
from pathlib import Path

from tests.legacy_run_files import legacy_spans_jsonl, legacy_traces_jsonl

DIGESTS_PATH = Path(__file__).parent / "data" / "run_dir_digests.json"
RUNS = ("golden", "pull")
REPORT_RUNS = (*RUNS, "sharded")


def _config():
    from repro.telemetry import TelemetryConfig

    return TelemetryConfig(interval=1.0, sample_energy=True, trace=True,
                           health=True)


def _golden_export(run_dir) -> None:
    from tests.golden_scenario import run_scenario

    _, telemetry = run_scenario(_config(), return_telemetry=True)
    telemetry.export(run_dir)


def pull_run(config=None):
    """The pull scenario, replayed with telemetry attached (``config``,
    or the pinned runs' config); returns the stopped :class:`Telemetry`."""
    from repro.core.config import WorkerConfig
    from repro.loadbalancer.cluster import Cluster
    from repro.sim.core import Environment
    from repro.telemetry import Telemetry
    from tests.golden_scenario import ARRIVALS, FUNCTIONS

    env = Environment()
    cluster = Cluster(env, num_workers=3, lb_policy="pull_local",
                      config=WorkerConfig(cores=2, memory_mb=4096, seed=13,
                                          backend="containerd"))
    telemetry = Telemetry(env, config or _config())
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
    return telemetry


def _pull_export(run_dir) -> None:
    pull_run().export(run_dir)


def _sharded_export(run_dir) -> None:
    from tests.test_cluster_shard import sharded_golden

    sharded_golden(2, telemetry_config=_config()).telemetry.export(run_dir)


def _export(run: str, run_dir: str) -> None:
    {"golden": _golden_export, "pull": _pull_export,
     "sharded": _sharded_export}[run](run_dir)


def file_digests(run_dir) -> dict[str, str]:
    """sha256 of every file in ``run_dir`` except ``manifest.json``, with
    ``traces.jsonl`` and ``spans.jsonl`` in their pre-timeline form and
    the timeline bytes as ``schema2/traces.jsonl``."""
    blobs = {
        path.name: path.read_bytes()
        for path in Path(run_dir).iterdir() if path.name != "manifest.json"
    }
    blobs["schema2/traces.jsonl"] = blobs["traces.jsonl"]
    blobs["traces.jsonl"] = legacy_traces_jsonl(run_dir)
    blobs["spans.jsonl"] = legacy_spans_jsonl(run_dir)
    return {name: hashlib.sha256(blobs[name]).hexdigest()
            for name in sorted(blobs)}


def run_digests(run: str) -> dict[str, str]:
    """Export ``run``; its file digests."""
    with tempfile.TemporaryDirectory(prefix="repro-digest-") as tmp:
        _export(run, tmp)
        return file_digests(tmp)


def report_texts(run_dir) -> dict[str, str]:
    """The ``trace`` and ``inspect`` reports of ``run_dir``, with the
    run-dir path and the manifest's host-specific values replaced."""
    from repro.telemetry import inspect_report
    from repro.tracing import trace_report

    texts = {"inspect": inspect_report(run_dir),
             "trace": trace_report(run_dir, top=5, percentile=99)}
    return {
        name: re.sub(r"\b(version|cpu_count)=\S+", r"\1=<\1>",
                     text.replace(str(run_dir), "<run-dir>"))
        for name, text in texts.items()
    }


def report_digests(run: str) -> dict[str, str]:
    """Export ``run``; the digests of its :func:`report_texts` and of its
    Perfetto export."""
    from repro.tracing import export_perfetto

    with tempfile.TemporaryDirectory(prefix="repro-digest-") as tmp:
        _export(run, tmp)
        digests = {name: hashlib.sha256(text.encode()).hexdigest()
                   for name, text in report_texts(tmp).items()}
        out = Path(tmp) / "perfetto.json"
        export_perfetto(tmp, out)
        digests["perfetto"] = hashlib.sha256(out.read_bytes()).hexdigest()
        return digests


if __name__ == "__main__":  # pragma: no cover - fixture (re)generation
    fixture = {run: run_digests(run) for run in RUNS}
    fixture["reports"] = {run: report_digests(run) for run in REPORT_RUNS}
    DIGESTS_PATH.write_text(json.dumps(fixture, indent=2) + "\n")
    print(f"wrote {DIGESTS_PATH}")
