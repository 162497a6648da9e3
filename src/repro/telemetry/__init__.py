"""Opt-in observability for the simulated control plane.

The paper's worker is self-monitoring (Section 5.1): it traces every
component with spans, keeps its own metrics, and publishes periodic
status.  This package reproduces that stack for the simulator —

* :class:`TelemetrySampler` — a DES process snapshotting per-worker
  gauges (queue depth, containers, memory, cores, energy) on a simulated
  -time grid into columnar :class:`Timeseries`;
* latency :mod:`~repro.telemetry.distributions` — sketches derived at
  export from the run's merged invocation records;
* the overhead :mod:`~repro.telemetry.decomposition`, read off the
  retained lifecycle contexts' timeline rows — the per-phase
  critical-path breakdown behind the paper's Table 2;
* the run-directory exporter (:mod:`~repro.telemetry.export`) — the
  one writer of a run dir: it merges per-worker-set
  :class:`TelemetryPart` streams (one for a serial run, one per shard
  for a sharded one) with the placement log;
* :mod:`~repro.telemetry.exporters` + ``repro inspect`` — JSONL/CSV/
  Prometheus artifacts and the CLI that reads them back.

Everything is opt-in: experiments pass ``--telemetry DIR`` (or set the
``REPRO_TELEMETRY`` environment variable) to construct a
:class:`Telemetry` object; without one, none of this code runs and the
control plane's behavior and timing are bit-identical.
"""

from .decomposition import (
    EXEC_SPAN,
    PHASE_OF_SPAN,
    PHASES,
    InvocationBreakdown,
    PhaseColumns,
    aggregate_phases,
    breakdown_rows,
    decompose_contexts,
    decompose_rows,
    match_records,
)
from .distributions import (
    LATENCY_HISTOGRAMS,
    Distribution,
    RecordFold,
    latency_distributions,
)
from .exporters import (
    dump_timeseries_csv,
    dump_timeseries_jsonl,
    escape_label_value,
    render_health_prometheus,
    render_prometheus,
    write_health_prometheus,
    write_prometheus,
)
from .export import (
    RUN_FILES,
    MergedTelemetry,
    TelemetryPart,
    build_manifest,
    build_summary,
)
from .runs import Telemetry, inspect_report, load_run, read_run_file
from .sampler import (
    ENERGY_COLUMNS,
    WORKER_COLUMNS,
    TelemetryConfig,
    TelemetrySampler,
    Timeseries,
)

__all__ = [
    "EXEC_SPAN",
    "PHASES",
    "PHASE_OF_SPAN",
    "InvocationBreakdown",
    "PhaseColumns",
    "aggregate_phases",
    "breakdown_rows",
    "decompose_contexts",
    "decompose_rows",
    "match_records",
    "LATENCY_HISTOGRAMS",
    "Distribution",
    "RecordFold",
    "latency_distributions",
    "dump_timeseries_csv",
    "dump_timeseries_jsonl",
    "escape_label_value",
    "render_health_prometheus",
    "render_prometheus",
    "write_health_prometheus",
    "write_prometheus",
    "RUN_FILES",
    "MergedTelemetry",
    "Telemetry",
    "TelemetryPart",
    "build_manifest",
    "build_summary",
    "inspect_report",
    "load_run",
    "read_run_file",
    "ENERGY_COLUMNS",
    "WORKER_COLUMNS",
    "TelemetryConfig",
    "TelemetrySampler",
    "Timeseries",
    "TELEMETRY_ENV_VAR",
]

# Environment-variable fallback for the CLI's --telemetry flag.
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"
