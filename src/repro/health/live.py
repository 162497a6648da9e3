"""The live heartbeat file and the ``repro watch`` terminal dashboard.

Long runs append one JSON line per heartbeat interval to ``live.jsonl``
in the run dir — sim time, rolling invocation counts, queue depth, and
the p99 of the latest window, merged over the functions' e2e sketches
(:meth:`~repro.health.HealthCollector.latest_e2e`).  ``repro watch RUN_DIR``
tails that file as a refreshing dashboard; ``--once`` renders a single
frame (the CI-friendly mode).

``live.jsonl`` is the one run-dir artifact *excluded* from the
serial-vs-sharded byte-identity contract: the serial engine heartbeats
from inside the simulation while the sharded coordinator heartbeats at
epoch boundaries, so cadence (not content semantics) differs by design.
Everything derived from the health collector itself stays byte-identical
(``health.json`` / ``slo.jsonl``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Optional, TextIO, Union

__all__ = ["LiveWriter", "read_live", "watch_report", "watch"]

SPARK = "▁▂▃▄▅▆▇█"
SPARK_WIDTH = 32


class LiveWriter:
    """Append-only JSON-lines heartbeat writer (flushed per beat, so a
    concurrent ``repro watch`` always sees whole lines)."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[TextIO] = open(self.path, "w")

    def heartbeat(self, snapshot: dict) -> None:
        if self._fh is None:  # pragma: no cover - defensive
            return
        self._fh.write(json.dumps(snapshot, separators=(",", ":")) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "LiveWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_live(path: Union[str, Path]) -> list[dict]:
    """All complete heartbeats in a live file (a torn final line — the
    writer mid-append — is skipped, not an error)."""
    path = Path(path)
    if not path.exists():
        return []
    beats: list[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                beats.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return beats


def sparkline(values: list, width: int = SPARK_WIDTH) -> str:
    """Unicode block sparkline of the last ``width`` samples."""
    tail = [float(v) for v in values[-width:] if v is not None]
    if not tail:
        return ""
    lo, hi = min(tail), max(tail)
    span = hi - lo
    if span <= 0:
        return SPARK[0] * len(tail)
    top = len(SPARK) - 1
    return "".join(SPARK[int((v - lo) / span * top)] for v in tail)


def _fmt_ms(seconds) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1000.0:.1f}ms"


def watch_report(run_dir: Union[str, Path]) -> tuple[str, bool]:
    """One dashboard frame from a run dir's live file.

    Returns ``(text, done)``; ``done`` is True once the run has appended
    its terminal heartbeat (so the watch loop knows to stop).
    """
    from ..telemetry import RUN_FILES   # deferred: telemetry imports health

    run_dir = Path(run_dir)
    beats = read_live(run_dir / RUN_FILES["live"])
    if not beats:
        return (f"watching {run_dir}\n(no live heartbeats yet — is the run "
                "started with health enabled?)"), False
    last = beats[-1]
    done = bool(last.get("done"))
    engine = last.get("engine", "?")
    lines = [
        f"watching {run_dir}  [{engine}]"
        + ("  — run complete" if done else ""),
        f"  sim time   : {last.get('t', 0.0):,.1f}s"
        f"   heartbeats: {len(beats)}",
    ]
    total = last.get("total")
    if total is not None:
        lines.append(
            f"  invocations: {total:,} total"
            f"  ({last.get('completed', 0):,} completed,"
            f" {last.get('cold', 0):,} cold,"
            f" {last.get('dropped', 0):,} dropped)"
        )
    if "placements" in last:
        lines.append(
            f"  placements : {last['placements']:,}"
            f"   epoch: {last.get('epoch', '-')}"
        )
    if "queue_depth" in last:
        depths = [b.get("queue_depth") for b in beats]
        lines.append(
            f"  queue depth: {last['queue_depth']:g}"
            f"   {sparkline(depths)}"
        )
    if "running" in last:
        lines.append(f"  running    : {last['running']:g}")
    if "e2e_p99" in last:
        p99s = [b.get("e2e_p99") for b in beats]
        lines.append(
            f"  e2e p99    : {_fmt_ms(last['e2e_p99'])}"
            f"   {sparkline(p99s)}"
        )
    return "\n".join(lines), done


def watch(run_dir: Union[str, Path], *, once: bool = False,
          interval: float = 1.0, stream: Optional[TextIO] = None,
          max_frames: Optional[int] = None) -> int:
    """Tail a run dir's live heartbeat as a refreshing dashboard.

    ``once`` renders a single frame and returns; otherwise refreshes
    every ``interval`` wall-clock seconds until the run's terminal
    heartbeat arrives (or ``max_frames`` frames have rendered).  Returns
    the number of frames drawn.
    """
    out = stream if stream is not None else sys.stdout
    frames = 0
    while True:
        text, done = watch_report(run_dir)
        if frames and out.isatty():  # pragma: no cover - interactive only
            out.write("\x1b[2J\x1b[H")
        out.write(text + "\n")
        out.flush()
        frames += 1
        if once or done:
            return frames
        if max_frames is not None and frames >= max_frames:
            return frames
        time.sleep(interval)
