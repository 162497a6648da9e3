"""The shard coordinator: the load balancer, run against remote loads.

The coordinator drives the same push placement core as a single-process
:class:`Cluster` — one :class:`~repro.loadbalancer.frontend.PushFrontEnd`
owning the status board, the balancer, the placement counter and the
placement log — but reads the loads its shard processes report, because
the workers live there.  It walks
the invocation plan **epoch by epoch**: sync points (the arrivals where a
single-process balancer would have read worker loads, precomputed by
:func:`~.protocol.sync_indices`) bound each epoch, every arrival inside
an epoch is picked against the loads read at its start, and each shard
receives at most one compact columnar message per epoch — parallel numpy
arrays of arrival indices, timestamps, fqdn codes, and local worker
indices — instead of one tuple per invocation.

The sync request for the next epoch's boundary rides inside the current
epoch's message, so shards simulate (and compute the next loads) while
the coordinator is still slicing the following epoch.  When telemetry is
on, the placement log supplies the ``lb`` entry of each invocation's
timeline row at export.

Conservative-epoch synchronization: between two sync arrivals no load is
read, so every shard holds all the information it needs to simulate up to
the next sync point; the dispatch/forward latency at the seam is the
lookahead that makes the pick→delivery ordering safe (delivery at
``t + rpc_latency`` is strictly after every state the pick depended on).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from time import perf_counter
from typing import Generator, Optional, Sequence

import numpy as np

from ..core.config import WorkerConfig
from ..loadbalancer.cluster import Cluster
from ..loadbalancer.frontend import PushFrontEnd
from .protocol import (
    EPOCH_CHUNK,
    ShardSpec,
    ShardingUnavailable,
    partition_workers,
    plan_epochs,
    sync_indices,
)

__all__ = ["FlightRecorder", "ShardedOutcome", "run_sharded_replay"]


class FlightRecorder:
    """Wall-clock accounting of the coordinator's epoch walk.

    One row per seam chunk: how long the coordinator *stalled* blocked on
    shard load reports, how long it spent picking and sending, how much
    coordinator-side work it *overlapped* with shard simulation (slicing
    the next chunk), and how many payload bytes crossed the seam.
    ``finish`` reduces the rows to totals, including
    ``overlap_efficiency`` — the fraction of coordinator wait-or-work time
    spent working (1.0 = the prefetch pipeline fully hides the seam, 0.0 =
    the coordinator is purely stall-bound).  Opt-in wall-clock telemetry:
    it observes nothing simulated, so recorded runs stay bit-identical.
    """

    __slots__ = ("epochs", "merge_s", "_t0")

    def __init__(self):
        self.epochs: list[dict] = []
        self.merge_s = 0.0
        self._t0 = perf_counter()

    def epoch(self, **row) -> None:
        self.epochs.append(row)

    def finish(self) -> dict:
        rows = self.epochs
        stall = sum(r["stall_s"] for r in rows)
        overlap = sum(r["overlap_s"] for r in rows)
        busy = stall + overlap
        return {
            "totals": {
                "epochs": len(rows),
                "arrivals": sum(r["arrivals"] for r in rows),
                "stall_s": stall,
                "pick_s": sum(r["pick_s"] for r in rows),
                "send_s": sum(r["send_s"] for r in rows),
                "overlap_s": overlap,
                "overlap_efficiency": (overlap / busy) if busy > 0 else 0.0,
                "payload_bytes": sum(r["payload_bytes"] for r in rows),
                "merge_s": self.merge_s,
                "wall_s": perf_counter() - self._t0,
            },
            "epochs": rows,
        }


@dataclass(frozen=True)
class ShardedOutcome:
    """Merged result of a sharded replay (single-process-equivalent)."""

    summaries: list        # (k, dropped, completed, cold, e2e, overhead), by k
    forwards: int
    placements: int
    per_worker_records: dict
    telemetry: Optional[object] = None   # MergedTelemetry when opted in
    seam_log: Optional[list] = None      # (k, pick_t, deliver_t) when collected
    seam_stats: Optional[dict] = None    # epoch/message accounting of the run
    flight_log: Optional[dict] = None    # FlightRecorder.finish() when opted in


def _spawn_shards(ctx, specs):
    """Start one process per spec; on any failure, clean up and signal
    :class:`ShardingUnavailable` so callers can fall back to serial."""
    from .shard import shard_main

    conns, procs = [], []
    try:
        for spec in specs:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=shard_main,
                args=(child_conn, spec),
                daemon=True,
                name=f"repro-shard-{spec.index}",
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
    except (OSError, ValueError, ImportError, AttributeError,
            pickle.PicklingError) as exc:
        for p in procs:
            p.terminate()
        for p in procs:
            p.join()
        raise ShardingUnavailable(str(exc)) from exc
    return conns, procs


def _recv(conn, shard_index):
    """One message off a shard pipe; every failure names the shard."""
    try:
        msg = conn.recv()
    except (EOFError, OSError) as exc:
        raise RuntimeError(f"shard {shard_index} died mid-run: {exc}") from exc
    if msg[0] == "error":
        raise RuntimeError(f"shard {shard_index} failed:\n{msg[1]}")
    return msg


def _send(conn, shard_index, msg):
    """Send to a shard pipe; a broken pipe means the shard died mid-epoch,
    so drain its final message (usually the traceback, re-raised with the
    shard index by :func:`_recv`) instead of surfacing a bare OSError."""
    try:
        conn.send(msg)
    except (BrokenPipeError, OSError) as exc:
        _recv(conn, shard_index)   # raises with the shard's own traceback
        raise RuntimeError(
            f"shard {shard_index} died mid-run: {exc}"
        ) from exc


def _plan_codes(fqdns: Sequence[str]) -> tuple[np.ndarray, tuple]:
    """Factor the plan's fqdn column into ``(codes, vocabulary)``.

    The vocabulary ships to every shard once (in its spec); dispatch
    messages then carry ``int32`` codes instead of repeated strings.
    """
    if not len(fqdns):
        return np.empty(0, dtype=np.int32), ()
    vocab, inverse = np.unique(np.asarray(fqdns, dtype=object),
                               return_inverse=True)
    return inverse.astype(np.int32), tuple(str(f) for f in vocab)


def _chunk_descs(
    segments, timestamps: np.ndarray, chunk: int
) -> Generator[tuple[int, int, Optional[int], Optional[tuple]], None, None]:
    """Lazily yield the seam walk's chunk descriptors.

    Each descriptor is ``(a, b, recv_k, sync_req)``: pick arrivals
    ``[a, b)``, after first receiving the loads answering sync arrival
    ``recv_k`` (``None`` when the picks need no fresh loads), and attach
    ``sync_req = (k, t)`` — the *next* epoch's load request — to the
    outgoing message (``None`` mid-epoch and at the end of the plan).
    Descriptors are generated lazily so a live-load plan (one epoch per
    arrival) never materializes a per-arrival descriptor list.
    """
    if segments and segments[0][0] is not None:
        # The first epoch starts at a sync arrival: prime the pipeline
        # with an empty message carrying only its load request.
        k0 = segments[0][0]
        yield (0, 0, None, (k0, float(timestamps[k0])))
    for idx, (sync_k, a, b) in enumerate(segments):
        next_req = None
        if idx + 1 < len(segments):
            nk = segments[idx + 1][0]
            if nk is not None:
                next_req = (nk, float(timestamps[nk]))
        ca = a
        while ca < b:
            cb = min(ca + chunk, b)
            yield (ca, cb, sync_k if ca == a else None,
                   next_req if cb == b else None)
            ca = cb


def _assemble_seam_log(timestamps, seam_parts) -> list:
    """Merge per-shard seam entries into ``(k, pick_t, deliver_t)`` rows.

    ``seam_parts`` is one iterable of ``(arrival_index, delivery_time)``
    entries per shard; empty shards (no deliveries before the horizon)
    and an empty plan both reduce to an empty log.  A standalone helper
    with its own locals — the arrival index here must never alias the
    dispatch loop's variables (the PR-6 inline version shadowed them).
    """
    deliveries: dict[int, float] = {}
    for part in seam_parts:
        if not part:
            continue
        for arrival, delivered_at in part:
            deliveries[arrival] = delivered_at
    return [
        (arrival, float(timestamps[arrival]), deliveries[arrival])
        for arrival in sorted(deliveries)
    ]


def run_sharded_replay(
    plan,
    *,
    num_workers: int,
    shards: int,
    registrations: Sequence,
    config: Optional[WorkerConfig] = None,
    bound_factor: float = 1.2,
    rpc_latency: float = 0.0005,
    lb_policy: str = "ch_bl",
    status_interval: Optional[float] = None,
    grace: float = 120.0,
    horizon: Optional[float] = None,
    telemetry_config=None,
    collect_seam: bool = False,
    start_method: Optional[str] = None,
    chunk_size: Optional[int] = None,
    flight_recorder: bool = False,
    live_path=None,
) -> ShardedOutcome:
    """Replay an :class:`~repro.loadgen.openloop.InvocationPlan` on a
    sharded cluster; parameters mirror :class:`Cluster` + ``replay_plan``.

    ``chunk_size`` caps the arrivals per seam message (default
    :data:`~.protocol.EPOCH_CHUNK`); epochs that fit send exactly one
    message per shard.  ``flight_recorder`` turns on wall-clock seam
    accounting (:class:`FlightRecorder`): per-epoch stall/pick/send/
    overlap timings and payload bytes, reduced to totals on the returned
    outcome's ``flight_log`` and exported as ``flight.json`` by the
    merged telemetry — purely observational, simulated results are
    unchanged.  ``start_method`` is the shards' multiprocessing start
    method (``REPRO_MP_START`` is the ambient override; default
    ``spawn``).

    ``live_path``, when set, appends coordinator heartbeats (JSON lines:
    sim time reached, epochs walked, placements so far) for ``repro watch``
    to tail while the run executes; the final beat carries the health
    totals of the merged records when health telemetry was enabled.
    Heartbeats are written from the coordinator's overlap region, so they
    cost nothing the flight recorder would not already attribute to
    overlapped work — and they never touch simulated state.

    Raises :class:`ShardingUnavailable` when shard processes cannot start
    or ``lb_policy`` is a pull policy (callers fall back to the
    single-process path), and ``ValueError`` when ``rpc_latency`` is not
    positive — the seam latency is the conservative lookahead, so
    sharding without it is unsound.
    """
    if rpc_latency <= 0:
        raise ValueError(
            "sharded runs need rpc_latency > 0: the LB->worker dispatch "
            "latency is the lookahead that makes the epoch barrier safe"
        )
    import multiprocessing as mp

    if mp.current_process().daemon:
        raise ShardingUnavailable(
            "daemonic parent (e.g. a run_parallel pool worker) cannot "
            "spawn shard processes"
        )

    base = config or WorkerConfig()
    cfgs = Cluster.worker_configs(base, num_workers)
    parts = partition_workers(num_workers, shards)
    num_shards = len(parts)
    # Coordinator fast path: worker-id-indexed arrays replace the
    # name-keyed dict walk — one name->id lookup per pick, then pure
    # array indexing for shard ownership and shard-local position.
    worker_names = [cfg.name for cfg in cfgs]
    worker_ids = {name: i for i, name in enumerate(worker_names)}
    shard_of = np.empty(num_workers, dtype=np.int32)
    local_of = np.empty(num_workers, dtype=np.int32)
    for s, rng in enumerate(parts):
        for i in rng:
            shard_of[i] = s
            local_of[i] = i - rng.start

    n = len(plan)
    ts_arr = np.asarray(plan.timestamps, dtype=np.float64)
    if horizon is None:
        horizon = plan.duration + grace
    sync_set = sync_indices(ts_arr, lb_policy, status_interval)
    segments = plan_epochs(n, sync_set)
    chunk = int(chunk_size or EPOCH_CHUNK)
    fqdn_codes, fqdn_vocab = _plan_codes(plan.fqdns)

    specs = [
        ShardSpec(
            index=s,
            worker_configs=tuple(cfgs[i] for i in rng),
            registrations=tuple(registrations),
            rpc_latency=float(rpc_latency),
            horizon=float(horizon),
            fqdn_vocab=fqdn_vocab,
            telemetry=telemetry_config,
            collect_seam=collect_seam,
        )
        for s, rng in enumerate(parts)
    ]

    # The placement core, reading the loads the shards report.
    loads: dict[str, float] = {}
    front = PushFrontEnd(
        lb_policy, loads.__getitem__, worker_names,
        bound_factor=bound_factor, status_interval=status_interval,
        rpc_latency=rpc_latency,
    )
    lb_loads = None
    if telemetry_config is not None:
        from ..telemetry.sampler import Timeseries

        lb_loads = Timeseries(("t", "worker", "load"))
        # publish(worker, t, value) -> row (t, worker, value), matching
        # TelemetrySampler.record_lb_load on the single-process path.
        front.observe(
            [], lambda worker, t, value: lb_loads.append(t, worker, value),
        )

    # Shards start with ``spawn`` unless told otherwise: a forked shard
    # would inherit (and count as resident) whatever the caller's heap
    # holds, such as a previous run's outcome.
    method = start_method or os.environ.get("REPRO_MP_START") or "spawn"
    try:
        ctx = mp.get_context(method)
    except ValueError as exc:
        raise ShardingUnavailable(str(exc)) from exc
    conns, procs = _spawn_shards(ctx, specs)

    sent = [0] * num_shards
    walked = 0   # epochs whose first arrival has been picked
    place = front.place
    fr = FlightRecorder() if flight_recorder else None
    live_writer = None
    next_live_t = 0.0
    live_interval = 10.0
    if live_path is not None:
        from ..health.live import LiveWriter

        health_cfg = getattr(telemetry_config, "health", None)
        if health_cfg is not None:
            live_interval = health_cfg.heartbeat_interval()
        live_writer = LiveWriter(live_path)
        next_live_t = live_interval

    def _prep(desc):
        """Slice one chunk's columns (the only per-chunk allocations)."""
        if desc is None:
            return None
        a, b, recv_k, sync_req = desc
        return (a, b, ts_arr[a:b].tolist(), plan.fqdns[a:b], recv_k, sync_req)

    try:
        descs = _chunk_descs(segments, ts_arr, chunk)
        prepared = _prep(next(descs, None))
        if prepared is None and segments:  # pragma: no cover - defensive
            raise RuntimeError("chunk walk produced no descriptors")
        while prepared is not None:
            a, b, tlist, fq, recv_k, sync_req = prepared
            if fr is not None:
                _t = perf_counter()
            if recv_k is not None:
                for s, conn in enumerate(conns):
                    msg = _recv(conn, s)
                    assert msg[0] == "loads" and msg[1] == recv_k
                    loads.update(msg[2])
            if fr is not None:
                _recv_done = perf_counter()
            m = b - a
            picks = np.empty(m, dtype=np.int32)
            for i in range(m):
                picks[i] = worker_ids[place(fq[i], tlist[i])]
            if fr is not None:
                _pick_done = perf_counter()
                pbytes = 0
            # Columnar per-shard encode + send (at most one message per
            # shard for any epoch that fits in ``chunk``).
            kcol = np.arange(a, b, dtype=np.int64)
            tcol = ts_arr[a:b]
            ccol = fqdn_codes[a:b]
            owners = shard_of[picks] if m else picks
            for s, conn in enumerate(conns):
                if m:
                    mask = owners == s
                    any_here = bool(mask.any())
                else:
                    any_here = False
                if not any_here and sync_req is None:
                    continue
                if any_here:
                    msg = ("E", kcol[mask], tcol[mask], ccol[mask],
                           local_of[picks[mask]], sync_req)
                else:
                    msg = ("E", kcol[:0], tcol[:0], ccol[:0],
                           picks[:0], sync_req)
                _send(conn, s, msg)
                sent[s] += 1
                if fr is not None:
                    pbytes += (msg[1].nbytes + msg[2].nbytes
                               + msg[3].nbytes + msg[4].nbytes)
            if fr is not None:
                _send_done = perf_counter()
            # Shards are now simulating this epoch (and computing the
            # next loads): overlap the coordinator-side work — slicing
            # the next chunk.
            nxt = _prep(next(descs, None))
            if live_writer is not None and m and tlist[-1] >= next_live_t:
                while walked < len(segments) and segments[walked][1] < b:
                    walked += 1
                live_writer.heartbeat({
                    "t": tlist[-1],
                    "engine": "sharded",
                    "placements": front.placements,
                    "epoch": walked,
                })
                next_live_t = (
                    int(tlist[-1] // live_interval) + 1
                ) * live_interval
            if fr is not None:
                fr.epoch(
                    epoch=len(fr.epochs),
                    sync_k=recv_k,
                    arrivals=m,
                    stall_s=_recv_done - _t,
                    pick_s=_pick_done - _recv_done,
                    send_s=_send_done - _pick_done,
                    overlap_s=perf_counter() - _send_done,
                    payload_bytes=pbytes,
                )
            prepared = nxt

        for s, conn in enumerate(conns):
            _send(conn, s, ("F",))
        if fr is not None:
            _m0 = perf_counter()
        summaries_parts: list[list] = [[] for _ in specs]
        seam_parts: list[list] = [[] for _ in specs]
        per_worker: dict[str, int] = {}
        tele_parts = None
        tele_kinds: tuple = ()
        if telemetry_config is not None:
            from ..telemetry.export import PART_STREAMS, TelemetryPart

            tele_parts, tele_kinds = [], PART_STREAMS
        for s, conn in enumerate(conns):
            tele_chunks = {kind: [] for kind in tele_kinds}
            while True:
                msg = _recv(conn, s)
                if msg[0] == "part":
                    kind, chunk_items = msg[1], msg[2]
                    if kind == "summaries":
                        summaries_parts[s].extend(chunk_items)
                    elif kind == "seam":
                        seam_parts[s].extend(chunk_items)
                    elif kind in tele_chunks:
                        tele_chunks[kind].append(chunk_items)
                    else:  # pragma: no cover - defensive
                        raise RuntimeError(
                            f"shard {s} streamed unexpected part {kind!r}"
                        )
                    continue
                assert msg[0] == "result"
                payload = msg[1]
                break
            per_worker.update(payload["per_worker_records"])
            if tele_parts is not None:
                tele_parts.append(TelemetryPart.from_chunks(
                    tele_chunks, payload["telemetry"]))
        for p in procs:
            p.join()
        if fr is not None:
            fr.merge_s = perf_counter() - _m0
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join()
        for conn in conns:
            conn.close()

    summaries = sorted(
        (row for rows in summaries_parts for row in rows),
        key=lambda row: row[0],
    )

    seam_log = None
    if collect_seam:
        seam_log = _assemble_seam_log(ts_arr, seam_parts)

    seam_stats = {
        "epochs": len(segments),
        "sync_points": len(sync_set),
        "messages_per_shard": max(sent) if sent else 0,
        "chunk_size": chunk,
    }
    flight_log = fr.finish() if fr is not None else None

    telemetry = None
    if telemetry_config is not None:
        from ..telemetry.export import MergedTelemetry

        telemetry = MergedTelemetry(
            telemetry_config,
            worker_names,
            tele_parts,
            front.placement_log,
            front.rpc_latency,
            lb_loads,
            flight=(None if flight_log is None
                    else dict(flight_log, seam_stats=dict(seam_stats))),
            dispatch_info=front.info(),
        )

    if live_writer is not None:
        final = {
            "t": float(horizon),
            "engine": "sharded",
            "placements": front.placements,
            "epoch": len(segments),
        }
        # Folded from the merged records here; the export reuses it.
        merged_health = getattr(telemetry, "health", None)
        if merged_health is not None:
            final.update(merged_health.totals())
        final["done"] = True
        live_writer.heartbeat(final)
        live_writer.close()

    return ShardedOutcome(
        summaries=summaries,
        forwards=getattr(front.balancer, "forwards", 0),
        placements=front.placements,
        per_worker_records=per_worker,
        telemetry=telemetry,
        seam_log=seam_log,
        seam_stats=seam_stats,
        flight_log=flight_log,
    )
