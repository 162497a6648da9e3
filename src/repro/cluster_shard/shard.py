"""One shard process: a private DES environment running a worker subset.

The shard's event pattern is a *mirror* of the single-process replay
restricted to its workers: one injector process walks the seam's epoch
messages in time order, yielding exactly the timeouts the single-process
open-loop injector would have yielded at this shard's relevant arrivals,
and starting the same ``lb-forward`` processes in the same
event-processing slots.  Because workers share nothing and the DES kernel
breaks ties by ``(time, priority, seq)``, preserving the *relative*
scheduling order of the shard's own events is sufficient for bit-identical
records — the determinism argument is spelled out in ``docs/SHARDING.md``.
The forward process is the serial cluster's own
:func:`~repro.loadbalancer.frontend.forward_hop`, with the seam log
attached; the pick side (the placement log) lives in the coordinator.

Epoch messages arrive columnar (parallel arrays of arrival index,
timestamp, fqdn code, local worker index — schema in ``protocol.py``);
the injector decodes one message at a time, so the shard's working set is
one epoch chunk regardless of plan length.  A sync request rides at the
end of the message carrying the *previous* epoch's dispatches, so the
load report for epoch ``e+1``'s boundary is computed while the
coordinator is still accounting epoch ``e``.

Blocking ``conn.recv()`` happens *inside* the injector generator, so the
environment freezes at the current simulated time whenever the shard
waits on the coordinator — no wall-clock/sim-time interleaving hazards.

Results stream back in bounded ``("part", kind, chunk)`` messages — the
telemetry kinds are the streams of the shard's
:class:`~repro.telemetry.export.TelemetryPart`, already in merge-key
order — closed by one light ``("result", ...)`` payload.
"""

from __future__ import annotations

import traceback
from itertools import islice
from typing import Generator, Iterable

from ..core.worker import Worker
from ..loadbalancer.frontend import forward_hop, load_signal
from ..sim.core import Environment
from .protocol import RESULT_CHUNK, ShardSpec

__all__ = ["shard_main"]


def _stream_parts(conn, kind: str, items: Iterable) -> None:
    """Ship ``items`` as bounded ``("part", kind, chunk)`` messages."""
    it = iter(items)
    while chunk := list(islice(it, RESULT_CHUNK)):
        conn.send(("part", kind, chunk))


def _run_shard(conn, spec: ShardSpec) -> None:
    env = Environment()
    workers = {}
    for cfg in spec.worker_configs:
        workers[cfg.name] = Worker(env, cfg)
    # Dispatch columns address workers by shard-local index and functions
    # by vocabulary code; decode through these, never through dict walks.
    by_local = [workers[cfg.name] for cfg in spec.worker_configs]
    vocab = list(spec.fqdn_vocab)

    telemetry = None
    if spec.telemetry is not None:
        # Deferred: the pipeline only loads when the run opted in.
        from ..telemetry import Telemetry

        telemetry = Telemetry(env, spec.telemetry)
        if spec.telemetry.trace:
            # The LB entries come from the coordinator's placement log;
            # this shard's timeline rows carry the shard's index.
            telemetry.shard = spec.index
        for w in workers.values():
            telemetry.attach_worker(w)
        telemetry.start()
    for w in workers.values():
        w.start()
    for reg in spec.registrations:
        for w in workers.values():
            w.register_sync(reg)

    pending: list = []                       # (k, done event)
    seam: list = [] if spec.collect_seam else None
    latency = spec.rpc_latency
    load = load_signal(workers)

    def loads() -> dict:
        return {name: load(name) for name in workers}

    def injector() -> Generator:
        timeout = env.timeout
        process = env.process
        event = env.event
        append = pending.append
        while True:
            msg = conn.recv()                # env frozen while we wait
            kind = msg[0]
            if kind == "F":
                return
            if kind != "E":  # pragma: no cover - defensive
                raise ValueError(f"unknown seam message {kind!r}")
            sync = msg[5]
            for k, t, code, loc in zip(
                msg[1].tolist(), msg[2].tolist(),
                msg[3].tolist(), msg[4].tolist(),
            ):
                delay = t - env.now
                if delay > 0:
                    yield timeout(delay)
                fqdn = vocab[code]
                done = event()
                process(
                    forward_hop(env, latency, by_local[loc], fqdn, None,
                                k + 1, done, seam),
                    name=f"lb-forward-{fqdn}",
                )
                append((k, done))
            if sync is not None:
                sync_k, sync_t = sync
                delay = sync_t - env.now
                if delay > 0:
                    yield timeout(delay)
                conn.send(("loads", sync_k, loads()))

    env.process(injector(), name="open-loop-injector")
    env.run(until=spec.horizon)
    for w in workers.values():
        w.stop()
    if telemetry is not None:
        telemetry.stop()

    summaries = []
    for k, done in pending:
        if done.triggered:
            inv = done.value
            summaries.append((
                k,
                bool(inv.dropped),
                inv.completed_at is not None,
                bool(inv.cold),
                inv.e2e_time,
                inv.overhead,
            ))
    _stream_parts(conn, "summaries", summaries)
    if seam is not None:
        _stream_parts(conn, "seam", seam)
    payload: dict = {
        "per_worker_records": {
            name: len(w.metrics.records) for name, w in workers.items()
        },
    }
    if telemetry is not None:
        from ..telemetry.export import PART_STREAMS

        # The coordinator merges this part with the other shards' and its
        # placement log.  Timeline rows carry the shard index only when
        # tracing asked for it (telemetry.shard), so untraced sharded
        # views stay equal to serial ones.
        part = telemetry.part()
        for kind in PART_STREAMS:
            _stream_parts(conn, kind, part.stream(kind))
        payload["telemetry"] = part.meta()
    conn.send(("result", payload))


def shard_main(conn, spec: ShardSpec) -> None:
    """Process entry point: run the shard, stream the results (or the
    traceback — the coordinator re-raises it)."""
    try:
        _run_shard(conn, spec)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            pass
    finally:
        conn.close()
