"""Predictor worker process: one device-affinity shard of the fleet.

A worker owns a full :class:`~repro.serving.session.PredictorSession`
warmed from a ``repro compile`` artifact bundle — but only for the devices
that hash to its shard (:func:`~repro.serving.transport.shard_for`), so
each device's adapted predictor and plan cache live on **exactly one**
process and stay hot there.  Startup is zero-cold-start: the session loads
the shard's adapted checkpoints and compiled plans from disk instead of
adapting and tracing in-process, which is also what makes a respawned
worker equivalent to the one it replaces.

The worker speaks the length-prefixed frame protocol of
:mod:`repro.serving.transport` over a single stream socket to the router.
Requests may arrive *pipelined* (several outstanding frames; the router
tags each with an id and matches replies by id), but the worker itself
stays strictly serial: decode one frame, serve it, reply, then recv again.
Operations:

``predict``   an RSF2 i64 index frame in, a raw f64/f32 score buffer out
              (bitwise, with no float → decimal → float trip).  Failures
              reply as RSF1 JSON errors carrying the same id.  Every other
              operation is an RSF1 JSON frame ``{"op": ..., "id": n}``.
``adapt``     re-adapt a device, optionally pinning explicit measurement
              ``indices`` (mid-stream refresh; deterministic in
              ``(seed, device, indices)``).
``readapt``   drift-recovery attempt: build a shadow candidate on the
              pinned ``train_indices``, score both versions on the
              held-back ``val_indices`` against ``val_observed``, promote
              only on rank-quality improvement (see
              :meth:`PredictorSession.readapt`).  Occupies the worker for
              the fine-tune — a documented trade-off of the serial loop.
``metrics``   per-worker observability snapshot: session stats, hot
              devices, resident plan gauges, pid.
``ping``      liveness probe.
``sleep``     hold the worker busy for ``seconds`` — a fault-injection aid
              for the test harness (a window in which SIGKILL provably
              lands mid-flight), harmless in production.
``shutdown``  acknowledge and exit (the drain path).

Errors inside an operation never kill the worker: the reply carries
``{"ok": false, "error": ..., "kind": <exception class name>}`` and the
router re-raises an appropriate exception.  A transport error or EOF on
the router socket *does* exit the worker — its router is gone.
"""
from __future__ import annotations

import os
import signal
import socket
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.serving.transport import (
    BIN_PREDICT,
    BIN_SCORES,
    BinaryMessage,
    TransportError,
    recv_frame,
    send_binary_frame,
    send_frame,
    shard_for,
)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to build its serving session.

    ``task`` may be a :class:`~repro.tasks.devsets.Task` instance (workers
    are forked, so non-registry test tasks pass through fine) or a task
    name, or ``None`` to read it from the checkpoint metadata.  The seed is
    always read from the checkpoint — the equivalence guarantee hinges on
    every process adapting with the same ``(seed, device)`` stream.
    """

    checkpoint: str | Path
    task: Any = None
    config: Any = None
    plans: str | Path | None = None
    use_compiled: bool = True
    use_compiled_adapt: bool | None = None
    # Plan execution precision for every shard ("f64" | "f32").  Warmup
    # fails with PlanDtypeMismatchError if `plans` was compiled at a
    # different dtype — the startup handshake surfaces it as a named error
    # instead of one shard silently serving another precision.
    dtype: str = "f64"
    # Per-device score tables in each worker session (0/False disables; any
    # true value enables — the tables are sized by the search space).
    score_cache: bool | int = True


def build_worker_session(spec: WorkerSpec, worker_id: int, n_workers: int):
    """Construct and warm the session a worker serves from.

    Returns ``(session, warm_devices)`` where ``warm_devices`` is the list
    of bundle devices belonging to this worker's shard (loaded), if a plan
    bundle was given.  Factored out of :func:`worker_main` so tests can
    build the exact in-process twin of a worker.
    """
    from repro.serving.session import PredictorSession

    session = PredictorSession.from_checkpoint(
        spec.checkpoint,
        task=spec.task,
        config=spec.config,
        use_compiled=spec.use_compiled,
        use_compiled_adapt=spec.use_compiled_adapt,
        plan_dtype=getattr(spec, "dtype", "f64"),
        max_cached_scores=spec.score_cache,
    )
    warm: list[str] = []
    if spec.plans is not None:
        from repro.serving.artifacts import read_manifest

        manifest, _ = read_manifest(spec.plans)
        warm = [
            entry["device"]
            for entry in manifest.get("devices", [])
            if shard_for(entry["device"], n_workers) == worker_id
        ]
        session.load_warmup(spec.plans, devices=warm)
    return session, warm


def _snapshot(session, worker_id: int) -> dict:
    """Per-worker observability payload for the ``metrics`` op."""
    return {
        "worker": worker_id,
        "pid": os.getpid(),
        "hot_devices": list(session.hot_devices),
        "stats": session.stats.snapshot(),
        "plan_cache_entries": dict(session.plan_cache_entries),
        "plan_buffer_bytes": int(session.plan_buffer_bytes),
        "plan_dtype": getattr(session, "plan_dtype", "f64"),
        "score_cache_entries": int(getattr(session, "score_cache_entries", 0)),
        "predictor_versions": dict(getattr(session, "predictor_versions", {})),
    }


def worker_main(
    conn: socket.socket,
    spec: WorkerSpec,
    worker_id: int,
    n_workers: int,
    close_sockets: tuple = (),
) -> None:
    """Entry point of a worker process (the router forks into this).

    ``close_sockets`` are the router's *other* worker connections inherited
    across the fork; they are closed first thing so this process can never
    hold a sibling's channel open (which would mask that sibling's death
    from the router's EOF detection).
    """
    for stray in close_sockets:
        try:
            stray.close()
        except OSError:
            pass
    # The router owns lifecycle: Ctrl-C at the CLI must drain through the
    # router's shutdown frames, not kill workers mid-prediction.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        session, warm = build_worker_session(spec, worker_id, n_workers)
    except BaseException as exc:  # report startup failure, then die
        traceback.print_exc(file=sys.stderr)
        try:
            send_frame(conn, {"ready": False, "error": str(exc), "kind": type(exc).__name__})
        except (TransportError, OSError):
            pass
        return
    send_frame(
        conn,
        {
            "ready": True,
            "pid": os.getpid(),
            "worker": worker_id,
            "warm_devices": warm,
        },
    )
    while True:
        try:
            req = recv_frame(conn)
        except (TransportError, OSError):
            return  # router is gone; nothing left to serve
        if isinstance(req, BinaryMessage):
            ok = _handle_binary(session, worker_id, conn, req)
            if not ok:
                return
            continue
        reply = _handle(session, worker_id, req)
        try:
            send_frame(conn, reply)
        except (TransportError, OSError):
            return
        if req.get("op") == "shutdown":
            return


def _handle_binary(
    session, worker_id: int, conn: socket.socket, msg: BinaryMessage
) -> bool:
    """Serve one RSF2 frame; returns False when the router socket is gone.

    Failures reply as RSF1 JSON with the same request id, so the router's
    demultiplexer resolves the waiter either way.
    """
    try:
        if msg.kind != BIN_PREDICT:
            raise ValueError(f"unexpected binary frame kind {msg.kind}")
        scores = session.predict_batch(msg.device, msg.array)
        send_binary_frame(conn, BIN_SCORES, msg.request_id, scores)
        return True
    except (TransportError, OSError):
        return False
    except Exception as exc:
        try:
            send_frame(
                conn,
                {
                    "id": msg.request_id,
                    "worker": worker_id,
                    "ok": False,
                    "error": str(exc),
                    "kind": type(exc).__name__,
                },
            )
            return True
        except (TransportError, OSError):
            return False


def _handle(session, worker_id: int, req: dict) -> dict:
    """Execute one request; always returns a reply dict (never raises)."""
    reply: dict = {"id": req.get("id"), "worker": worker_id}
    try:
        op = req.get("op")
        if op == "adapt":
            session.adapt(req["device"], indices=req.get("indices"))
            reply.update(ok=True, device=req["device"])
        elif op == "readapt":
            result = session.readapt(
                req["device"],
                req["train_indices"],
                req["val_indices"],
                req["val_observed"],
                min_improvement=float(req.get("min_improvement", 0.0)),
            )
            reply.update(ok=True, **result)
        elif op == "metrics":
            reply.update(ok=True, **_snapshot(session, worker_id))
        elif op == "ping":
            reply.update(ok=True, pid=os.getpid())
        elif op == "sleep":
            import time

            time.sleep(float(req.get("seconds", 0.0)))
            reply.update(ok=True)
        elif op == "shutdown":
            reply.update(ok=True, shutdown=True)
        else:
            reply.update(ok=False, error=f"unknown op {op!r}", kind="ValueError")
    except Exception as exc:
        reply.update(ok=False, error=str(exc), kind=type(exc).__name__)
    return reply
