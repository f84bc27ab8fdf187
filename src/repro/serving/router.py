"""Sharded worker-pool router: device-affinity fan-out over processes.

One GIL-bound process caps serving throughput at single-core BLAS speed no
matter how well micro-batching amortizes overhead.  The router breaks that
ceiling by spreading the fleet over N worker *processes*
(:mod:`repro.serving.worker`), sharded by **device affinity**: every device
hashes to exactly one worker (:func:`~repro.serving.transport.shard_for`),
so its adapted predictor and compiled-plan cache live on one process and
stay hot there — the multi-process generalization of the session's
hot-device LRU.

Request flow::

    HTTP handler threads
        └─ ShardedRouter.submit(device, indices)
             └─ per-shard MicroBatcher        (coalesces, groups by device)
                  └─ frame RPC to the shard's worker process
                       └─ PredictorSession.predict_batch (warm plans)

Each shard gets its **own** :class:`~repro.serving.server.MicroBatcher`,
so batch windows close independently and N workers compute genuinely in
parallel — a single global dispatcher would re-serialize the fleet.

The shard link is a :class:`_ShardChannel`: a multiplexed request/reply
channel (requests tagged with ids, one reader thread matching replies)
rather than a lock-serialized exchange, which allows **pipelining**: each
shard runs ``pipeline_depth`` dispatcher threads, so the next micro-batch
window is already on the wire while the worker computes the previous one —
transport and compute overlap instead of alternating.  Predict traffic
rides RSF2 frames (raw little-endian index/score buffers); control ops
(adapt, metrics, ping, shutdown) ride RSF1 JSON.

Fault model: predictions are deterministic in ``(seed, device)`` (and
adaptation in ``(seed, device, indices)``), i.e. **idempotent** — so when
a worker dies mid-request (SIGKILL, OOM), the router respawns the shard's
worker (warmed from the same artifact bundle, hence equivalent) and
retries the in-flight request on it.  The reply channel died with the old
worker, so a retried request can never be double-answered.  A background
monitor respawns crashed workers even when the shard is idle, so
``/healthz`` degrades and then recovers without needing traffic.

The router deliberately mirrors the :class:`MicroBatcher` surface
(``start`` / ``stop`` / ``submit`` / ``queue_depth``) so
:class:`~repro.serving.server.PredictorServer` can front either, and adds
fleet observability: ``workers_alive``, per-shard queue depths, death /
respawn / retry counters, and a per-worker metrics rollup.
"""
from __future__ import annotations

import multiprocessing
import socket
import threading
import time
from numbers import Number

import numpy as np

from repro.serving.server import MicroBatcher, ServerMetrics
from repro.serving.transport import (
    BIN_PREDICT,
    BinaryMessage,
    TransportError,
    recv_frame,
    send_binary_frame,
    send_frame,
    shard_for,
)
from repro.serving.worker import WorkerSpec, worker_main

__all__ = [
    "ShardedRouter",
    "WorkerSpec",
    "WorkerStartupError",
    "WorkerUnavailableError",
]


class WorkerStartupError(RuntimeError):
    """A worker process failed to come up (bad checkpoint, bad bundle...)."""


class WorkerUnavailableError(RuntimeError):
    """A shard's worker kept dying; the request exhausted its retries."""


class _PendingReply:
    """One in-flight request's parking spot on a shard channel."""

    __slots__ = ("event", "reply", "error")

    def __init__(self):
        self.event = threading.Event()
        self.reply = None
        self.error: Exception | None = None


class _ShardChannel:
    """Multiplexed request/reply channel to one worker process.

    Senders tag each frame with a fresh id under a send lock and park on a
    per-request event; one reader thread receives every reply — an RSF2
    score buffer or an RSF1 JSON dict — and wakes the matching waiter.
    That split is what allows several requests *outstanding at once* on a
    single socket (the router's pipelining) where the previous design
    lock-serialized whole request/response exchanges.

    Failure semantics: a transport error (worker death, desync) fails every
    pending request with the same named error and poisons the channel —
    each caller then retries through the router's respawn path
    independently.  A request that *times out* is discarded so its late
    reply (if any) is dropped on arrival; whether the timeout also kills
    the worker is the caller's policy (predict: yes, metrics scrape: no).
    The socket carries one fixed generous timeout that bounds a stalled
    ``sendall``; the reader treats its periodic recv timeouts as idle
    ticks, since per-request deadlines live with the waiters.
    """

    def __init__(self, sock: socket.socket, worker_id: int, io_timeout_s: float):
        self.sock = sock
        self.worker_id = worker_id
        sock.settimeout(max(io_timeout_s, 1.0))
        self._send_lock = threading.Lock()
        self._plock = threading.Lock()
        self._pending: dict[int, _PendingReply] = {}
        self._next_id = 0
        self._dead: Exception | None = None
        self._reader = threading.Thread(
            target=self._read_loop, name=f"shard-reader-{worker_id}", daemon=True
        )
        self._reader.start()

    # ------------------------------------------------------------- send side
    def _register(self) -> tuple[int, _PendingReply]:
        with self._plock:
            if self._dead is not None:
                raise self._dead
            self._next_id = (self._next_id % 0xFFFFFFFF) + 1  # u32 for RSF2 headers
            entry = _PendingReply()
            self._pending[self._next_id] = entry
            return self._next_id, entry

    def _discard(self, rid: int) -> None:
        with self._plock:
            self._pending.pop(rid, None)

    def request(self, msg: dict, timeout: float):
        """JSON control RPC: send ``msg`` (id added) and await its reply."""
        rid, entry = self._register()
        try:
            with self._send_lock:
                send_frame(self.sock, dict(msg, id=rid))
        except BaseException:
            self._discard(rid)
            raise
        return self._await(rid, entry, timeout, msg.get("op"))

    def predict(self, device: str, indices: np.ndarray, timeout: float):
        """Predict RPC: ship the i64 index buffer raw as an RSF2 frame and
        return the reply's score array bitwise (f64 or f32, whatever the
        shard's plans produce), or the worker's JSON error dict.
        """
        rid, entry = self._register()
        idx = np.ascontiguousarray(np.asarray(indices, dtype=np.int64).ravel())
        try:
            with self._send_lock:
                send_binary_frame(self.sock, BIN_PREDICT, rid, idx, device)
        except BaseException:
            self._discard(rid)
            raise
        return self._await(rid, entry, timeout, "predict")

    def _await(self, rid: int, entry: _PendingReply, timeout: float, op):
        if not entry.event.wait(timeout):
            self._discard(rid)
            raise TimeoutError(
                f"worker {self.worker_id} gave no reply within {timeout}s for op {op!r}"
            )
        if entry.error is not None:
            raise entry.error
        return entry.reply

    # ------------------------------------------------------------- read side
    def _read_loop(self) -> None:
        while True:
            try:
                payload = recv_frame(self.sock)
            except TimeoutError:
                continue  # idle tick; per-request deadlines live with the waiters
            except (TransportError, OSError) as exc:
                self._fail_all(exc)
                return
            if isinstance(payload, BinaryMessage):
                rid, result = payload.request_id, payload.array
            else:
                rid, result = payload.get("id"), payload
            with self._plock:
                entry = self._pending.pop(rid, None)
            if entry is not None:
                entry.reply = result
                entry.event.set()
            # else: late reply for a discarded (timed-out) request — dropped.

    def _fail_all(self, exc: Exception) -> None:
        with self._plock:
            if self._dead is None:
                self._dead = exc
            pending = list(self._pending.values())
            self._pending.clear()
        for entry in pending:
            entry.error = exc
            entry.event.set()

    def close(self) -> None:
        """Tear the channel down and reap the reader thread.

        ``shutdown`` (not just ``close``) wakes a reader blocked in
        ``recv`` — closing an fd another thread is reading does not."""
        with self._plock:
            if self._dead is None:
                self._dead = TransportError(
                    f"channel to worker {self.worker_id} was closed"
                )
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        self._reader.join(timeout=5.0)


class _WorkerHandle:
    """Router-side state for one live worker process."""

    __slots__ = ("worker_id", "process", "channel", "pid", "warm_devices")

    def __init__(self, worker_id, process, channel, pid, warm_devices):
        self.worker_id = worker_id
        self.process = process
        self.channel = channel
        self.pid = pid
        self.warm_devices = list(warm_devices)

    @property
    def sock(self) -> socket.socket:
        return self.channel.sock


class _PredictCall:
    """Marker routing an RPC through the channel's RSF2 predict frames
    (instead of a JSON control frame)."""

    __slots__ = ("device", "indices")

    def __init__(self, device: str, indices):
        self.device = device
        self.indices = indices


class ShardedRouter:
    """Route ``(device, indices)`` predictions to device-affinity workers.

    Parameters
    ----------
    spec: :class:`~repro.serving.worker.WorkerSpec` — how each worker
        builds its session (checkpoint, optional plan bundle, flags).  All
        workers share one spec; the shard hash decides which bundle
        devices each one warms.
    n_workers: shard count.  Devices hash across shards with crc32, so the
        mapping is stable across restarts and identical in every process.
    max_batch, max_wait_ms: per-shard micro-batching window (same meaning
        as on :class:`~repro.serving.server.MicroBatcher`).
    request_timeout_s: socket deadline for one worker RPC.  Covers cold
        adaptation (seconds); a worker that blows it is presumed wedged
        and is killed and respawned.
    max_retries: in-flight retries after a worker death before the request
        fails with :class:`WorkerUnavailableError`.
    monitor_interval_s: cadence of the respawn monitor (0 disables it;
        dead workers then respawn lazily on the next request).
    startup_timeout_s: deadline for a worker's ready handshake.
    binary: must be ``True``: predict traffic always rides RSF2 binary
        frames.  Kept so callers that pass ``binary=True`` keep working;
        ``False`` raises ``ValueError``.
    pipeline_depth: dispatcher threads per shard — how many micro-batch
        windows may be outstanding on a shard's channel at once.  Depth 2
        overlaps transport with worker compute; depth 1 restores the
        strict send-then-wait data plane.
    spawn_backoff_base_s, spawn_backoff_max_s: bounded exponential backoff
        (with +/-25% jitter) between respawn attempts after a worker fails
        to come up — a shard whose checkpoint or bundle went bad must not
        fork-spin.  While a shard is backing off, requests routed to it
        fail fast with :class:`WorkerUnavailableError` instead of queueing
        behind doomed spawns.
    spawn_failure_threshold: consecutive startup failures after which the
        shard is reported in ``degraded_shards`` (surfaced by
        ``/healthz``).  Respawn attempts continue at the capped backoff
        cadence; one success clears the state.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        n_workers: int,
        *,
        max_batch: int = 64,
        max_wait_ms: float = 5.0,
        request_timeout_s: float = 300.0,
        max_retries: int = 2,
        monitor_interval_s: float = 1.0,
        startup_timeout_s: float = 300.0,
        binary: bool = True,
        pipeline_depth: int = 2,
        spawn_backoff_base_s: float = 0.5,
        spawn_backoff_max_s: float = 30.0,
        spawn_failure_threshold: int = 3,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "sharded serving requires the 'fork' start method "
                "(POSIX only); this platform does not support it"
            )
        self.spec = spec
        self.n_workers = int(n_workers)
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.request_timeout_s = float(request_timeout_s)
        self.max_retries = int(max_retries)
        self.monitor_interval_s = float(monitor_interval_s)
        self.startup_timeout_s = float(startup_timeout_s)
        if not binary:
            raise ValueError(
                "binary=False is not supported: predict traffic always rides "
                "RSF2 binary frames"
            )
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
        self.pipeline_depth = int(pipeline_depth)
        self.metrics = ServerMetrics()  # per-shard batchers share one sink
        self.task = self._resolve_task(spec.task)
        self._ctx = multiprocessing.get_context("fork")
        self._handles: list[_WorkerHandle | None] = [None] * self.n_workers
        self._batchers: list[MicroBatcher] = []
        # One lock for all spawn/despawn transitions: spawning forks the
        # router process, and a concurrent spawn could leak the new
        # socketpair's worker end into an unrelated child (masking that
        # worker's death from EOF detection).
        self._spawn_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        # Explicit re-adapt log (device -> pinned measurement indices).  A
        # respawned worker warms from the *bundle*, which predates any
        # mid-stream ``adapt(device, indices)`` — replaying the log restores
        # the shard's exact serving state (adaptation is deterministic in
        # (seed, device, indices)), so a crash is invisible to clients.
        self._adapt_log: dict[str, list[int]] = {}
        # Respawn circuit breaker: consecutive *startup* failures per shard
        # (handshake death, bad bundle, failed replay) and the monotonic
        # deadline before which no respawn is attempted.  Deliberately
        # excludes post-ready deaths — SIGKILL of a healthy worker respawns
        # immediately; only a worker that cannot come up backs off.
        self.spawn_backoff_base_s = float(spawn_backoff_base_s)
        self.spawn_backoff_max_s = float(spawn_backoff_max_s)
        self.spawn_failure_threshold = int(spawn_failure_threshold)
        self._spawn_failures: list[int] = [0] * self.n_workers
        self._spawn_deadline: list[float] = [0.0] * self.n_workers
        self._backoff_rng = np.random.default_rng()
        self.spawn_failures_total = 0
        self.deaths_total = 0
        self.respawns_total = 0
        self.retries_total = 0
        self._started = False
        self._closed = False
        self._monitor: threading.Thread | None = None
        self._monitor_stop = threading.Event()

    @staticmethod
    def _resolve_task(task):
        if task is None or isinstance(task, str):
            try:
                from repro.tasks.devsets import get_task

                return get_task(task) if isinstance(task, str) else None
            except KeyError:
                return None
        return task

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "ShardedRouter":
        """Spawn the fleet and the per-shard batchers (idempotent)."""
        if self._started:
            return self
        if self._closed:
            raise RuntimeError("router was stopped; build a new one")
        for wid in range(self.n_workers):
            self._spawn(wid)
        self._batchers = [
            MicroBatcher(
                self._make_predict_fn(wid),
                max_batch=self.max_batch,
                max_wait_ms=self.max_wait_ms,
                metrics=self.metrics,
                n_dispatchers=self.pipeline_depth,
            ).start()
            for wid in range(self.n_workers)
        ]
        if self.monitor_interval_s > 0:
            self._monitor_stop.clear()
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="worker-monitor", daemon=True
            )
            self._monitor.start()
        self._started = True
        return self

    def stop(self) -> None:
        """Graceful drain, in order: stop respawning, drain every shard's
        queued requests (their workers still answer), then shut the workers
        down and reap the processes."""
        if not self._started:
            return
        self._started = False  # submit() refuses new work from here on
        if self._monitor is not None:
            self._monitor_stop.set()
            self._monitor.join()
            self._monitor = None
        for batcher in self._batchers:
            # Drains: queued predictions still answer (a worker dying this
            # late is even respawned for them — _closed isn't set yet).
            batcher.stop()
        self._batchers = []
        self._closed = True
        with self._spawn_lock:
            for wid, handle in enumerate(self._handles):
                if handle is None:
                    continue
                self._shutdown_worker(handle)
                self._handles[wid] = None

    def _shutdown_worker(self, handle: _WorkerHandle) -> None:
        try:
            handle.channel.request({"op": "shutdown"}, 5.0)
        except (TransportError, OSError, TimeoutError):
            pass  # already dead — reaped below either way
        handle.channel.close()
        handle.process.join(timeout=5.0)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=2.0)
        if handle.process.is_alive():  # pragma: no cover - last resort
            handle.process.kill()
            handle.process.join(timeout=2.0)

    def __enter__(self) -> "ShardedRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------- spawning
    def _spawn(self, wid: int) -> _WorkerHandle:
        """Fork one worker and wait for its ready handshake.

        Startup failures feed the respawn circuit breaker: each one arms a
        jittered exponential backoff for the shard, a success clears it.
        """
        with self._spawn_lock:
            existing = self._handles[wid]
            if existing is not None and existing.process.is_alive():
                return existing  # raced with the monitor; already respawned
            if existing is not None:
                self._reap(wid, existing)
            try:
                handle = self._spawn_locked(wid)
            except Exception:
                self._record_spawn_failure(wid)
                raise
            with self._stats_lock:
                self._spawn_failures[wid] = 0
                self._spawn_deadline[wid] = 0.0
            self._handles[wid] = handle
            return handle

    def _spawn_locked(self, wid: int) -> _WorkerHandle:
        """Fork + handshake + adapt-log replay (caller holds the spawn lock)."""
        router_end, worker_end = socket.socketpair()
        # Sockets of *other* live workers, for the child to close: a
        # worker holding a sibling's channel would keep it open past
        # that sibling's death and break the router's EOF detection.
        stray = tuple(h.sock for h in self._handles if h is not None)
        proc = self._ctx.Process(
            target=worker_main,
            args=(worker_end, self.spec, wid, self.n_workers, stray),
            name=f"repro-worker-{wid}",
            daemon=True,
        )
        proc.start()
        worker_end.close()  # child owns its end; EOF semantics need ours gone
        router_end.settimeout(self.startup_timeout_s)
        try:
            ready = recv_frame(router_end)
        except (TransportError, OSError, TimeoutError) as exc:
            router_end.close()
            proc.terminate()
            proc.join(timeout=2.0)
            raise WorkerStartupError(
                f"worker {wid} died before its ready handshake: {exc}"
            ) from exc
        if not ready.get("ready"):
            router_end.close()
            proc.join(timeout=2.0)
            raise WorkerStartupError(
                f"worker {wid} failed to start: {ready.get('error', 'unknown error')}"
            )
        channel = _ShardChannel(router_end, wid, io_timeout_s=self.request_timeout_s)
        handle = _WorkerHandle(
            wid, proc, channel, ready.get("pid"), ready.get("warm_devices", ())
        )
        if self._started:  # a replacement, not part of initial start()
            with self._stats_lock:
                self.respawns_total += 1
        with self._stats_lock:
            replay = {
                device: idx
                for device, idx in self._adapt_log.items()
                if shard_for(device, self.n_workers) == wid
            }
        for device, idx in replay.items():
            try:
                reply = self._request(
                    handle,
                    {"op": "adapt", "device": device, "indices": idx},
                    self.request_timeout_s,
                )
            except (TransportError, OSError, TimeoutError) as exc:
                self._reap(wid, handle)
                raise WorkerStartupError(
                    f"worker {wid} died replaying the re-adapt log "
                    f"for {device!r}: {exc}"
                ) from exc
            if not reply.get("ok"):
                self._reap(wid, handle)
                raise WorkerStartupError(
                    f"worker {wid} failed to replay re-adapt of "
                    f"{device!r}: {reply.get('error')}"
                )
        return handle

    def _record_spawn_failure(self, wid: int) -> None:
        """Arm the shard's respawn backoff after a startup failure.

        Bounded exponential with +/-25% jitter, so a fleet whose shared
        artifact went bad doesn't thundering-herd its retries.
        """
        jitter = 0.75 + 0.5 * float(self._backoff_rng.random())
        with self._stats_lock:
            self._spawn_failures[wid] += 1
            self.spawn_failures_total += 1
            delay = min(
                self.spawn_backoff_max_s,
                self.spawn_backoff_base_s * 2 ** (self._spawn_failures[wid] - 1),
            )
            self._spawn_deadline[wid] = time.monotonic() + delay * jitter

    def _reap(self, wid: int, handle: _WorkerHandle) -> None:
        """Retire a dead handle (caller holds the spawn lock)."""
        handle.channel.close()
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=2.0)
        self._handles[wid] = None
        with self._stats_lock:
            self.deaths_total += 1

    def _ensure_worker(self, wid: int) -> _WorkerHandle:
        """Live handle for shard ``wid``, respawning a dead worker if needed.

        A shard inside its respawn backoff window fails fast with
        :class:`WorkerUnavailableError` — requests must not pile up behind
        spawn attempts the breaker already predicts will fail.
        """
        handle = self._handles[wid]
        if handle is not None and handle.process.is_alive():
            return handle
        if self._closed:
            raise RuntimeError("router is not running")
        with self._stats_lock:
            deadline = self._spawn_deadline[wid]
            failures = self._spawn_failures[wid]
        retry_in = deadline - time.monotonic()
        if retry_in > 0:
            state = (
                "degraded" if failures >= self.spawn_failure_threshold else "backing off"
            )
            raise WorkerUnavailableError(
                f"shard {wid} is {state} after {failures} consecutive spawn "
                f"failure(s); next respawn attempt in {retry_in:.1f}s"
            )
        return self._spawn(wid)

    def _note_death(self, wid: int, handle: _WorkerHandle) -> None:
        """Record that ``handle``'s worker failed us (idempotent per handle)."""
        with self._spawn_lock:
            if self._handles[wid] is handle:
                self._reap(wid, handle)

    def _monitor_loop(self) -> None:
        """Respawn crashed workers proactively so health recovers while idle."""
        while not self._monitor_stop.wait(self.monitor_interval_s):
            for wid in range(self.n_workers):
                handle = self._handles[wid]
                if handle is not None and not handle.process.is_alive():
                    self._note_death(wid, handle)
                    handle = None
                if handle is None and not self._closed:
                    try:
                        self._ensure_worker(wid)
                    except (WorkerStartupError, RuntimeError):
                        pass  # keep monitoring; next tick tries again

    # ------------------------------------------------------------------- rpc
    def _request(self, handle: _WorkerHandle, msg: dict, timeout: float):
        """One JSON RPC on a worker's channel (id matching is the channel's
        job; the exchange may share the socket with in-flight predicts)."""
        return handle.channel.request(msg, timeout)

    @staticmethod
    def _raise_worker_error(reply: dict) -> None:
        kind = reply.get("kind")
        message = f"{reply.get('error', 'worker error')}"
        if kind in ("KeyError", "ValueError", "IndexError"):
            raise ValueError(message)  # client-fixable -> HTTP 400
        raise RuntimeError(f"worker error ({kind}): {message}")

    def _rpc_with_retry(self, wid: int, msg):
        """Send ``msg`` to shard ``wid``; on worker death, respawn and retry.

        ``msg`` is either a JSON control dict or a :class:`_PredictCall`
        (routed over RSF2 binary frames).  Safe because every routed
        operation is idempotent: predictions and adaptation are
        deterministic in ``(seed, device[, indices])``, and the dead
        worker's reply channel died with it, so a retry cannot produce a
        second answer for the same request.
        """
        is_predict = isinstance(msg, _PredictCall)
        op = "predict" if is_predict else msg.get("op")
        last_exc: Exception | None = None
        for attempt in range(self.max_retries + 1):
            handle = self._ensure_worker(wid)
            try:
                if is_predict:
                    reply = handle.channel.predict(
                        msg.device, msg.indices, self.request_timeout_s
                    )
                else:
                    reply = self._request(handle, msg, self.request_timeout_s)
            except TimeoutError as exc:
                # Wedged (or hopelessly slow) worker: a retry would wedge
                # again, so kill it and surface the timeout to the caller.
                self._note_death(wid, handle)
                raise TimeoutError(
                    f"worker {wid} exceeded {self.request_timeout_s}s for "
                    f"op {op!r}"
                ) from exc
            except (TransportError, OSError) as exc:
                self._note_death(wid, handle)
                last_exc = exc
                if attempt < self.max_retries:
                    with self._stats_lock:
                        self.retries_total += 1
                continue
            if isinstance(reply, np.ndarray):  # binary score buffer: success
                return reply
            if not reply.get("ok"):
                self._raise_worker_error(reply)
            return reply
        raise WorkerUnavailableError(
            f"worker {wid} died {self.max_retries + 1} time(s) serving "
            f"op {op!r}: {last_exc}"
        )

    # --------------------------------------------------------------- serving
    def shard_of(self, device: str) -> int:
        """Which worker owns ``device`` (stable crc32 hash)."""
        return shard_for(device, self.n_workers)

    def _make_predict_fn(self, wid: int):
        def predict(device: str, indices) -> np.ndarray:
            reply = self._rpc_with_retry(wid, _PredictCall(device, indices))
            # f64 passes through bitwise; an f32 shard's scores widen exactly.
            return np.asarray(reply, dtype=np.float64)

        return predict

    def submit(self, device: str, indices, timeout: float | None = None) -> np.ndarray:
        """Enqueue one prediction on the owning shard's batch window."""
        if not self._started:
            raise RuntimeError("router is not running")
        return self._batchers[self.shard_of(device)].submit(device, indices, timeout)

    def predict_batch(self, device: str, indices) -> np.ndarray:
        """Session-compatible alias: route, coalesce, and predict."""
        return self.submit(device, indices, timeout=self.request_timeout_s)

    def adapt(self, device: str, indices=None) -> None:
        """(Re-)adapt ``device`` on its owning worker — the mid-stream
        refresh path; deterministic in ``(seed, device, indices)``."""
        msg: dict = {"op": "adapt", "device": device}
        if indices is not None:
            msg["indices"] = [int(i) for i in np.asarray(indices).ravel()]
        self._rpc_with_retry(self.shard_of(device), msg)
        if indices is not None:
            # Only *pinned* adapts enter the respawn log: a default-sampler
            # adapt reproduces itself on the respawned worker's first touch
            # of the device (same (seed, device) stream), no replay needed.
            with self._stats_lock:
                self._adapt_log[device] = msg["indices"]

    def readapt(
        self,
        device: str,
        train_indices,
        val_indices,
        val_observed,
        *,
        min_improvement: float = 0.0,
    ) -> dict:
        """Drift-recovery attempt on ``device``'s owning worker (see
        :meth:`PredictorSession.readapt`): shadow candidate on the pinned
        ``train_indices``, scored against ``val_observed`` on the held-back
        ``val_indices``, promoted only on rank-quality improvement.

        A *promoted* device enters the pinned-adapt replay log — promotion
        changed the shard's serving state, and a respawned worker must
        rebuild exactly those weights (deterministic in ``(seed, device,
        train_indices)``) rather than revert to the bundle's.  Rejections
        log nothing: the last-good state was never replaced.
        """
        msg = {
            "op": "readapt",
            "device": device,
            "train_indices": [int(i) for i in np.asarray(train_indices).ravel()],
            "val_indices": [int(i) for i in np.asarray(val_indices).ravel()],
            "val_observed": [float(v) for v in np.asarray(val_observed).ravel()],
            "min_improvement": float(min_improvement),
        }
        reply = self._rpc_with_retry(self.shard_of(device), msg)
        if reply.get("promoted"):
            with self._stats_lock:
                self._adapt_log[device] = msg["train_indices"]
        return {
            key: reply.get(key)
            for key in (
                "device",
                "promoted",
                "version",
                "rho_current",
                "rho_candidate",
                "reason",
                "seconds",
            )
        }

    def num_architectures(self) -> int | None:
        """Table size for request validation, when the space is resolvable."""
        task = self.task if self.task is not None else self.spec.task
        space_name = getattr(task, "space", None)
        if space_name is None:
            return None
        try:
            from repro.spaces.registry import get_space

            return int(get_space(space_name).num_architectures())
        except Exception:
            return None

    # --------------------------------------------------------- observability
    @property
    def workers_alive(self) -> int:
        """Live worker processes right now (computed, not cached)."""
        return sum(
            1 for h in self._handles if h is not None and h.process.is_alive()
        )

    @property
    def degraded_shards(self) -> list[int]:
        """Shards at/over the consecutive-spawn-failure threshold (the
        respawn circuit breaker tripped; ``/healthz`` reports them)."""
        with self._stats_lock:
            return [
                wid
                for wid, failures in enumerate(self._spawn_failures)
                if failures >= self.spawn_failure_threshold
            ]

    @property
    def queue_depth(self) -> int:
        """Requests waiting across every shard's batch window."""
        return sum(b.queue_depth for b in self._batchers)

    @property
    def queue_depths(self) -> list[int]:
        """Per-shard queue depths, indexed by worker id."""
        return [b.queue_depth for b in self._batchers]

    @property
    def hot_devices(self) -> list[str]:
        """Union of warm/adapted devices across live workers (best effort)."""
        devices: list[str] = []
        for entry in self.metrics_rollup()["per_worker"]:
            devices.extend(entry.get("hot_devices", ()))
        return devices

    def metrics_rollup(self) -> dict:
        """Fleet metrics: per-worker snapshots plus aggregate gauges.

        Per-worker stats are fetched over the worker channel with a short
        soft deadline — observability must not stall behind an in-flight
        multi-second adaptation, and a scrape timeout never kills the
        worker (the channel drops the late reply); a busy worker just
        reports ``stats: null`` this scrape.
        """
        per_worker: list[dict] = []
        for wid in range(self.n_workers):
            handle = self._handles[wid]
            entry: dict = {
                "worker": wid,
                "alive": bool(handle is not None and handle.process.is_alive()),
                "pid": None if handle is None else handle.pid,
                "stats": None,
            }
            if entry["alive"]:
                try:
                    reply = handle.channel.request({"op": "metrics"}, 2.0)
                    if isinstance(reply, dict) and reply.get("ok"):
                        for key in (
                            "stats",
                            "hot_devices",
                            "plan_cache_entries",
                            "plan_buffer_bytes",
                            "score_cache_entries",
                            "predictor_versions",
                        ):
                            entry[key] = reply.get(key)
                except (TransportError, OSError, TimeoutError):
                    pass  # reported as stats: null; the monitor handles death
            per_worker.append(entry)
        aggregate: dict = {}
        complete = []
        for entry in per_worker:
            stats = entry.get("stats")
            if not stats:
                continue
            complete.append(stats.get("warmup_complete", False))
            for key, value in stats.items():
                if isinstance(value, bool):
                    continue
                if isinstance(value, Number):
                    aggregate[key] = aggregate.get(key, 0) + value
        if complete:
            aggregate["warmup_complete"] = all(complete)
        # Device affinity means each device's version counter lives on
        # exactly one worker — the fleet view is a plain merge.
        versions: dict[str, int] = {}
        for entry in per_worker:
            versions.update(entry.get("predictor_versions") or {})
        with self._stats_lock:
            deaths, respawns, retries = (
                self.deaths_total,
                self.respawns_total,
                self.retries_total,
            )
            spawn_failures = list(self._spawn_failures)
            spawn_failures_total = self.spawn_failures_total
        return {
            # Counted from this scrape's entries, so a respawn that lands
            # mid-scrape can't make the gauge and per_worker disagree.
            "workers_alive": sum(1 for entry in per_worker if entry["alive"]),
            "workers_total": self.n_workers,
            "worker_deaths_total": deaths,
            "worker_respawns_total": respawns,
            "retries_total": retries,
            "spawn_failures_total": spawn_failures_total,
            "shard_spawn_failures": spawn_failures,
            "degraded_shards": self.degraded_shards,
            "shard_queue_depths": self.queue_depths,
            "predictor_versions": versions,
            "per_worker": per_worker,
            "session": aggregate,
        }
