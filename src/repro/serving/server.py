"""HTTP serving layer with dynamic micro-batching.

This module turns a :class:`~repro.serving.session.PredictorSession` into a
network service.  Three pieces, each usable on its own:

* :class:`MicroBatcher` — the request coalescer.  Handler threads enqueue
  ``(device, indices)`` and block; a single dispatcher thread collects
  requests until the batch window closes (``max_batch`` architectures
  accumulated, or ``max_wait_ms`` elapsed since the window opened,
  whichever comes first), groups them by device, and runs **one**
  vectorized ``predict`` per device group.  Encoding and the GNN forward
  are amortized across every concurrent client in the window.
* :class:`ServerMetrics` — thread-safe counters plus batch-size and
  request-latency histograms, serialized by ``GET /metrics``.
* :class:`PredictorServer` — a stdlib ``ThreadingHTTPServer`` exposing the
  JSON API (``POST /predict``, ``POST /measurements``, ``GET /devices``,
  ``GET /healthz``, ``GET /metrics``) with graceful shutdown: stop
  accepting, then drain every queued prediction before the dispatcher
  exits.  ``/measurements`` feeds an optional
  :class:`~repro.serving.adaptation.AdaptationManager` (drift-gated
  background re-adaptation); the manager's lifecycle rides the server's.

The server only requires ``predict_batch(device, indices) -> scores`` (or
the :class:`~repro.core.estimator.LatencyEstimator` ``predict`` form) from
the object it fronts, so any estimator can be served; the richer endpoints
(``/devices``, session cache stats) light up when a full
:class:`PredictorSession` is behind it.
"""
from __future__ import annotations

import json
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import numpy as np

_MAX_BODY_BYTES = 8 << 20  # reject absurd request bodies before parsing

# Histogram bucket upper bounds (inclusive); the last bucket catches the tail.
LATENCY_BUCKETS_MS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, float("inf"))
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, float("inf"))


def _bucket_key(value: float, buckets: tuple) -> str:
    for b in buckets:
        if value <= b:
            return "+Inf" if b == float("inf") else f"le_{b:g}"
    return "+Inf"


class ServerMetrics:
    """Thread-safe serving counters and histograms.

    Request latencies additionally feed a bounded recent window
    (``window`` most recent requests) from which exact p50/p90/p99 are
    computed — histograms alone would only bound the percentiles.
    """

    def __init__(self, window: int = 2048):
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.requests_total = 0
        self.errors_total = 0
        self.batches_total = 0
        self.batched_requests_total = 0
        self.batched_archs_total = 0
        self.batch_seconds_total = 0.0
        self.batch_size_hist = {_bucket_key(b, BATCH_SIZE_BUCKETS): 0 for b in BATCH_SIZE_BUCKETS}
        self.latency_hist_ms = {_bucket_key(b, LATENCY_BUCKETS_MS): 0 for b in LATENCY_BUCKETS_MS}
        self._recent_ms: deque[float] = deque(maxlen=window)
        # Percentiles memoized per window version: a busy /metrics poller
        # must not re-sort the whole window on every scrape (nor tax the
        # request path's lock).
        self._recent_version = 0
        self._pct_cache: tuple[int, dict] = (-1, {})

    # ------------------------------------------------------------- recording
    def record_request(self, seconds: float, error: bool = False) -> None:
        """One HTTP ``/predict`` round trip (including queueing time)."""
        ms = seconds * 1e3
        with self._lock:
            self.requests_total += 1
            if error:
                self.errors_total += 1
            self.latency_hist_ms[_bucket_key(ms, LATENCY_BUCKETS_MS)] += 1
            self._recent_ms.append(ms)
            self._recent_version += 1

    def record_batch(self, n_requests: int, n_archs: int, seconds: float) -> None:
        """One coalesced dispatch (one vectorized predict call)."""
        with self._lock:
            self.batches_total += 1
            self.batched_requests_total += n_requests
            self.batched_archs_total += n_archs
            self.batch_seconds_total += seconds
            self.batch_size_hist[_bucket_key(n_requests, BATCH_SIZE_BUCKETS)] += 1

    # ------------------------------------------------------------- reporting
    def latency_percentiles(self) -> dict:
        with self._lock:
            version = self._recent_version
            cached_version, cached = self._pct_cache
            if cached_version == version:
                return dict(cached)
            arr = np.asarray(self._recent_ms)
        if arr.size == 0:
            result = {"p50_ms": None, "p90_ms": None, "p99_ms": None}
        else:
            # Nearest-rank percentile: ceil(q*n)-th order statistic
            # (1-indexed).  np.partition places every requested rank at its
            # sorted position in O(n) — no full sort of the window.
            n = arr.size
            rank = lambda q: max(0, min(n - 1, int(np.ceil(q * n)) - 1))
            ranks = sorted({rank(q) for q in (0.50, 0.90, 0.99)})
            part = np.partition(arr, ranks)
            result = {
                "p50_ms": float(part[rank(0.50)]),
                "p90_ms": float(part[rank(0.90)]),
                "p99_ms": float(part[rank(0.99)]),
            }
        with self._lock:
            # Stamped with the version the window had when snapshotted, so a
            # racing append just means one extra recompute next scrape.
            self._pct_cache = (version, result)
        return dict(result)

    def snapshot(self) -> dict:
        """Plain-dict view of every counter (the ``/metrics`` payload core)."""
        with self._lock:
            batches = self.batches_total
            snap = {
                "uptime_seconds": time.time() - self.started_at,
                "requests_total": self.requests_total,
                "errors_total": self.errors_total,
                "batches_total": batches,
                "batched_requests_total": self.batched_requests_total,
                "batched_archs_total": self.batched_archs_total,
                "batch_seconds_total": self.batch_seconds_total,
                "mean_batch_requests": (self.batched_requests_total / batches) if batches else None,
                "mean_batch_archs": (self.batched_archs_total / batches) if batches else None,
                "batch_size_hist": dict(self.batch_size_hist),
                "latency_hist_ms": dict(self.latency_hist_ms),
            }
        snap.update(self.latency_percentiles())
        return snap


class _Pending:
    """One queued prediction awaiting its batch."""

    __slots__ = ("device", "indices", "done", "result", "error", "cancelled")

    def __init__(self, device: str, indices: np.ndarray):
        self.device = device
        self.indices = indices
        self.done = threading.Event()
        self.result: np.ndarray | None = None
        self.error: Exception | None = None
        self.cancelled = False  # set when the submitter gave up (timeout)


class MicroBatcher:
    """Coalesce concurrent predict requests into vectorized batches.

    Parameters
    ----------
    predict_fn: ``(device, indices) -> np.ndarray`` — the vectorized
        scorer, e.g. :meth:`PredictorSession.predict_batch`.
    max_batch: close the window once this many *architectures* are queued
        (a single oversized request is never split — it dispatches whole).
    max_wait_ms: close the window this long after the first request
        arrives, even if ``max_batch`` was not reached.  ``0`` disables
        waiting: whatever is queued at dispatch time is taken, so lone
        requests are never delayed.
    metrics: optional :class:`ServerMetrics` receiving per-batch records.
    n_dispatchers: dispatcher thread count.  With more than one, up to
        ``n_dispatchers`` batch windows are *in flight* concurrently — the
        outstanding-window credit that lets transport to a sharded worker
        overlap that worker's compute (pipelining).  ``predict_fn`` must
        then be safe to call from several threads at once.

    Requests for different devices may share a window; dispatch groups by
    device and issues one predict call per device group, preserving
    arrival order within each group.
    """

    def __init__(
        self,
        predict_fn,
        max_batch: int = 64,
        max_wait_ms: float = 5.0,
        metrics: ServerMetrics | None = None,
        n_dispatchers: int = 1,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if n_dispatchers < 1:
            raise ValueError(f"n_dispatchers must be >= 1, got {n_dispatchers}")
        self.predict_fn = predict_fn
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.metrics = metrics
        self.n_dispatchers = int(n_dispatchers)
        self._queue: deque[_Pending] = deque()
        self._cv = threading.Condition()
        self._closed = False
        self._threads: list[threading.Thread] = []

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "MicroBatcher":
        with self._cv:
            # Guard and publication share the lock: concurrent start() calls
            # must not each spawn dispatchers, and a submit() racing start()
            # must see the threads once the lock is released.
            if self._threads:
                raise RuntimeError("batcher already started")
            self._closed = False
            self._threads = [
                threading.Thread(target=self._run, name=f"micro-batcher-{i}", daemon=True)
                for i in range(self.n_dispatchers)
            ]
            for t in self._threads:
                t.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: refuse new requests, drain queued ones.

        Every request enqueued before ``stop()`` still receives its result;
        the dispatcher threads exit only once the queue is empty.
        """
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        for t in self._threads:
            t.join()
        self._threads = []

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a batch window."""
        with self._cv:
            return len(self._queue)

    # ---------------------------------------------------------------- submit
    def submit(self, device: str, indices, timeout: float | None = None) -> np.ndarray:
        """Enqueue one request and block until its batch was served.

        Raises whatever ``predict_fn`` raised for the batch, ``TimeoutError``
        if no result arrived within ``timeout`` seconds, or ``RuntimeError``
        if the batcher is shut down (or was never started).
        """
        req = _Pending(device, np.asarray(indices, dtype=np.int64))
        with self._cv:
            if self._closed or not self._threads:
                raise RuntimeError("batcher is not running")
            self._queue.append(req)
            self._cv.notify_all()
        if not req.done.wait(timeout):
            # Shed the load: a waiter that gave up must not cost a forward.
            req.cancelled = True
            raise TimeoutError(f"no result for device {device!r} within {timeout}s")
        if req.error is not None:
            raise req.error
        return req.result

    # ------------------------------------------------------------- dispatcher
    def _take_batch(self) -> list[_Pending]:
        """Collect one batch window; empty list means shut down and drained."""
        with self._cv:
            while not self._queue:
                if self._closed:
                    return []
                self._cv.wait()
            batch = [self._queue.popleft()]
            total = len(batch[0].indices)
            deadline = time.perf_counter() + self.max_wait_ms / 1e3
            while total < self.max_batch:
                if self._queue:
                    nxt = self._queue[0]
                    if total + len(nxt.indices) > self.max_batch:
                        break  # would overshoot the cap; next window takes it
                    batch.append(self._queue.popleft())
                    total += len(nxt.indices)
                    continue
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or self._closed:
                    break
                self._cv.wait(remaining)
            return batch

    def _run(self) -> None:
        while True:
            batch = self._take_batch()
            if not batch:
                return
            try:
                self._dispatch(batch)
            except Exception as exc:  # defensive: the dispatcher must not die
                for r in batch:
                    if not r.done.is_set():
                        r.error = exc
                        r.done.set()

    def _dispatch(self, batch: list[_Pending]) -> None:
        groups: dict[str, list[_Pending]] = {}
        for req in batch:
            if req.cancelled:  # submitter timed out; don't pay for its forward
                req.done.set()
                continue
            groups.setdefault(req.device, []).append(req)
        for device, reqs in groups.items():
            idx = np.concatenate([r.indices for r in reqs])
            t0 = time.perf_counter()
            try:
                # atleast_1d: a predict_fn returning a scalar for a length-1
                # batch must not crash the length check below.
                scores = np.atleast_1d(np.asarray(self.predict_fn(device, idx))) if len(idx) else np.empty(0)
                if len(scores) != len(idx):
                    raise RuntimeError(
                        f"predict_fn returned {len(scores)} scores for {len(idx)} indices"
                    )
            except Exception as exc:
                if len(reqs) == 1:
                    reqs[0].error = exc
                    reqs[0].done.set()
                else:
                    # One bad payload must not poison co-batched neighbors:
                    # retry each request alone so only the culprit errors.
                    for r in reqs:
                        self._dispatch([r])
                continue
            elapsed = time.perf_counter() - t0
            offset = 0
            for r in reqs:
                n = len(r.indices)
                r.result = scores[offset : offset + n]
                offset += n
                r.done.set()
            if self.metrics is not None:
                self.metrics.record_batch(len(reqs), len(idx), elapsed)


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # Listen backlog: a burst of concurrent clients opening connections must
    # not see resets (the stdlib default of 5 drops under modest fan-in).
    request_queue_size = 128
    app: "PredictorServer"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive; every response carries Content-Length
    server_version = "repro-serve"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the /metrics endpoint is the observability surface, not stderr

    def _json(self, status: int, payload: dict) -> None:
        # Compact separators: no payload byte is spent on whitespace.
        body = json.dumps(payload, separators=(",", ":")).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        app = self.server.app
        path = urlsplit(self.path).path
        _, body_err = self._read_body()  # GET bodies are legal; drain for keep-alive
        if body_err is not None:
            self._json(*body_err)
            return
        if path == "/healthz":
            self._json(200, app.health())
        elif path == "/devices":
            self._json(200, app.devices())
        elif path == "/metrics":
            self._json(200, app.metrics_snapshot())
        else:
            self._json(404, {"error": f"unknown path {path!r}"})

    def _read_body(self) -> tuple[bytes | None, tuple[int, dict] | None]:
        """Consume the request body; returns ``(body, error_response)``.

        The body must be read (or the connection marked for close) on
        *every* response path — under HTTP/1.1 keep-alive the stdlib would
        otherwise parse the leftover bytes as the next request line.
        A malformed/negative ``Content-Length`` or an oversized body can't
        be drained reliably, so those mark the connection for close and
        return the ``(status, payload)`` to respond with.
        """
        if self.headers.get("Transfer-Encoding"):
            # Chunked bodies aren't de-chunked by the stdlib handler; the
            # unread chunks would desync the connection, so require a length.
            self.close_connection = True
            return None, (411, {"error": "Transfer-Encoding not supported; send Content-Length"})
        raw = self.headers.get("Content-Length")
        try:
            length = int(raw) if raw is not None else 0
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            return None, (400, {"error": f"invalid Content-Length: {raw!r}"})
        if length > _MAX_BODY_BYTES:
            self.close_connection = True  # don't read gigabytes just to discard
            return None, (413, {"error": f"body exceeds {_MAX_BODY_BYTES} bytes"})
        return self.rfile.read(length) if length else b"", None

    def do_POST(self):
        app = self.server.app
        path = urlsplit(self.path).path
        body, body_err = self._read_body()
        handler = {
            "/predict": app.handle_predict,
            "/measurements": app.handle_measurements,
        }.get(path)
        if handler is None:
            self._json(404, {"error": f"unknown path {path!r}"})
            return
        app._request_started()
        try:
            t0 = time.perf_counter()
            try:
                if body_err is not None:
                    status, payload = body_err
                else:
                    try:
                        payload_in = json.loads(body or b"")
                    except json.JSONDecodeError as exc:
                        status, payload = 400, {"error": f"invalid JSON body: {exc}"}
                    else:
                        status, payload = handler(payload_in)
            except Exception as exc:  # never let a handler thread die silently
                status, payload = 500, {"error": f"internal error: {exc}"}
            app.metrics.record_request(time.perf_counter() - t0, error=status >= 400)
            self._json(status, payload)
        finally:
            app._request_finished()


class PredictorServer:
    """JSON-over-HTTP front for a predictor session, with micro-batching.

    Parameters
    ----------
    session: object with ``predict_batch(device, indices)`` (preferred) or
        the estimator-form ``predict(device, indices)``; normally a
        :class:`~repro.serving.session.PredictorSession`.
    host, port: bind address; ``port=0`` picks a free port (see ``url``).
    max_batch, max_wait_ms: the batching window, see :class:`MicroBatcher`.
    request_timeout_s: per-request cap on waiting for a batched result —
        covers cold-device adaptation, which trains for seconds on first
        touch of a new device.
    max_indices: cap on architectures per request (a single request is
        never split across windows, so without a cap one client could
        monopolize the dispatcher with an arbitrarily large forward).
    adaptation: optional
        :class:`~repro.serving.adaptation.AdaptationManager` fed by
        ``POST /measurements``.  The server owns its lifecycle — started
        with :meth:`start`, stopped first in :meth:`shutdown` (an
        in-flight re-adapt must finish while the backend still answers) —
        and surfaces its state in ``/healthz`` and ``/metrics``.

    Use as a context manager or call :meth:`start` / :meth:`shutdown`;
    :meth:`serve_forever` blocks (the ``repro serve`` CLI entry point).
    """

    def __init__(
        self,
        session,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 64,
        max_wait_ms: float = 5.0,
        request_timeout_s: float = 300.0,
        max_indices: int = 4096,
        adaptation=None,
    ):
        self.session = session
        self.adaptation = adaptation
        self.host = host
        self.port = port
        self.request_timeout_s = float(request_timeout_s)
        self.max_indices = int(max_indices)
        self.metrics = ServerMetrics()
        # Mode dispatch: a sharded router (multi-process worker pool) ships
        # its own per-shard batchers and already speaks the batcher surface
        # (start/stop/submit/queue_depth); a plain session gets fronted by
        # one in-process MicroBatcher.  Duck-typed so serving does not
        # import the router (and its multiprocessing machinery) unless a
        # router is actually used.
        self.sharded = hasattr(session, "submit") and hasattr(session, "workers_alive")
        if self.sharded:
            self.batcher = session
        else:
            predict_fn = getattr(session, "predict_batch", None) or session.predict
            self.batcher = MicroBatcher(
                predict_fn, max_batch=max_batch, max_wait_ms=max_wait_ms, metrics=self.metrics
            )
        self._httpd: _HTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._shutdown_lock = threading.Lock()
        self._running = False
        # Set by shutdown(); wait() parks on it instead of poll-sleeping, so
        # a drain begins the instant it is requested.
        self._stopped = threading.Event()
        # In-flight /predict responses; shutdown waits for this to drain so
        # "every accepted request is answered" holds through process exit
        # (handler threads are daemonic and would otherwise die mid-write).
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "PredictorServer":
        if self._running:
            raise RuntimeError("server already started")
        self.batcher.start()
        try:
            self._httpd = _HTTPServer((self.host, self.port), _Handler)
        except Exception:
            self.batcher.stop()  # don't leak the dispatcher thread on bind failure
            raise
        self._httpd.app = self
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(target=self._httpd.serve_forever, name="http-server", daemon=True)
        self._thread.start()
        self._stopped.clear()
        self._running = True
        if self.adaptation is not None:
            self.adaptation.start()
        return self

    def shutdown(self) -> None:
        """Graceful stop: close the listener, then drain queued predictions."""
        with self._shutdown_lock:
            if not self._running:
                return
            self._running = False
            self._stopped.set()
        if self.adaptation is not None:
            # First: a background re-adapt in flight needs the batcher (and,
            # sharded, the workers) alive to finish or fail cleanly.
            self.adaptation.stop()
        self._httpd.shutdown()
        self._thread.join()
        self.batcher.stop()  # drains: every accepted request still answers
        with self._inflight_cv:
            # The batcher computed every queued result; give the handler
            # threads a bounded window to finish writing their responses.
            self._inflight_cv.wait_for(lambda: self._inflight == 0, timeout=10.0)
        self._httpd.server_close()

    def _request_started(self) -> None:
        with self._inflight_cv:
            self._inflight += 1

    def _request_finished(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            self._inflight_cv.notify_all()

    def __enter__(self) -> "PredictorServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def wait(self) -> None:
        """Block while the server runs; returns on ``KeyboardInterrupt``
        (without shutting down — the caller decides when to drain).

        Event-driven: parks on the shutdown event rather than polling, so
        a concurrent :meth:`shutdown` releases the waiter immediately
        instead of after the next poll tick.
        """
        try:
            self._stopped.wait()
        except KeyboardInterrupt:
            pass

    def serve_forever(self) -> None:
        """Start and block until ``KeyboardInterrupt``, then drain and exit."""
        self.start()
        try:
            self.wait()
        finally:
            self.shutdown()

    @property
    def url(self) -> str:
        """Base URL (resolves the real port when constructed with port=0)."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------- endpoints
    def _num_architectures(self) -> int | None:
        fn = getattr(self.session, "num_architectures", None)
        if fn is not None:  # a router resolves its space itself (may be None)
            return fn()
        try:
            return int(self.session.pipeline.space.num_architectures())
        except AttributeError:
            return None

    def handle_predict(self, payload) -> tuple[int, dict]:
        """Validate one ``/predict`` payload and serve it through the batcher.

        Returns ``(http_status, response_dict)``; exposed for direct unit
        testing without sockets.
        """
        if not isinstance(payload, dict):
            return 400, {"error": "body must be a JSON object"}
        device = payload.get("device")
        indices = payload.get("indices")
        if not isinstance(device, str) or not device:
            return 400, {"error": "'device' must be a non-empty string"}
        if not isinstance(indices, list) or not indices:
            return 400, {"error": "'indices' must be a non-empty list of integers"}
        if len(indices) > self.max_indices:
            return 400, {"error": f"too many indices: {len(indices)} > {self.max_indices} per request"}
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in indices):
            return 400, {"error": "'indices' must contain only integers"}
        n = self._num_architectures()
        if n is not None:
            bad = [i for i in indices if not 0 <= i < n]
            if bad:
                return 400, {"error": f"indices out of range [0, {n}): {bad[:8]}"}
        try:
            scores = self.batcher.submit(device, indices, timeout=self.request_timeout_s)
        except TimeoutError as exc:
            return 504, {"error": str(exc)}
        except (KeyError, ValueError) as exc:
            return 400, {"error": str(exc)}
        except RuntimeError as exc:
            # "batcher is not running" during shutdown, or a session that
            # was never pretrained — the client can't fix the latter either.
            return 503, {"error": str(exc)}
        out = [float(s) for s in scores]
        if not all(np.isfinite(out)):
            # NaN/Infinity would serialize as invalid JSON in a 200 response.
            return 500, {"error": f"predictor produced non-finite scores for device {device!r}"}
        return 200, {"device": device, "count": len(out), "scores": out}

    def handle_measurements(self, payload) -> tuple[int, dict]:
        """Validate one ``POST /measurements`` payload and ingest it.

        Payload shape mirrors ``/predict``: ``{"device": d, "indices":
        [...], "latencies": [...]}`` — parallel arrays of architecture
        indices and their *observed* latencies on the device.  Ingest is
        all-or-nothing; a rejected batch answers 400 with the named
        rejection ``kind`` (see
        :class:`~repro.serving.adaptation.MeasurementError`) and mutates
        nothing.
        """
        from repro.serving.adaptation import MeasurementError

        if self.adaptation is None:
            return 404, {"error": "online adaptation is not enabled on this server"}
        if not isinstance(payload, dict):
            return 400, {"error": "body must be a JSON object"}
        device = payload.get("device")
        indices = payload.get("indices")
        latencies = payload.get("latencies")
        if not isinstance(device, str) or not device:
            return 400, {"error": "'device' must be a non-empty string"}
        if not isinstance(indices, list) or not indices:
            return 400, {"error": "'indices' must be a non-empty list of integers"}
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in indices):
            return 400, {"error": "'indices' must contain only integers"}
        if not isinstance(latencies, list) or len(latencies) != len(indices):
            return 400, {
                "error": "'latencies' must be a list of numbers, one per index"
            }
        if not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in latencies
        ):
            return 400, {"error": "'latencies' must contain only numbers"}
        try:
            result = self.adaptation.ingest(device, indices, latencies)
        except MeasurementError as exc:
            return 400, {"error": str(exc), "kind": exc.kind}
        return 200, result

    def health(self) -> dict:
        pipeline = getattr(self.session, "pipeline", None)
        payload = {
            "status": "ok",
            "pretrained": bool(getattr(pipeline, "is_pretrained", True)),
            "task": getattr(getattr(self.session, "task", None), "name", None),
            "uptime_seconds": time.time() - self.metrics.started_at,
            "queue_depth": self.batcher.queue_depth,
        }
        if self.sharded:
            # Health degrades while any shard's worker is down (its devices
            # queue or retry until the monitor respawns it) and recovers on
            # its own — the fault-injection suite pins this trajectory.
            alive = self.session.workers_alive
            total = self.session.n_workers
            payload["workers_alive"] = alive
            payload["workers_total"] = total
            if alive < total:
                payload["status"] = "degraded"
            # Shards whose respawn circuit breaker tripped (consecutive
            # startup failures): they stay degraded until a spawn succeeds,
            # unlike a plain dead worker the monitor revives next tick.
            degraded = list(getattr(self.session, "degraded_shards", []))
            payload["degraded_shards"] = degraded
            if degraded:
                payload["status"] = "degraded"
        if self.adaptation is not None:
            # "stalled" means the crash-loop breaker tripped: the fleet
            # keeps serving last-good weights, but drift recovery for the
            # named devices is paused until their backoff expires.
            adapt_health = self.adaptation.health()
            payload["adaptation"] = adapt_health
            if adapt_health.get("status") == "stalled":
                payload["status"] = "degraded"
        return payload

    def devices(self) -> dict:
        known: list[str] = []
        space = None
        try:
            space = self.session.pipeline.space.name
        except AttributeError:
            # A router carries no pipeline; its task names the space.
            space = getattr(getattr(self.session, "task", None), "space", None)
        try:
            from repro.hardware.registry import devices_for_space

            known = list(devices_for_space(space)) if space else []
        except (AttributeError, KeyError):
            pass
        return {
            "space": space,
            "devices": known,
            "hot": list(getattr(self.session, "hot_devices", [])),
        }

    def metrics_snapshot(self) -> dict:
        snap = self.metrics.snapshot()
        # The bound address: with port=0 the kernel picks, and parallel CI
        # jobs (or a fleet supervisor) read the real port from here.
        snap["host"] = self.host
        snap["port"] = self.port
        snap["queue_depth"] = self.batcher.queue_depth
        snap["batching"] = {"max_batch": self.batcher.max_batch, "max_wait_ms": self.batcher.max_wait_ms}
        if self.adaptation is not None:
            # Online-adaptation observability: per-device drift scores,
            # predictor versions, adaptation lag, and the fleet's
            # promotion/rejection/rollback counters.
            snap["adaptation"] = self.adaptation.snapshot()
        if self.sharded:
            return self._sharded_snapshot(snap)
        # Whether predictions replay compiled plans and whether device
        # cold-start fine-tuning runs the compiled training path (None: the
        # session has no compiled path).  Plan-cache counters and adaptation
        # wall-clock ride along in session.* (plan_hits / plan_compiles /
        # plan_invalidations / adapt_seconds / last_adapt_seconds).
        snap["compiled_serving"] = getattr(self.session, "use_compiled", None)
        snap["compiled_adapt"] = getattr(self.session, "use_compiled_adapt", None)
        # Execution precision of served plans ("f64" | "f32"; None when the
        # session has no dtype policy, e.g. a bare predict_fn stub).
        snap["plan_dtype"] = getattr(self.session, "plan_dtype", None)
        stats = getattr(self.session, "stats", None)
        if stats is not None and hasattr(stats, "snapshot"):
            snap["session"] = stats.snapshot()
            # Warmup-artifact observability, surfaced at the top level so a
            # readiness probe needn't dig into session.*: did the bundle
            # load, how many plans, and how long restoring them took.
            sess = snap["session"]
            for key in ("plans_loaded", "plan_load_seconds", "warmup_complete"):
                if key in sess:
                    snap[key] = sess[key]
        entries = getattr(self.session, "plan_cache_entries", None)
        if entries is not None:
            snap["plan_cache_entries"] = dict(entries)
        buf_bytes = getattr(self.session, "plan_buffer_bytes", None)
        if buf_bytes is not None:
            snap["plan_buffer_bytes"] = int(buf_bytes)
        # Score-table residency (hit/miss/bypass counters ride along in
        # session.*: score_hits / score_misses / score_bypass / ...).
        cached_scores = getattr(self.session, "score_cache_entries", None)
        if cached_scores is not None:
            snap["score_cache_entries"] = int(cached_scores)
        # Which install-generation each device is serving (bumps on cold
        # adapt, warmup load, and promotion — never resets on eviction).
        versions = getattr(self.session, "predictor_versions", None)
        if versions is not None:
            snap["predictor_versions"] = dict(versions)
        return snap

    def _sharded_snapshot(self, snap: dict) -> dict:
        """Worker-pool ``/metrics``: rollup of per-worker stats + fleet gauges.

        Request counters and latency histograms come from this server's own
        metrics (recorded at the HTTP layer); batch-window counters come
        from the router's shared per-shard batcher metrics; session-level
        counters are summed across workers, with each worker's raw snapshot
        preserved under ``workers.per_worker``.
        """
        router = self.session
        batch_snap = router.metrics.snapshot()
        for key in (
            "batches_total",
            "batched_requests_total",
            "batched_archs_total",
            "batch_seconds_total",
            "mean_batch_requests",
            "mean_batch_archs",
            "batch_size_hist",
        ):
            snap[key] = batch_snap[key]
        snap["batching"] = {
            "max_batch": router.max_batch,
            "max_wait_ms": router.max_wait_ms,
        }
        rollup = router.metrics_rollup()
        snap["session"] = rollup.pop("session")
        snap["workers_alive"] = rollup["workers_alive"]
        snap["workers_total"] = rollup["workers_total"]
        snap["workers"] = rollup
        snap["compiled_serving"] = getattr(router.spec, "use_compiled", None)
        snap["compiled_adapt"] = getattr(router.spec, "use_compiled_adapt", None)
        # Every shard serves the spec's dtype (worker warmup enforces it).
        snap["plan_dtype"] = getattr(router.spec, "dtype", None)
        # Data-plane shape: how many batch windows may be in flight per shard.
        snap["pipeline_depth"] = int(getattr(router, "pipeline_depth", 1))
        snap["score_cache_entries"] = sum(
            entry.get("score_cache_entries") or 0 for entry in rollup["per_worker"]
        )
        # Merged across shards (device affinity: each device's counter lives
        # on exactly one worker).  Resets with a respawned worker's session;
        # the AdaptationManager's counters are the respawn-proof view.
        snap["predictor_versions"] = dict(rollup.get("predictor_versions", {}))
        for key in ("plans_loaded", "plan_load_seconds", "warmup_complete"):
            if key in snap["session"]:
                snap[key] = snap["session"][key]
        return snap
