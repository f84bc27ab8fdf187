"""The server under test, in its own process.

``python3 perfbench/harness.py --mode single|sharded --cache DIR
--warm DEV[,DEV...] [--trace-dir DIR]`` builds what ``repro serve`` builds
at its defaults — a ``PredictorSession`` (``single``) or a
``ShardedRouter`` with ``nproc`` forked workers (``sharded``) behind a
``PredictorServer`` with an ``AdaptationManager`` — from the cached N1
checkpoint, warms the listed devices, starts listening and prints one
``ready`` JSON line.  It then answers JSON commands on stdin, one reply
line each:

``trace``      ``{"on": bool}`` switch span recording (traced runs only);
``candidate``  scores, for ``indices``, of the shadow candidate the served
               session would build by re-adapting ``device`` on ``train``
               (nothing is installed);
``reference``  scores from a cache-off reference session in this process,
               for ``items`` of ``{"device", "indices", "train"}``; a
               ``train`` list first re-adapts the device on those pinned
               measurements, exactly as a promotion built it;
``readapts``   every ``PredictorSession.readapt`` call so far, with its
               pinned train slice and outcome;
``rss``        peak resident memory of this process plus its workers;
``stop``       graceful shutdown, span write-out, exit.
"""
from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import SERVE_DEFAULTS, SRC, emit, nproc, rss_peak_mb  # noqa: E402

WARM_INDICES = list(range(8))


class _QueueDepthProbe:
    """Samples the router's per-shard queue depths while tracing is on."""

    def __init__(self, router, flag, interval_s: float = 0.005):
        self.router, self.flag, self.interval_s = router, flag, interval_s
        self.max_depth = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(self.interval_s):
            if self.flag.value:
                self.max_depth = max(self.max_depth, max(self.router.queue_depths, default=0))

    def stop(self) -> int:
        self._stop.set()
        self._thread.join(timeout=2.0)
        return self.max_depth


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["single", "sharded"], required=True)
    ap.add_argument("--cache", required=True)
    ap.add_argument("--warm", required=True)
    ap.add_argument("--trace-dir", default=None)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    cache = Path(args.cache)

    flag = recorder = None
    if args.trace_dir:
        import tracing

        flag = multiprocessing.RawValue("b", 1)  # fork-shared: workers follow it
        recorder = tracing.Recorder(flag)
        tracing.install(recorder, Path(args.trace_dir))

    from repro.serving import AdaptationManager, PredictorServer, PredictorSession
    from repro.serving.session import PredictorSession as SessionClass
    from repro.transfer.pipeline import quick_config

    readapts: list[dict] = []
    orig_readapt = SessionClass.readapt

    @functools.wraps(orig_readapt)
    def logged_readapt(self, device, train_indices, *a, **k):
        report = orig_readapt(self, device, train_indices, *a, **k)
        readapts.append(
            {"device": device, "train": [int(i) for i in train_indices],
             "promoted": bool(report.get("promoted")), "version": report.get("version")}
        )
        return report

    SessionClass.readapt = logged_readapt

    cfg = quick_config(n_transfer_samples=SERVE_DEFAULTS["samples"])
    ckpt = cache / "ckpt.npz"
    probe = None
    if args.mode == "single":
        session = PredictorSession.from_checkpoint(
            ckpt, config=cfg, use_compiled=True, plan_dtype=SERVE_DEFAULTS["dtype"],
            max_cached_scores=SERVE_DEFAULTS["score_cache"],
        )
        backend = session
    else:
        from repro.serving import ShardedRouter, WorkerSpec

        session = None
        spec = WorkerSpec(
            checkpoint=str(ckpt), config=cfg, use_compiled=True,
            dtype=SERVE_DEFAULTS["dtype"], score_cache=SERVE_DEFAULTS["score_cache"],
        )
        backend = ShardedRouter(
            spec, n_workers=nproc(), max_batch=SERVE_DEFAULTS["max_batch"],
            max_wait_ms=SERVE_DEFAULTS["max_wait_ms"], binary=True,
            pipeline_depth=SERVE_DEFAULTS["pipeline_depth"],
        ).start()
        if flag is not None:
            probe = _QueueDepthProbe(backend, flag)
    t_built = time.perf_counter()
    warm = [d for d in args.warm.split(",") if d]
    with ThreadPoolExecutor(max_workers=max(1, len(warm))) as pool:
        # Concurrent, so a sharded fleet warms its shards in parallel; a
        # session serializes the calls on its own lock.
        list(pool.map(lambda d: backend.predict_batch(d, WARM_INDICES), warm))
    t_warm = time.perf_counter()
    manager = AdaptationManager(
        backend,
        drift_threshold=SERVE_DEFAULTS["drift_threshold"],
        adapt_interval_s=SERVE_DEFAULTS["adapt_interval_s"],
        min_window=SERVE_DEFAULTS["drift_window"],
        auto_adapt=True,
    )
    server = PredictorServer(
        backend, host="127.0.0.1", port=0, max_batch=SERVE_DEFAULTS["max_batch"],
        max_wait_ms=SERVE_DEFAULTS["max_wait_ms"], adaptation=manager,
    )
    server.start()
    emit({"ready": True, "port": server.port, "warm_s": t_warm - t_built})

    reference = None

    def reference_session():
        nonlocal reference
        if reference is None:
            reference = PredictorSession.from_pipeline(
                (session or PredictorSession.from_checkpoint(ckpt, config=cfg)).pipeline,
                use_compiled=True, plan_dtype=SERVE_DEFAULTS["dtype"], max_cached_scores=0,
            )
        return reference

    for line in sys.stdin:
        cmd = json.loads(line)
        op = cmd.get("cmd")
        if op == "trace":
            if flag is not None:
                flag.value = 1 if cmd.get("on") else 0
            emit({"ok": True})
        elif op == "candidate":
            # The shadow candidate a re-adapt on ``train`` would build,
            # deterministic in (seed, device, train), from the served
            # session's own off-lock candidate path (nothing is installed).
            # Lets the writer plan a window that provably drifts and
            # promotes.
            candidate = session.adapt_candidate(cmd["device"], cmd["train"])
            scores = candidate.predict(cmd["device"], cmd["indices"])
            emit({"ok": True, "scores": [float(s) for s in scores]})
        elif op == "reference":
            ref = reference_session()
            out = []
            for item in cmd["items"]:
                if item.get("train") is not None:
                    ref.adapt(item["device"], indices=item["train"])
                scores = ref.predict_batch(item["device"], item["indices"])
                out.append([float(s) for s in scores])
            emit({"ok": True, "scores": out})
        elif op == "readapts":
            emit({"ok": True, "readapts": readapts})
        elif op == "rss":
            pids = ["self"]
            if args.mode == "sharded":
                pids += [w["pid"] for w in backend.metrics_rollup()["per_worker"] if w["alive"]]
            emit({"ok": True, "rss_mb": sum(rss_peak_mb(p) for p in pids)})
        elif op == "stop":
            qmax = probe.stop() if probe is not None else 0
            server.shutdown()
            if recorder is not None:
                recorder.dump(Path(args.trace_dir))
            emit({"ok": True, "queue_depth_max": qmax})
            return 0
        else:
            emit({"ok": False, "error": f"unknown command {op!r}"})
    server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
