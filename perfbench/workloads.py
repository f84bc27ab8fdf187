"""The four workloads.  Each returns a :class:`Result`.

``serve-zipf`` / ``serve-zipf-sharded``  open-loop ``/predict`` traffic
    against a ``repro serve``-default server in its own process.
``sweep``       in-process full-table scoring through ``predict_batch``.
``adapt-drift`` a reader at 10 req/s while a writer cold-adapts unseen
    devices and drives drifting devices to a promotion.
"""
from __future__ import annotations

import json
import os
import resource
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import loadgen
import tracing
from common import (
    BENCH_DIR,
    REQ_INDICES,
    SERVE_DEFAULTS,
    SRC,
    constant_rate_schedule,
    latency_summary,
    spearman,
    zipf_trace,
)

SWEEP_CHUNK = 1024
LADDER_START_RPS = 24.0
LADDER_STEP = 1.2
LADDER_RUNGS = 7
N_COLD = 3  # 5 warm + 3 cold fill the 8-entry hot-device LRU: nothing is evicted
N_DRIFT = 2
WRITER_OFFSETS = (0.08, 0.24, 0.4, 0.56, 0.72)  # writer operation starts, in units of S
HELD_OUT = 256
SWEEP_SPEARMAN_FLOOR = 0.9


class BenchError(RuntimeError):
    """The run cannot produce a result (as opposed to a wrong result)."""


@dataclass
class Ctx:
    workload: str
    seed: int
    seconds: float
    trace: bool
    cache: Path
    meta: dict
    ref: np.ndarray  # [test device, arch] cache-off reference scores
    truth: np.ndarray  # [device, arch] LatencyDataset ground truth
    nconn: int
    trace_dir: Path | None

    def ref_row(self, device: str) -> np.ndarray:
        return self.ref[self.meta["test_devices"].index(device)]

    def truth_row(self, device: str) -> np.ndarray:
        return self.truth[self.meta["devices"].index(device)]


@dataclass
class Result:
    e2e: dict  # end-to-end metrics by BENCHMARK.json name
    named: dict  # the workload's own metrics: name -> (value, unit, note)
    attempted: int
    failed: int
    checks: list = field(default_factory=list)  # (name, ok, detail)
    phases: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def same_bits(served, reference) -> bool:
    a = np.asarray(served, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.int64), b.view(np.int64)))


# ------------------------------------------------------------------ harness
class Harness:
    """The server-under-test process and its stdin/stdout control channel."""

    def __init__(self, ctx: Ctx, mode: str, warm: list[str]):
        cmd = [sys.executable, str(BENCH_DIR / "harness.py"), "--mode", mode,
               "--cache", str(ctx.cache), "--warm", ",".join(warm)]
        if ctx.trace_dir is not None:
            cmd += ["--trace-dir", str(ctx.trace_dir)]
        # The server shares the box's cores with the generator (and, sharded,
        # with its workers): one BLAS thread per process, as a multi-process
        # deployment on a small box would run it.
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        self.log_path = (ctx.trace_dir or BENCH_DIR / ".results") / f"harness-{ctx.workload}.log"
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(self.log_path, "w")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            text=True, env=env,
        )
        self.ready = self._read(170.0)
        self.setup_s = time.perf_counter() - self.t_spawn
        if not self.ready.get("ready"):
            raise BenchError(f"server did not start: {self.ready}")

    def _read(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise BenchError(f"server process gave no reply (see {self.log_path})")
        return json.loads(line)

    def call(self, timeout: float = 120.0, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        reply = self._read(timeout)
        if not reply.get("ok"):
            raise BenchError(f"server command {cmd.get('cmd')} failed: {reply}")
        return reply

    def stop(self) -> dict:
        reply = self.call(cmd="stop", timeout=60.0)
        self.proc.wait(timeout=30.0)
        self._log.close()
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10.0)
        self._log.close()


def _check_against_table(ctx: Ctx, requests) -> tuple[int, int]:
    """Bitwise check of every served score against the reference table."""
    checked = bad = 0
    for r in requests:
        if r.ok:
            checked += 1
            if not same_bits(r.scores, ctx.ref_row(r.device)[r.indices]):
                bad += 1
    return checked, bad


def _phase_items(trace, cursor: list, n: int):
    items = trace[cursor[0]: cursor[0] + n]
    if len(items) < n:
        raise BenchError("trace exhausted")
    cursor[0] += n
    return items


# -------------------------------------------------------------------- serve
def serve(ctx: Ctx, sharded: bool) -> Result:
    devices = ctx.meta["test_devices"]
    S = ctx.seconds
    durations = {"r10": 0.45 * S, "r20": 0.2 * S}
    rung_s = max(0.5, 0.07 * S)
    rates = [LADDER_START_RPS * LADDER_STEP**k for k in range(LADDER_RUNGS)]
    n_needed = int(10 * durations["r10"] * (2 if ctx.trace else 1) + 20 * durations["r20"]
                   + sum(r * rung_s for r in rates)) + 16
    trace = zipf_trace(ctx.seed, devices, ctx.meta["n_archs"], n_needed)
    cursor = [0]
    gen_rec = tracing.Recorder() if ctx.trace else None

    harness = Harness(ctx, "sharded" if sharded else "single", devices)
    try:
        port = harness.ready["port"]
        clients = loadgen.open_clients("127.0.0.1", port, ctx.nconn)
        phases, rid = [], 0

        def phase(name, rate, duration):
            nonlocal rid
            dues = constant_rate_schedule(rate, duration)
            items = _phase_items(trace, cursor, len(dues))
            ph = loadgen.run_phase(clients, name, rate, items, dues, rid, gen_rec)
            rid += len(dues)
            phases.append(ph)
            return ph

        untraced = None
        if ctx.trace:
            harness.call(cmd="trace", on=False)
            untraced = phase("r10-untraced", 10.0, durations["r10"])
            harness.call(cmd="trace", on=True)
        before = clients[0].get("/metrics")
        r10 = phase("r10", 10.0, durations["r10"])
        r20 = phase("r20", 20.0, durations["r20"])
        rungs = []
        for rate in rates:
            rungs.append(phase(f"ladder-{rate:.1f}", rate, rung_s))
            if loadgen.ladder_done(rungs):
                break
        window = (r10.start, time.perf_counter())
        after = clients[0].get("/metrics")
        for c in clients:
            c.close()
        rss = harness.call(cmd="rss")["rss_mb"]
        stop = harness.stop()
    except BaseException:
        harness.kill()
        raise

    timed = [p for p in phases if p is not untraced]
    all_requests = [r for p in phases for r in p.requests]
    checked, bad = _check_against_table(ctx, all_requests)
    rate, why = loadgen.max_rate(rungs)
    s10, s20 = r10.summary(), r20.summary()
    attempted = sum(len(p.requests) for p in timed)
    failed = sum(p.failed for p in timed)
    res = Result(
        e2e={"setup_s": harness.setup_s, "peak_rss_mb": rss, "p50_ms": s10["p50_ms"],
             "tail_ms": s10["tail_ms"], "rate_per_s": rate},
        named={
            "p50_ms.r10": (s10["p50_ms"], "ms", f"n={s10['n']}"),
            "tail_ms.r10": (s10["tail_ms"], "ms", f"p{s10['tail_pct']:g}, n={s10['n']}"),
            "p50_ms.r20": (s20["p50_ms"], "ms", f"n={s20['n']}"),
            "tail_ms.r20": (s20["tail_ms"], "ms", f"p{s20['tail_pct']:g}, n={s20['n']}"),
            "max_rate_rps": (rate, "req/s", why),
            "failed_frac": (failed / attempted, "1", f"{failed}/{attempted}"),
        },
        attempted=attempted,
        failed=failed,
        checks=[("served scores bitwise == cache-off reference", bad == 0,
                 f"{checked} responses checked, {bad} mismatched")],
        phases=[p.summary() for p in phases],
    )
    if ctx.trace:
        spans = tracing.load_spans(ctx.trace_dir) + list(gen_rec.spans)
        n_ops = sum(len(p.requests) for p in timed)
        layers = tracing.layer_metrics(spans, window, n_ops)
        layers.update(tracing.counter_metrics(before, after))
        layers["workers.queue_depth_max"] = float(stop.get("queue_depth_max", 0))
        layers["setup.warm_s"] = harness.ready["warm_s"]
        layers["trace.overhead_ms"] = s10["p50_ms"] - untraced.summary()["p50_ms"]
        res.layers = layers
    return res


# -------------------------------------------------------------------- sweep
class _Flag:
    value = 1


def sweep(ctx: Ctx) -> Result:
    sys.path.insert(0, str(SRC))
    devices = ctx.meta["test_devices"]
    n = ctx.meta["n_archs"]
    rng = np.random.default_rng([ctx.seed, 0x5EEE])
    order = [devices[i] for i in rng.permutation(len(devices))]
    perm = rng.permutation(n)
    chunks = [perm[i: i + SWEEP_CHUNK] for i in range(0, n, SWEEP_CHUNK)]
    flag = _Flag()
    rec = None
    if ctx.trace:
        rec = tracing.Recorder(flag)
        tracing.install(rec)

    t0 = time.perf_counter()
    from repro.serving import PredictorSession
    from repro.transfer.pipeline import quick_config

    session = PredictorSession.from_checkpoint(
        ctx.cache / "ckpt.npz", config=quick_config(n_transfer_samples=SERVE_DEFAULTS["samples"])
    )
    t_warm = time.perf_counter()
    for device in devices:
        session.adapt(device).compile(SWEEP_CHUNK)
    setup_s = time.perf_counter() - t0
    warm_s = time.perf_counter() - t_warm

    before = session.stats.snapshot()
    lat_ms = []
    full_ms = {0: [], 1: []}  # full-size requests by whether they were traced
    traced_ms = 0.0
    scores = {d: np.empty(n) for d in devices}
    bad_rows = rows = 0
    t_start = time.perf_counter()
    passes = traced_ops = 0
    # Whole passes only (the cache sees the same fill and eviction pattern
    # every pass), and another pass only if it still fits in the run.
    while passes == 0 or (time.perf_counter() - t_start) * (passes + 1) / passes <= ctx.seconds:
        for device in order:
            ref = ctx.ref_row(device)
            for idx in chunks:
                if ctx.trace:
                    # Every other request untraced: the overhead baseline,
                    # under the same cache state and the same devices.
                    flag.value = len(lat_ms) % 2
                t = time.perf_counter()
                out = session.predict_batch(device, idx)
                dt = (time.perf_counter() - t) * 1e3
                lat_ms.append(dt)
                traced_ops += flag.value
                traced_ms += dt * flag.value
                if len(idx) == SWEEP_CHUNK:
                    full_ms[flag.value].append(dt)
                rows += len(idx)
                if not same_bits(out, ref[idx]):
                    bad_rows += 1
                if passes == 0:
                    scores[device][idx] = out
        passes += 1
    elapsed = time.perf_counter() - t_start
    t_end = time.perf_counter()
    after = session.stats.snapshot()

    rhos = {d: spearman(scores[d], ctx.truth_row(d)) for d in devices}
    mean_rho = float(np.mean(list(rhos.values())))
    summary = latency_summary(lat_ms)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    archs_per_s = rows / elapsed
    res = Result(
        e2e={"setup_s": setup_s, "peak_rss_mb": rss, "p50_ms": summary["p50_ms"],
             "tail_ms": summary["tail_ms"], "rate_per_s": archs_per_s},
        named={
            "sweep_archs_per_s": (archs_per_s, "archs/s", f"{rows} rows, {passes} pass(es)"),
            "sweep_spearman": (mean_rho, "1", " ".join(f"{d}={r:.4f}" for d, r in rhos.items())),
            "request_p50_ms": (summary["p50_ms"], "ms", f"{SWEEP_CHUNK}-arch request, n={summary['n']}"),
            "request_tail_ms": (summary["tail_ms"], "ms", f"p{summary['tail_pct']:g}"),
            "failed_frac": (0.0, "1", f"0/{len(lat_ms)}"),
        },
        attempted=len(lat_ms),
        failed=0,
        checks=[
            ("swept scores bitwise == cache-off reference", bad_rows == 0,
             f"{len(lat_ms)} requests ({rows} rows) checked, {bad_rows} requests mismatched"),
            (f"sweep_spearman >= {SWEEP_SPEARMAN_FLOOR}", mean_rho >= SWEEP_SPEARMAN_FLOOR,
             f"{mean_rho:.4f}"),
        ],
    )
    if ctx.trace:
        layers = tracing.layer_metrics(rec.spans, (t_start, t_end), traced_ops)
        layers.update(tracing.counter_metrics({"session": before}, {"session": after}))
        layers["workers.queue_depth_max"] = 0.0
        layers["setup.warm_s"] = warm_s
        replay_s = sum(sp[2] - sp[1] for sp in rec.spans if sp[0] == "replay.compiled_predict")
        layers["replay.wall_frac"] = replay_s * 1e3 / traced_ms  # of the traced requests' time
        layers["trace.overhead_ms"] = float(np.median(full_ms[1]) - np.median(full_ms[0]))
        res.layers = layers
    return res


# -------------------------------------------------------------- adapt-drift
def adapt_drift(ctx: Ctx) -> Result:
    meta = ctx.meta
    devices = meta["test_devices"]
    n = meta["n_archs"]
    S = ctx.seconds
    rng = np.random.default_rng([ctx.seed, 0xADA])
    # Fixed devices: cold-adapt and re-adapt cost depends on the device, and
    # the seed varies only the traffic, the indices and the drift windows.
    readers, drifting = devices[:2], devices[2: 2 + N_DRIFT]
    cold = meta["unseen_devices"][:N_COLD]
    pre_s = 0.25 * S if ctx.trace else 0.0
    trace = zipf_trace(ctx.seed, readers, n, int(10 * (S + 2 * pre_s)) + 64)
    cursor = [0]
    gen_rec = tracing.Recorder() if ctx.trace else None

    harness = Harness(ctx, "single", devices)
    writer_ops = []  # (kind, device, seconds or None)
    extra_checks = []  # (device, indices, served scores) of installed predictors
    held_out = []  # (device, truth device, indices, scores)
    try:
        port = harness.ready["port"]
        reader = loadgen.open_clients("127.0.0.1", port, 1)
        writer = loadgen.open_clients("127.0.0.1", port, 1)[0]
        phases, rid = [], 0

        def read_phase(name, duration):
            nonlocal rid
            dues = constant_rate_schedule(10.0, duration)
            items = _phase_items(trace, cursor, len(dues))
            ph = loadgen.run_phase(reader, name, 10.0, items, dues, rid, gen_rec)
            rid += len(dues)
            phases.append(ph)
            return ph

        untraced = traced_ref = None
        if ctx.trace:
            harness.call(cmd="trace", on=False)
            untraced = read_phase("reader-untraced", pre_s)
            harness.call(cmd="trace", on=True)
            traced_ref = read_phase("reader-traced", pre_s)
        plans = {d: _plan_drift(ctx, harness, rng, d) for d in drifting}
        before = writer.get("/metrics")

        def write():
            # One operation every 0.16 S, so the reader's backlog behind each
            # one drains before the next; each starts midway
            # between two reader requests (the reader starts 20 ms after this
            # thread), so no operation races a read for the session lock.
            t_write = time.perf_counter() + 0.02 + 0.05
            offsets = iter(WRITER_OFFSETS)

            def wait_turn():
                delay = t_write + next(offsets) * S - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)

            for device in cold:
                wait_turn()
                idx = sorted(int(i) for i in rng.choice(n, REQ_INDICES, replace=False))
                t = time.perf_counter()
                status, body = writer.post("/predict", {"device": device, "indices": idx})
                dt = time.perf_counter() - t
                ok = status == 200
                writer_ops.append(("cold", device, dt if ok else None))
                if ok:
                    extra_checks.append((device, idx, body["scores"]))
            for device in drifting:
                wait_turn()
                source = ctx.truth_row(meta["drift_source"][device])
                secs = _drive_drift(writer, device, *plans[device], source)
                writer_ops.append(("drift", device, secs))
                if secs is not None:
                    idx = sorted(int(i) for i in rng.choice(n, REQ_INDICES, replace=False))
                    status, body = writer.post("/predict", {"device": device, "indices": idx})
                    if status == 200:
                        extra_checks.append((device, idx, body["scores"]))

        wthread = threading.Thread(target=write, daemon=True)
        wthread.start()
        main = read_phase("reader", S)
        wthread.join(timeout=120.0)
        if wthread.is_alive():
            raise BenchError("writer did not finish")
        window = (main.start, time.perf_counter())
        after = writer.get("/metrics")
        # Held-out quality of every predictor the writer installed (untimed).
        for kind, device, secs in writer_ops:
            if secs is None:
                continue
            truth_dev = device if kind == "cold" else meta["drift_source"][device]
            idx = sorted(int(i) for i in rng.choice(n, HELD_OUT, replace=False))
            status, body = writer.post("/predict", {"device": device, "indices": idx})
            if status == 200:
                held_out.append((device, truth_dev, idx, body["scores"]))
        for c in reader + [writer]:
            c.close()
        if ctx.trace:
            harness.call(cmd="trace", on=False)
        promoted = {}
        for entry in harness.call(cmd="readapts")["readapts"]:
            if entry["promoted"]:
                promoted[entry["device"]] = entry["train"]
        items, seen = [], set()
        checks = extra_checks + [(d, idx, sc) for d, _, idx, sc in held_out]
        for device, idx, _ in checks:
            train = promoted.get(device) if device not in seen else None
            seen.add(device)
            items.append({"device": device, "indices": idx, "train": train})
        rss = harness.call(cmd="rss")["rss_mb"]  # before the reference twin exists
        reference = harness.call(cmd="reference", items=items, timeout=170.0)["scores"]
        harness.stop()
    except BaseException:
        harness.kill()
        raise

    r_checked, r_bad = _check_against_table(ctx, [r for p in phases for r in p.requests])
    w_bad = sum(1 for (_, _, served), ref in zip(checks, reference) if not same_bits(served, ref))
    cold_s = [s for k, _, s in writer_ops if k == "cold" and s is not None]
    drift_s = [s for k, _, s in writer_ops if k == "drift" and s is not None]
    installs = len(cold_s) + len(drift_s)
    writer_failed = sum(1 for _, _, s in writer_ops if s is None)
    rhos = [spearman(sc, ctx.truth_row(td)[idx]) for _, td, idx, sc in held_out]
    summary = main.summary()
    attempted = len(main.requests) + len(writer_ops)
    failed = main.failed + writer_failed
    res = Result(
        # The gated tail is the slowest install.  The reader's own tail (the
        # 11th-slowest read) sits ~3.7 Nagle-bound drain steps below a cold
        # adapt's lock hold, which amplifies run-to-run CPU speed into a
        # quartile spread near 0.2; it is printed as tail_ms.r10.
        e2e={"setup_s": harness.setup_s, "peak_rss_mb": rss, "p50_ms": summary["p50_ms"],
             "tail_ms": max(cold_s + drift_s) * 1e3 if installs else float("nan"),
             "rate_per_s": installs / (sum(cold_s) + sum(drift_s)) if installs else float("nan")},
        named={
            "p50_ms.r10": (summary["p50_ms"], "ms", f"reader, n={summary['n']}"),
            "tail_ms.r10": (summary["tail_ms"], "ms", f"reader, p{summary['tail_pct']:g}, n={summary['n']}"),
            "cold_adapt_s": (float(np.median(cold_s)) if cold_s else float("nan"), "s",
                             "n={}: {}".format(len(cold_s), ", ".join(
                                 f"{d} {t:.3f}" for k, d, t in writer_ops if k == "cold" and t))),
            "drift_recover_s": (float(np.median(drift_s)) if drift_s else float("nan"), "s",
                                "n={}: {}".format(len(drift_s), ", ".join(
                                    f"{d} {t:.3f}" for k, d, t in writer_ops if k == "drift" and t))),
            "adapt_spearman": (float(np.mean(rhos)) if rhos else float("nan"), "1",
                               f"{len(rhos)} installed predictors, {HELD_OUT} held-out archs each"),
            "failed_frac": (failed / attempted, "1", f"{failed}/{attempted}"),
        },
        attempted=attempted,
        failed=failed,
        checks=[
            ("reader scores bitwise == cache-off reference", r_bad == 0,
             f"{r_checked} responses checked, {r_bad} mismatched"),
            ("cold-adapted and promoted scores bitwise == reference rebuild", w_bad == 0,
             f"{len(checks)} responses checked, {w_bad} mismatched"),
            ("every drifting device was promoted", len(drift_s) == len(drifting),
             f"{len(drift_s)}/{len(drifting)}"),
        ],
        phases=[p.summary() for p in phases],
    )
    if ctx.trace:
        spans = tracing.load_spans(ctx.trace_dir) + list(gen_rec.spans)
        layers = tracing.layer_metrics(spans, window, attempted)
        layers.update(tracing.counter_metrics(before, after))
        layers["workers.queue_depth_max"] = 0.0
        layers["setup.warm_s"] = harness.ready["warm_s"]
        layers["trace.overhead_ms"] = traced_ref.summary()["p50_ms"] - untraced.summary()["p50_ms"]
        res.layers = layers
    return res


def _plan_drift(ctx: Ctx, harness: Harness, rng, device: str) -> tuple[list, list]:
    """A drift window for ``device``: ``train`` then ``val`` architectures,
    whose observations come from the drift source device's table.

    Every NB201 device ranks architectures much alike (the least similar
    pair still has Spearman > 0.1), and a few-shot candidate barely moves
    the pretrained ranking, so a random window of another device's
    latencies often reads as no drift, or its candidate loses the shadow
    evaluation on a 4-point validation slice.  The window is therefore
    planned: the train slice is where the
    served predictor and the source device disagree most (so the drift
    gate fires), and the validation slice is two pairs the candidate built
    on that slice (by the server's own ``adapt_candidate``) orders like the
    source while the served predictor does not (so the candidate wins).  Observations stay the source's true
    latencies, and the plan is deterministic in the seed.
    """
    n = ctx.meta["n_archs"]
    source = ctx.truth_row(ctx.meta["drift_source"][device])
    pool = [int(i) for i in rng.choice(n, 400, replace=False)]
    current = ctx.ref_row(device)[pool]  # the warm device's served scores
    rank = lambda v: np.argsort(np.argsort(v))  # noqa: E731
    disagree = np.argsort(rank(current) - rank(source[pool]))
    n_train = SERVE_DEFAULTS["drift_window"] * 3 // 4
    train = []
    for k in range(n_train // 2):
        pair = [pool[disagree[k]], pool[disagree[-1 - k]]]
        rng.shuffle(pair)
        train += pair
    cur = dict(zip(pool, current))
    rest = [a for a in pool if a not in set(train)]
    cand = dict(zip(rest, harness.call(cmd="candidate", device=device, train=train, indices=rest)["scores"]))
    pairs = [
        (a, b) for a, b in zip(rest[0::2], rest[1::2])
        if np.sign(cand[a] - cand[b]) == np.sign(source[a] - source[b]) != np.sign(cur[a] - cur[b])
    ]
    for i, p in enumerate(pairs):
        for q in pairs[i + 1:]:
            val = list(p + q)
            obs = source[val]
            if spearman([cand[a] for a in val], obs) > spearman([cur[a] for a in val], obs):
                window = train + val
                if spearman([cur[a] for a in window], source[window]) < SERVE_DEFAULTS["drift_threshold"]:
                    return train, val
    raise BenchError(f"no drift window found for {device}")


def _drive_drift(writer, device: str, train: list, val: list, source: np.ndarray) -> float | None:
    """POST the planned window in batches of four, train slice first, and
    wait for the promotion; returns seconds from the POST that completed
    the window to the new version showing in ``/metrics`` (``None`` when
    no promotion landed)."""
    v0 = writer.get("/metrics")["predictor_versions"].get(device, 0)
    window = train + val
    for start in range(0, len(window), 4):
        idx = window[start: start + 4]
        status, body = writer.post(
            "/measurements",
            {"device": device, "indices": idx, "latencies": [float(source[i]) for i in idx]},
        )
        if status != 200:
            raise BenchError(f"/measurements refused: {body}")
    t_complete = time.perf_counter()
    while time.perf_counter() < t_complete + 15.0:
        snap = writer.get("/metrics")
        if snap["predictor_versions"].get(device, 0) > v0:
            return time.perf_counter() - t_complete
        time.sleep(0.01)
    print(f"drift on {device} never promoted: {snap['adaptation']['devices'].get(device)}",
          file=sys.stderr)
    return None


WORKLOADS = {
    "serve-zipf": lambda ctx: serve(ctx, sharded=False),
    "serve-zipf-sharded": lambda ctx: serve(ctx, sharded=True),
    "sweep": sweep,
    "adapt-drift": adapt_drift,
}
