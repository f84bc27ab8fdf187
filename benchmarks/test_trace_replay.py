"""Trace-replay benchmark: the serving data plane under heavy-tailed load.

Real query traffic is not round-robin: a few devices and a few hot
architectures dominate.  This harness replays a deterministic Zipf trace
(device popularity ~ rank^-1.1, architecture popularity ~ rank^-1.1 over a
shuffled table) against live HTTP servers, with an untimed mid-stream
re-adapt between the two timed halves — the invalidation traffic a real
deployment sees when fresh measurements land.

Two gates (ISSUE 9), both recorded to ``BENCH_serving_server.json``:

* **Transport**: the RSF2 binary wire + pipelined shard channels
  (``binary=True, pipeline_depth=2``) vs the PR 7 data plane
  (``binary=False, pipeline_depth=1``), worker score caches off so only
  the transport differs.  Core-aware floor: >= 1.2x with >= 4 effective
  cores, never slower at CI's 2-worker scale, >= 0.5x on a 1-core box.
* **Score tables**: a 1-process server with its per-device score tables
  on vs off under the same Zipf replay (a table covers the whole search
  space, so the steady state is nearly all hits).  Floor: >= 2.0x throughput, with the
  measured hit rate printed and recorded.

Bitwise spot-checks run before any timing: every configuration must serve
the exact reference bits, or the speedup is meaningless.
"""
import http.client
import json
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from bench_util import record_metric
from repro.predictors.training import FinetuneConfig, PretrainConfig
from repro.serving import (
    PredictorServer,
    PredictorSession,
    ShardedRouter,
    WorkerSpec,
)
from repro.serving.artifacts import write_bundle
from repro.tasks import Task
from repro.transfer.pipeline import PipelineConfig

TABLE = 400
DEVICES = ("fpga", "eyeriss", "raspi4", "samsung_s7")
REQ_INDICES = 8
N_CLIENTS = 8
TRACE_LEN = 320  # per timed half
ZIPF_ALPHA = 1.1


def _make_session() -> PredictorSession:
    from repro.spaces import GenericCellSpace
    from repro.spaces.registry import _INSTANCES

    sp = GenericCellSpace("nb101", table_size=TABLE)
    _INSTANCES[sp.name] = sp
    task = Task(
        "T-replay",
        sp.name,
        train_devices=("pixel3", "pixel2"),
        test_devices=DEVICES,
    )
    cfg = PipelineConfig(
        sampler="random",
        supplementary=None,
        n_transfer_samples=8,
        pretrain=PretrainConfig(samples_per_device=32, epochs=2, batch_size=16),
        finetune=FinetuneConfig(epochs=4),
        n_test=50,
    )
    return PredictorSession(task, cfg, seed=0).pretrain()


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    session = _make_session()
    root = tmp_path_factory.mktemp("trace_replay")
    ckpt = root / "ckpt.npz"
    session.save(ckpt)
    write_bundle(session, root / "plans", list(DEVICES), [4, REQ_INDICES])
    spec = WorkerSpec(
        checkpoint=ckpt,
        task=session.task,
        config=session.pipeline.config,
        plans=root / "plans",
    )
    return session, spec


def _zipf_weights(n: int, alpha: float) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=np.float64) ** -alpha
    return w / w.sum()


def _make_trace(seed: int, n_requests: int) -> list[tuple[str, np.ndarray]]:
    """Deterministic heavy-tailed request trace (shared by every server)."""
    rng = np.random.default_rng(seed)
    dev_w = _zipf_weights(len(DEVICES), ZIPF_ALPHA)
    # Popularity rank is decoupled from table position: hot architectures
    # are scattered, so locality can't come from index order.
    arch_w = np.empty(TABLE)
    arch_w[rng.permutation(TABLE)] = _zipf_weights(TABLE, ZIPF_ALPHA)
    trace = []
    for _ in range(n_requests):
        device = DEVICES[int(rng.choice(len(DEVICES), p=dev_w))]
        idx = rng.choice(TABLE, size=REQ_INDICES, replace=False, p=arch_w)
        trace.append((device, np.sort(idx)))
    return trace


def _post(conn, device, idx) -> dict:
    body = json.dumps({"device": device, "indices": [int(i) for i in idx]})
    conn.request("POST", "/predict", body, {"Content-Type": "application/json"})
    resp = conn.getresponse()
    payload = json.loads(resp.read())
    assert resp.status == 200, payload
    return payload


def _get(host, port, path) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _replay(host: str, port: int, trace, n_clients: int = N_CLIENTS) -> float:
    """Replay the trace closed-loop over persistent connections; returns
    aggregate throughput (requests/s)."""
    errors: list = []
    barrier = threading.Barrier(n_clients + 1)

    def loop(cid):
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            barrier.wait(30.0)
            for device, idx in trace[cid::n_clients]:
                _post(conn, device, idx)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(n_clients)]
    for t in threads:
        t.start()
    barrier.wait(30.0)
    t0 = time.perf_counter()
    for t in threads:
        t.join(600.0)
    elapsed = time.perf_counter() - t0
    assert not errors, errors
    return len(trace) / elapsed


def _spot_check(host, port, trace, reference, n=6):
    """The server must answer with the reference session's exact bits
    (JSON floats are shortest-round-trip, so equality is bitwise)."""
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        for device, idx in trace[:n]:
            payload = _post(conn, device, idx)
            want = [float(s) for s in reference.predict_batch(device, idx)]
            assert payload["scores"] == want, (device, idx)
    finally:
        conn.close()


READAPT_DEVICE = "fpga"
READAPT_PINNED = np.arange(120, 128)


def test_binary_pipelined_transport_beats_json(benchmark, stack):
    """RSF2 + pipelining vs the PR 7 JSON wire, score caches off on every
    worker so the delta is transport and pipelining alone."""
    _, spec = stack
    spec_nocache = replace(spec, score_cache=0)
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))
    cores = len(os.sched_getaffinity(0))
    half1 = _make_trace(seed=51, n_requests=TRACE_LEN)
    half2 = _make_trace(seed=52, n_requests=TRACE_LEN)
    reference = PredictorSession.from_checkpoint(
        spec.checkpoint,
        task=spec.task,
        config=spec.config,
        warmup_artifacts=spec.plans,
        max_cached_scores=0,
    )
    ref_readapted = PredictorSession.from_checkpoint(
        spec.checkpoint,
        task=spec.task,
        config=spec.config,
        warmup_artifacts=spec.plans,
        max_cached_scores=0,
    )
    ref_readapted.adapt(READAPT_DEVICE, READAPT_PINNED)

    def run():
        results = {}
        for mode, kwargs in (
            ("json", dict(binary=False, pipeline_depth=1)),  # the PR 7 plane
            ("binary", dict(binary=True, pipeline_depth=2)),
        ):
            router = ShardedRouter(
                spec_nocache, n_workers=workers, max_batch=256, max_wait_ms=5.0, **kwargs
            )
            with PredictorServer(router, port=0) as srv:
                _spot_check(srv.host, srv.port, half1, reference)
                _replay(srv.host, srv.port, half1[:64])  # warm untimed
                tp1 = _replay(srv.host, srv.port, half1)
                router.adapt(READAPT_DEVICE, READAPT_PINNED)  # untimed
                _spot_check(srv.host, srv.port, half2, ref_readapted)
                tp2 = _replay(srv.host, srv.port, half2)
                snap = _get(srv.host, srv.port, "/metrics")
                assert snap["wire_protocol"] == ("RSF2" if kwargs["binary"] else "RSF1")
                results[mode] = {
                    "throughput": 2 * TRACE_LEN / (TRACE_LEN / tp1 + TRACE_LEN / tp2),
                    "p99_ms": snap["p99_ms"],
                }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    json_tp = results["json"]["throughput"]
    bin_tp = results["binary"]["throughput"]
    speedup = bin_tp / json_tp
    eff = min(workers, cores)
    floor = 1.2 if eff >= 4 else (1.0 if eff >= 2 else 0.5)
    print(
        f"\nJSON/unpipelined: {json_tp:.1f} req/s (p99 {results['json']['p99_ms']:.1f}ms)   "
        f"RSF2/pipelined: {bin_tp:.1f} req/s (p99 {results['binary']['p99_ms']:.1f}ms)   "
        f"speedup: {speedup:.2f}x (floor {floor}x, {workers} workers, {cores} cores)"
    )
    record_metric("trace_json_throughput", json_tp, "req/s", suite="serving_server")
    record_metric("trace_binary_throughput", bin_tp, "req/s", suite="serving_server")
    record_metric("binary_transport_speedup", speedup, "x", suite="serving_server")
    record_metric(
        "trace_binary_p99_ms", results["binary"]["p99_ms"], "ms", suite="serving_server"
    )
    assert speedup >= floor, (
        f"binary+pipelined transport only {speedup:.2f}x the JSON wire "
        f"({workers} workers on {cores} cores; need >= {floor}x)"
    )


def _replay_session(session, trace) -> tuple[float, float]:
    """Replay the trace against the data plane (``predict_batch``) directly;
    returns (requests/s, p99 latency ms).  The HTTP envelope — socket, JSON
    parse/serialize, micro-batch window — costs the same with the cache on
    or off, so the cache's own effect is measured below it."""
    lat_ms = np.empty(len(trace))
    t0 = time.perf_counter()
    for i, (device, idx) in enumerate(trace):
        t = time.perf_counter()
        session.predict_batch(device, idx)
        lat_ms[i] = (time.perf_counter() - t) * 1e3
    elapsed = time.perf_counter() - t0
    return len(trace) / elapsed, float(np.percentile(lat_ms, 99))


def test_score_cache_hot_zipf_throughput(benchmark, stack):
    """Per-device score tables on vs off over an identical Zipf replay.

    An untimed first pass fills the tables (each covers the whole search
    space), so the timed phases measure the steady state a popularity-skewed
    workload actually lives in.  The gate runs at the data-plane level
    (``predict_batch``); the HTTP layer above it is cache-agnostic and is
    gated separately by the transport benchmark."""
    _, spec = stack
    half1 = _make_trace(seed=61, n_requests=TRACE_LEN)
    half2 = _make_trace(seed=62, n_requests=TRACE_LEN)
    reference = PredictorSession.from_checkpoint(
        spec.checkpoint,
        task=spec.task,
        config=spec.config,
        warmup_artifacts=spec.plans,
        max_cached_scores=0,
    )
    ref_readapted = PredictorSession.from_checkpoint(
        spec.checkpoint,
        task=spec.task,
        config=spec.config,
        warmup_artifacts=spec.plans,
        max_cached_scores=0,
    )
    ref_readapted.adapt(READAPT_DEVICE, READAPT_PINNED)

    def run():
        results = {}
        for mode, tables in (("cold", False), ("hot", True)):
            session = PredictorSession.from_checkpoint(
                spec.checkpoint,
                task=spec.task,
                config=spec.config,
                warmup_artifacts=spec.plans,
                max_cached_scores=tables,
            )
            _replay_session(session, half1)  # untimed: fills the cache
            # Cache-served rows must be the reference session's exact bits.
            for device, idx in half1[:24]:
                assert np.array_equal(
                    session.predict_batch(device, idx),
                    reference.predict_batch(device, idx),
                ), (mode, device, idx)
            tp1, p99_1 = _replay_session(session, half1)
            session.adapt(READAPT_DEVICE, READAPT_PINNED)  # untimed flush
            for device, idx in half2[:8]:  # equivalence survives the flush
                assert np.array_equal(
                    session.predict_batch(device, idx),
                    ref_readapted.predict_batch(device, idx),
                ), (mode, device, idx)
            _replay_session(session, half2[:64])  # untimed refill
            tp2, p99_2 = _replay_session(session, half2)
            stats = session.stats
            served = stats.score_hits + stats.score_misses
            results[mode] = {
                "throughput": 2 * TRACE_LEN / (TRACE_LEN / tp1 + TRACE_LEN / tp2),
                "p99_ms": max(p99_1, p99_2),
                "hit_rate": stats.score_hits / served if served else 0.0,
            }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    cold_tp = results["cold"]["throughput"]
    hot_tp = results["hot"]["throughput"]
    speedup = hot_tp / cold_tp
    hit_rate = results["hot"]["hit_rate"]
    print(
        f"\ncache-off: {cold_tp:.1f} req/s (p99 {results['cold']['p99_ms']:.1f}ms)   "
        f"cache-hot: {hot_tp:.1f} req/s (p99 {results['hot']['p99_ms']:.1f}ms, "
        f"hit rate {hit_rate:.1%})   speedup: {speedup:.2f}x (floor 2.0x)"
    )
    record_metric("cache_off_throughput", cold_tp, "req/s", suite="serving_server")
    record_metric("cache_hot_throughput", hot_tp, "req/s", suite="serving_server")
    record_metric("score_cache_speedup", speedup, "x", suite="serving_server")
    record_metric("score_cache_hit_rate", hit_rate, "fraction", suite="serving_server")
    record_metric(
        "cache_hot_p99_ms", results["hot"]["p99_ms"], "ms", suite="serving_server"
    )
    assert hit_rate > 0.5, f"Zipf replay only hit {hit_rate:.1%} — trace is not cache-hot"
    assert speedup >= 2.0, (
        f"cache-hot throughput only {speedup:.2f}x cache-off (need >= 2.0x)"
    )
