"""Trace-replay benchmark: the serving data plane under heavy-tailed load.

Real query traffic is not round-robin: a few devices and a few hot
architectures dominate.  This harness replays a deterministic Zipf trace
(device popularity ~ rank^-1.1, architecture popularity ~ rank^-1.1 over a
shuffled table) against a session's data plane, with an untimed
mid-stream re-adapt between the two timed halves — the invalidation
traffic a real deployment sees when fresh measurements land.

The gate, recorded to ``BENCH_serving_server.json``: a 1-process session
with its per-device score tables on vs off under the same Zipf replay (a
table covers the whole search space, so the steady state is nearly all
hits).  Floor: >= 2.0x throughput, with the measured hit rate printed and
recorded.

Bitwise spot-checks run before any timing: every configuration must serve
the exact reference bits, or the speedup is meaningless.
"""
import time

import numpy as np
import pytest

from bench_util import record_metric
from repro.predictors.training import FinetuneConfig, PretrainConfig
from repro.serving import PredictorSession, WorkerSpec
from repro.serving.artifacts import write_bundle
from repro.tasks import Task
from repro.transfer.pipeline import PipelineConfig

TABLE = 400
DEVICES = ("fpga", "eyeriss", "raspi4", "samsung_s7")
REQ_INDICES = 8
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


READAPT_DEVICE = "fpga"
READAPT_PINNED = np.arange(120, 128)


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
    (``predict_batch``); the HTTP layer above it is cache-agnostic."""
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
