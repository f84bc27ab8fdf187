"""Score-table suite: memoized scores must be invisible.

The tables' correctness claim (see :mod:`repro.serving.session`): because
compiled plan buckets are floored at 4 rows, a row's f64 score is bitwise
independent of its batch-mates — so serving any mix of memoized and freshly
computed rows must equal the cache-off forward bit for bit, under serial
and concurrent load, across re-adapts, roster changes, precision flips,
device evictions, and sharded worker kills mid-flight.
"""
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.predictors.training import FinetuneConfig, PretrainConfig
from repro.serving import PredictorSession, ShardedRouter, WorkerSpec
from repro.serving.artifacts import write_bundle
from repro.tasks import Task
from repro.transfer.pipeline import PipelineConfig

TABLE = 300
DEVICES = ("fpga", "eyeriss", "raspi4")


@pytest.fixture(scope="module")
def mini_task():
    from repro.spaces import GenericCellSpace
    from repro.spaces.registry import _INSTANCES

    sp = GenericCellSpace("nb101", table_size=TABLE)
    _INSTANCES[sp.name] = sp
    return Task(
        "T-scorecache",
        sp.name,
        train_devices=("pixel3", "pixel2"),
        test_devices=DEVICES,
    )


@pytest.fixture(scope="module")
def cfg():
    return PipelineConfig(
        sampler="random",
        supplementary=None,
        n_transfer_samples=8,
        pretrain=PretrainConfig(samples_per_device=24, epochs=2, batch_size=16),
        finetune=FinetuneConfig(epochs=4),
        n_test=50,
    )


@pytest.fixture(scope="module")
def checkpoint(mini_task, cfg, tmp_path_factory):
    """One pretrain, shared: every session pair below builds from it."""
    path = tmp_path_factory.mktemp("scorecache") / "ckpt.npz"
    PredictorSession(mini_task, cfg, seed=0).pretrain().save(path)
    return path


def _open(checkpoint, mini_task, cfg, **kwargs):
    return PredictorSession.from_checkpoint(
        checkpoint, task=mini_task, config=cfg, **kwargs
    )


def _overlapping_stream(seed: int, n: int):
    """Batches engineered to revisit indices: hits, misses, and mixes."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        device = DEVICES[int(rng.integers(0, len(DEVICES)))]
        size = int(rng.integers(1, 20))
        # Small index pool => heavy overlap across the stream.
        yield device, rng.choice(60, size=size, replace=False)


class TestBitwiseTransparency:
    def test_serial_stream_matches_cache_off(self, checkpoint, mini_task, cfg):
        cached = _open(checkpoint, mini_task, cfg, max_cached_scores=4096)
        bare = _open(checkpoint, mini_task, cfg, max_cached_scores=0)
        for device, idx in _overlapping_stream(seed=11, n=40):
            want = bare.predict_batch(device, idx)
            got = cached.predict_batch(device, idx)
            assert got.dtype == want.dtype
            assert np.array_equal(want, got), (device, idx)
        assert cached.stats.score_hits > 0  # the stream genuinely exercised hits
        assert cached.stats.score_misses > 0
        assert bare.stats.score_bypass > 0

    def test_partial_hit_merge_is_exact(self, checkpoint, mini_task, cfg):
        """One batch fully cached, then a superset: the merged reply mixes
        cached rows with a fresh forward and must still be bitwise-true."""
        cached = _open(checkpoint, mini_task, cfg, max_cached_scores=4096)
        bare = _open(checkpoint, mini_task, cfg, max_cached_scores=0)
        cached.predict_batch("fpga", np.arange(10))
        hits0 = cached.stats.score_hits
        superset = np.array([7, 3, 25, 0, 31, 9])  # 4 cached, 2 fresh
        got = cached.predict_batch("fpga", superset)
        assert cached.stats.score_hits == hits0 + 4
        assert np.array_equal(got, bare.predict_batch("fpga", superset))

    def test_concurrent_hammer_matches_cache_off(self, checkpoint, mini_task, cfg):
        cached = _open(checkpoint, mini_task, cfg, max_cached_scores=4096)
        bare = _open(checkpoint, mini_task, cfg, max_cached_scores=0)
        stream = list(_overlapping_stream(seed=23, n=24))
        expected = [bare.predict_batch(d, i) for d, i in stream]
        failures: list = []

        def hammer(tid):
            # Each thread walks the whole stream in its own order: maximal
            # cache-state interleaving, same bitwise answer required.
            order = np.random.default_rng(tid).permutation(len(stream))
            for j in order:
                device, idx = stream[j]
                got = cached.predict_batch(device, idx)
                if not np.array_equal(got, expected[j]):
                    failures.append((tid, j))

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive()
        assert not failures

    def test_eager_sessions_bypass_the_cache(self, checkpoint, mini_task, cfg):
        """The eager forward is *not* composition-stable, so the cache must
        refuse to serve it rather than leak batch-shape-dependent bits."""
        eager = _open(checkpoint, mini_task, cfg, use_compiled=False)
        eager.predict_batch("fpga", np.arange(6))
        eager.predict_batch("fpga", np.arange(6))
        assert eager.stats.score_bypass == 12
        assert eager.stats.score_hits == 0
        assert eager.score_cache_entries == 0


class TestInvalidationAndEviction:
    def test_readapt_flushes_device_scores(self, checkpoint, mini_task, cfg):
        s = _open(checkpoint, mini_task, cfg)
        s.predict_batch("fpga", np.arange(8))
        s.predict_batch("eyeriss", np.arange(20, 26))
        entries = s.score_cache_entries
        inv0 = s.stats.score_invalidations
        s.adapt("fpga", np.arange(50, 58))  # pinned re-adapt: new weights
        assert s.stats.score_invalidations == inv0 + 8  # fpga rows only
        assert s.score_cache_entries == entries - 8
        hits0 = s.stats.score_hits
        s.predict_batch("eyeriss", np.arange(20, 26))  # untouched: all hits
        assert s.stats.score_hits == hits0 + 6
        misses0 = s.stats.score_misses
        got = s.predict_batch("fpga", np.arange(8))  # must recompute
        assert s.stats.score_misses == misses0 + 8
        bare = _open(checkpoint, mini_task, cfg, max_cached_scores=0)
        bare.adapt("fpga", np.arange(50, 58))
        assert np.array_equal(got, bare.predict_batch("fpga", np.arange(8)))

    def test_add_device_flushes_everything(self, checkpoint, mini_task, cfg):
        s = _open(checkpoint, mini_task, cfg)
        s.predict_batch("fpga", np.arange(8))
        s.predict_batch("eyeriss", np.arange(8))
        assert s.score_cache_entries == 16
        inv0 = s.stats.score_invalidations
        s.add_device("brand-new-asic")
        assert s.score_cache_entries == 0
        assert s.stats.score_invalidations == inv0 + 16

    def test_set_plan_dtype_flushes_and_refills_at_new_precision(
        self, checkpoint, mini_task, cfg
    ):
        s = _open(checkpoint, mini_task, cfg)
        f64 = s.predict_batch("fpga", np.arange(8))
        assert f64.dtype == np.float64
        s.set_plan_dtype("f64")  # same dtype: a no-op, nothing flushed
        assert s.score_cache_entries == 8
        s.set_plan_dtype("f32")
        assert s.score_cache_entries == 0
        f32 = s.predict_batch("fpga", np.arange(8))
        assert f32.dtype == np.float32
        assert s.score_cache_entries == 0  # f32 rows serve around the table
        assert s.stats.score_bypass == 8
        s.set_plan_dtype("f64")
        again = s.predict_batch("fpga", np.arange(8))
        assert s.score_cache_entries == 8
        assert np.array_equal(again, f64)

    def test_device_lru_eviction_takes_scores_along(self, checkpoint, mini_task, cfg):
        s = _open(checkpoint, mini_task, cfg, max_hot_devices=2)
        s.predict_batch("fpga", np.arange(4))
        s.predict_batch("eyeriss", np.arange(4))
        inv0 = s.stats.score_invalidations
        s.predict_batch("raspi4", np.arange(4))  # evicts fpga's predictor
        assert s.stats.score_invalidations == inv0 + 4
        assert s.hot_devices == ["eyeriss", "raspi4"]
        assert s.score_cache_entries == 8


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestScoreTable:
    def test_second_full_pass_is_all_hits_without_replay(self, checkpoint, mini_task, cfg):
        s = _open(checkpoint, mini_task, cfg)
        everything = np.arange(TABLE)
        first = {device: s.predict_batch(device, everything) for device in DEVICES}
        assert s.score_cache_entries == TABLE * len(DEVICES)
        before = s.stats.snapshot()
        for device in DEVICES:
            assert _same_bits(s.predict_batch(device, everything), first[device])
        after = s.stats.snapshot()
        assert after["score_hits"] - before["score_hits"] == TABLE * len(DEVICES)
        assert after["score_misses"] == before["score_misses"]
        # No replay: not one plan was even looked up.
        for key in ("plan_hits", "plan_compiles"):
            assert after[key] == before[key], key

    def test_duplicate_unsorted_mixed_request_matches_cache_off(
        self, checkpoint, mini_task, cfg
    ):
        cached = _open(checkpoint, mini_task, cfg)
        bare = _open(checkpoint, mini_task, cfg, max_cached_scores=0)
        cached.predict_batch("eyeriss", np.array([3, 7, 11]))
        hits0, misses0 = cached.stats.score_hits, cached.stats.score_misses
        request = np.array([250, 7, 42, 7, 3, 250, 199, 11, 42])
        got = cached.predict_batch("eyeriss", request)
        assert cached.stats.score_hits == hits0 + 4  # 7, 7, 3, 11
        assert cached.stats.score_misses == misses0 + 5  # 250, 42, 250, 199, 42
        assert _same_bits(got, bare.predict_batch("eyeriss", request))
        # The misses were written back: the same request is now all hits.
        assert _same_bits(cached.predict_batch("eyeriss", request), got)
        assert cached.stats.score_misses == misses0 + 5

    def test_f32_sessions_memoize_nothing(self, checkpoint, mini_task, cfg):
        """f32 plans are not composition-stable (a row's bits can depend on
        its batch-mates), so every f32 row serves around the table."""
        s = _open(checkpoint, mini_task, cfg, plan_dtype="f32")
        idx = np.arange(12)
        assert s.predict_batch("fpga", idx).dtype == np.float32
        s.predict_batch("fpga", idx)
        s.predict_batch("eyeriss", idx[:5])
        assert s.stats.score_bypass == 12 + 12 + 5
        assert (s.stats.score_hits, s.stats.score_misses) == (0, 0)
        assert s.score_cache_entries == 0


class TestShardedScoreCache:
    """The cache inside each worker process, observed through the router."""

    @pytest.fixture(scope="class")
    def spec(self, mini_task, cfg, checkpoint, tmp_path_factory):
        root = tmp_path_factory.mktemp("shardedcache")
        session = PredictorSession.from_checkpoint(checkpoint, task=mini_task, config=cfg)
        write_bundle(session, root / "plans", list(DEVICES), [8, 16])
        return WorkerSpec(
            checkpoint=checkpoint, task=mini_task, config=cfg, plans=root / "plans"
        )

    @pytest.fixture(scope="class")
    def reference(self, spec, mini_task, cfg):
        return PredictorSession.from_checkpoint(
            spec.checkpoint,
            task=mini_task,
            config=cfg,
            warmup_artifacts=spec.plans,
            max_cached_scores=0,
        )

    def test_rollup_carries_cache_counters(self, spec):
        with ShardedRouter(spec, n_workers=2, monitor_interval_s=0) as router:
            idx = np.arange(9)
            router.submit("fpga", idx, timeout=120)
            router.submit("fpga", idx, timeout=120)  # hits inside the worker
            roll = router.metrics_rollup()
            assert roll["session"]["score_hits"] >= len(idx)
            assert roll["session"]["score_misses"] >= len(idx)
            resident = sum(e.get("score_cache_entries") or 0 for e in roll["per_worker"])
            assert resident >= len(idx)

    def test_sigkill_mid_flight_serves_cached_and_fresh_mix_exactly_once(
        self, spec, reference
    ):
        """A batch mixing worker-cached rows with fresh ones is retried on a
        respawned (cold-cache) worker after SIGKILL: answered exactly once,
        bitwise equal to the cache-off reference."""
        device = "fpga"
        warm = np.arange(20, 30)
        mixed = np.array([24, 3, 27, 91, 22, 55])  # 3 worker-cached, 3 fresh
        with ShardedRouter(spec, n_workers=2, monitor_interval_s=0) as router:
            wid = router.shard_of(device)
            router.submit(device, warm, timeout=120)  # primes the worker cache
            pid = router._handles[wid].pid
            handle = router._handles[wid]

            def _occupy():
                try:
                    router._request(handle, {"op": "sleep", "seconds": 20.0}, 50)
                except Exception:
                    pass  # SIGKILL severs the socket mid-RPC; that's the point

            occupier = threading.Thread(target=_occupy, daemon=True)
            occupier.start()
            time.sleep(0.1)
            results = []
            client = threading.Thread(
                target=lambda: results.append(router.submit(device, mixed, timeout=300))
            )
            client.start()
            time.sleep(0.2)
            os.kill(pid, signal.SIGKILL)
            client.join(timeout=300)
            occupier.join(timeout=5)
            assert not client.is_alive(), "mixed request never completed after kill"
            assert len(results) == 1  # exactly once, never double-answered
            assert np.array_equal(results[0], reference.predict_batch(device, mixed))
            assert router.deaths_total == 1
            assert router.retries_total >= 1
