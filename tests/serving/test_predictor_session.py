"""PredictorSession: checkpoint roundtrip, device LRU, score memoization,
thread safety, and the no-autodiff-tape serving guarantee."""
import threading

import numpy as np
import pytest

from repro.predictors.compiled import _SERVED_BUCKETS
from repro.predictors.training import FinetuneConfig, PretrainConfig
from repro.serving import PredictorSession
from repro.tasks import Task
from repro.transfer.pipeline import PipelineConfig


@pytest.fixture(scope="module")
def mini_task():
    from repro.spaces import GenericCellSpace
    from repro.spaces.registry import _INSTANCES

    sp = GenericCellSpace("nb101", table_size=300)
    _INSTANCES[sp.name] = sp
    return Task(
        "T-serve",
        sp.name,
        train_devices=("pixel3", "pixel2"),
        test_devices=("fpga", "eyeriss", "raspi4"),
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
def session(mini_task, cfg):
    return PredictorSession(mini_task, cfg, seed=0).pretrain()


class TestServing:
    def test_requires_pretraining(self, mini_task, cfg):
        fresh = PredictorSession(mini_task, cfg, seed=0)
        with pytest.raises(RuntimeError, match="pretrain"):
            fresh.predict_batch("fpga", [0, 1])

    def test_predict_batch_shape_and_determinism(self, session):
        idx = np.arange(20)
        a = session.predict_batch("fpga", idx)
        b = session.predict_batch("fpga", idx)
        assert a.shape == (20,)
        np.testing.assert_allclose(a, b)

    def test_adapt_cached_per_device(self, session):
        before = session.stats.adapt_calls
        session.predict_batch("fpga", [0, 1, 2])
        session.predict_batch("fpga", [3, 4, 5])
        assert session.stats.adapt_calls == before  # already hot from prior test

    def test_repeat_batch_served_from_score_cache(self, session):
        idx = np.arange(40, 52)
        first = session.predict_batch("fpga", idx)
        hits_before = session.stats.score_hits
        again = session.predict_batch("fpga", idx)
        assert session.stats.score_hits == hits_before + len(idx)
        np.testing.assert_array_equal(first, again)

    def test_empty_batch(self, session):
        assert session.predict_batch("fpga", []).shape == (0,)


class TestDeviceLRU:
    def test_eviction_order(self, mini_task, cfg):
        s = PredictorSession(mini_task, cfg, seed=0, max_hot_devices=2).pretrain()
        s.predict_batch("fpga", [0])
        s.predict_batch("eyeriss", [0])
        s.predict_batch("fpga", [1])  # refresh fpga
        s.predict_batch("raspi4", [0])  # evicts eyeriss (least recent)
        assert s.hot_devices == ["fpga", "raspi4"]
        assert s.stats.device_evictions == 1

    def test_readapting_evicted_device_is_deterministic(self, mini_task, cfg):
        s = PredictorSession(mini_task, cfg, seed=0, max_hot_devices=1).pretrain()
        first = s.predict_batch("fpga", np.arange(10))
        s.predict_batch("eyeriss", [0])  # evicts fpga
        again = s.predict_batch("fpga", np.arange(10))  # re-adapts, same rng stream
        np.testing.assert_allclose(first, again)


class TestCheckpointRoundtrip:
    def test_roundtrip_preserves_predictions(self, session, mini_task, cfg, tmp_path):
        path = tmp_path / "session.npz"
        idx = np.arange(30)
        expected = session.predict_batch("fpga", idx)
        session.save(path)

        restored = PredictorSession.from_checkpoint(path, task=mini_task, config=cfg)
        np.testing.assert_allclose(restored.predict_batch("fpga", idx), expected)

    def test_from_checkpoint_reads_task_metadata(self, session, mini_task, cfg, tmp_path):
        path = tmp_path / "session2.npz"
        session.save(path)
        # The mini task is synthetic (not in TASKS), so metadata-driven
        # resolution must fail loudly rather than guess.
        with pytest.raises(KeyError):
            PredictorSession.from_checkpoint(path, config=cfg)

    def test_v1_checkpoint_still_serves(self, session, mini_task, cfg, tmp_path):
        """Checkpoints written before format v2 (no GNN branch weights) keep
        serving: they load leniently and the branches stay at their init."""
        from tests.nnlib.test_serialization import downgrade_to_v1

        path = tmp_path / "legacy.npz"
        session.save(path)
        downgrade_to_v1(path, drop_prefixes=("gnn.branches.", "ophw_gnn.branches."))

        with pytest.warns(UserWarning, match="format v1"):
            restored = PredictorSession.from_checkpoint(path, task=mini_task, config=cfg)
        idx = np.arange(16)
        scores = restored.predict_batch("fpga", idx)
        assert scores.shape == (16,)
        np.testing.assert_allclose(scores, restored.predict_batch("fpga", idx))

    def test_from_pipeline_shares_checkpoint(self, session, mini_task, cfg):
        clone = PredictorSession.from_pipeline(session.pipeline)
        idx = np.arange(12)
        np.testing.assert_allclose(
            clone.predict_batch("fpga", idx), session.predict_batch("fpga", idx)
        )


class TestNoGradServing:
    def test_predict_batch_builds_no_tape(self, session, monkeypatch):
        """Served queries must not pay for an autodiff tape (nor keep the
        whole forward graph alive through `_prev` references)."""
        import repro.nnlib.tensor as tensor_mod

        grad_tensors = []
        orig = tensor_mod.Tensor._make

        def spy(data, parents, backward):
            out = orig(data, parents, backward)
            if out.requires_grad:
                grad_tensors.append(out)
            return out

        monkeypatch.setattr(tensor_mod.Tensor, "_make", staticmethod(spy))
        session.adapt("fpga")  # adaptation (training) legitimately builds tapes
        grad_tensors.clear()
        session.predict_batch("fpga", np.arange(10))
        assert grad_tensors == []


@pytest.fixture(scope="module")
def big_task():
    """A space big enough for one request at the server's 4,096-index cap."""
    from repro.spaces import GenericCellSpace
    from repro.spaces.registry import _INSTANCES

    sp = GenericCellSpace("nb101", table_size=4096)
    _INSTANCES[sp.name] = sp
    return Task("T-big", sp.name, train_devices=("pixel3", "pixel2"), test_devices=("fpga",))


class TestPlanCache:
    def test_one_compile_per_device_and_bucket(self, mini_task, cfg):
        # Score-cache off: plan traffic must be driven by batch shapes, not
        # by which rows happen to be memoized.
        s = PredictorSession(mini_task, cfg, seed=7, max_cached_scores=0).pretrain()
        s.predict_batch("fpga", np.arange(10))  # chunks [8, 4] -> two compiles
        assert s.stats.plan_compiles == 2
        s.predict_batch("fpga", np.arange(12))  # chunks [8, 4]: both hit
        assert (s.stats.plan_compiles, s.stats.plan_hits) == (2, 2)
        s.predict_batch("fpga", np.arange(8))  # exact bucket -> pure hit
        s.predict_batch("eyeriss", np.arange(8))  # other device -> compile
        assert (s.stats.plan_compiles, s.stats.plan_hits) == (3, 3)
        assert s.plan_cache_entries == {"fpga": 2, "eyeriss": 1}

    def test_big_request_keeps_plan_memory_bounded(self, big_task, cfg):
        """A 4,096-index request replays as 64-row tiles: the device holds
        at most one plan per served bucket, never a 2,048-row one."""
        s = PredictorSession(big_task, cfg, seed=12).pretrain()
        s.predict_batch("fpga", np.arange(8))
        s.predict_batch("fpga", np.arange(4096))  # 4,088 misses
        assert s.plan_cache_entries["fpga"] <= len(_SERVED_BUCKETS)
        held = s.plan_buffer_bytes
        predictor = s.adapt("fpga")
        for bucket in _SERVED_BUCKETS:
            predictor.compile(bucket)
        assert held <= s.plan_buffer_bytes  # one full set of 4-64-row plans

    def test_eviction_drops_device_plans(self, mini_task, cfg):
        s = PredictorSession(mini_task, cfg, seed=8, max_hot_devices=1).pretrain()
        s.predict_batch("fpga", np.arange(8))
        s.predict_batch("eyeriss", np.arange(8))  # evicts fpga + its plan
        assert s.stats.plan_invalidations == 1
        assert s.plan_cache_entries == {"eyeriss": 1}

    def test_compiled_off_never_compiles(self, mini_task, cfg):
        s = PredictorSession(mini_task, cfg, seed=9, use_compiled=False).pretrain()
        s.predict_batch("fpga", np.arange(10))
        assert s.stats.plan_compiles == 0 and not s.plan_cache_entries

    def test_compiled_matches_eager_session(self, mini_task, cfg):
        compiled = PredictorSession(mini_task, cfg, seed=10).pretrain()
        eager = PredictorSession.from_pipeline(compiled.pipeline, use_compiled=False)
        idx = np.arange(18)
        np.testing.assert_allclose(
            compiled.predict_batch("fpga", idx),
            eager.predict_batch("fpga", idx),
            atol=1e-6,
            rtol=0,
        )

    def test_metrics_surface_plan_counters(self, mini_task, cfg):
        s = PredictorSession(mini_task, cfg, seed=11).pretrain()
        s.predict_batch("fpga", np.arange(4))
        snap = s.stats.snapshot()
        assert snap["plan_compiles"] == 1
        assert {"plan_hits", "plan_invalidations"} <= set(snap)


class TestCompiledAdapt:
    def test_adapt_seconds_tracked(self, mini_task, cfg):
        s = PredictorSession(mini_task, cfg, seed=12).pretrain()
        assert s.stats.adapt_seconds == 0.0
        s.predict_batch("fpga", np.arange(4))  # cold adapt
        after_one = s.stats.adapt_seconds
        assert after_one > 0.0
        assert s.stats.last_adapt_seconds == after_one
        s.predict_batch("fpga", np.arange(4))  # hot: no adaptation time added
        assert s.stats.adapt_seconds == after_one
        s.predict_batch("eyeriss", np.arange(4))  # second cold adapt accumulates
        assert s.stats.adapt_seconds > after_one
        assert {"adapt_seconds", "last_adapt_seconds"} <= set(s.stats.snapshot())

    def test_compiled_adapt_defaults_follow_use_compiled(self, mini_task, cfg):
        assert PredictorSession(mini_task, cfg).use_compiled_adapt is True
        assert PredictorSession(mini_task, cfg, use_compiled=False).use_compiled_adapt is False
        s = PredictorSession(mini_task, cfg, use_compiled=False, use_compiled_adapt=True)
        assert s.use_compiled_adapt is True and s.use_compiled is False

    def test_compiled_adapt_matches_eager_adapt(self, mini_task, cfg):
        """Compiled fine-tuning (traced forward+backward + fused Adam) must
        serve predictions within 1e-6 of the eager fine-tune on the same
        checkpoint (measured divergence is ~1e-12)."""
        compiled = PredictorSession(mini_task, cfg, seed=13).pretrain()
        eager = PredictorSession.from_pipeline(
            compiled.pipeline, use_compiled=False, use_compiled_adapt=False
        )
        idx = np.arange(24)
        np.testing.assert_allclose(
            compiled.predict_batch("raspi4", idx),
            eager.predict_batch("raspi4", idx),
            atol=1e-6,
            rtol=0,
        )

    def test_eager_adapt_escape_hatch_is_bitwise_deterministic(self, mini_task, cfg):
        """use_compiled_adapt=False preserves the exact eager trajectory:
        two such sessions serve bitwise-identical predictions."""
        a = PredictorSession(mini_task, cfg, seed=14, use_compiled_adapt=False).pretrain()
        b = PredictorSession.from_pipeline(a.pipeline, use_compiled_adapt=False)
        idx = np.arange(10)
        np.testing.assert_array_equal(
            a.predict_batch("fpga", idx), b.predict_batch("fpga", idx)
        )


class TestThreadSafety:
    N_THREADS = 8
    ROUNDS = 4

    def _workload(self, mini_task):
        # (device, indices) pairs covering cache hits, misses, and overlap.
        rng = np.random.default_rng(7)
        work = []
        for r in range(self.ROUNDS):
            for device in mini_task.test_devices:
                work.append((device, rng.choice(300, size=12, replace=False)))
                work.append((device, np.arange(6)))  # repeated -> score hits
        return work

    def test_concurrent_predictions_match_serial_bitwise(self, mini_task, cfg):
        serial = PredictorSession(mini_task, cfg, seed=3).pretrain()
        work = self._workload(mini_task)
        expected = [serial.predict_batch(dev, idx) for dev, idx in work]

        hammered = PredictorSession.from_pipeline(serial.pipeline)
        outputs: dict[int, np.ndarray] = {}
        errors: list[Exception] = []
        barrier = threading.Barrier(self.N_THREADS)

        def worker(tid):
            try:
                barrier.wait(10.0)
                # Each thread walks the whole workload from a different
                # offset, so adaptation and encoding order differ per run.
                for k in range(len(work)):
                    j = (k + tid * 3) % len(work)
                    dev, idx = work[j]
                    out = hammered.predict_batch(dev, idx)
                    if j not in outputs:
                        outputs[j] = out
                    elif not np.array_equal(outputs[j], out):
                        raise AssertionError(f"non-deterministic result for work item {j}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        assert not errors, errors
        for j, exp in enumerate(expected):
            np.testing.assert_array_equal(outputs[j], exp)

    def test_concurrent_use_keeps_lru_invariants(self, mini_task, cfg):
        s = PredictorSession(mini_task, cfg, seed=5, max_hot_devices=2)
        s.pretrain()
        errors: list[Exception] = []

        def worker(tid):
            rng = np.random.default_rng(tid)
            try:
                for _ in range(6):
                    device = mini_task.test_devices[rng.integers(len(mini_task.test_devices))]
                    s.predict_batch(device, rng.choice(300, size=5, replace=False))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        assert not errors, errors
        assert len(s._hot) <= 2
        assert set(s.hot_devices) <= set(mini_task.test_devices)
        assert s.stats.queries == 6 * 6
