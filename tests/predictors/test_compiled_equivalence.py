"""Equivalence suite: compiled replay == eager forward (ISSUE 4).

For every registered space and each predictor that gained ``compile()``
(NASFLAT, BRP-NAS, MultiPredict), ``CompiledPlan`` replay must match the
eager forward within 1e-6 on randomized batches — including odd batch
sizes that exercise bucket padding, a batch above the 64-row tile, after
``adapt()`` (plan invalidation correctness), and under concurrent session
use.
"""
import threading

import numpy as np
import pytest

from repro.predictors.baselines import BRPNASPredictor, MultiPredictPredictor
from repro.predictors.compiled import bucket_for, plan_buckets
from repro.predictors.nasflat import NASFLATPredictor
from repro.predictors.space_tensors import SpaceTensors
from repro.predictors.training import FinetuneConfig, PretrainConfig
from repro.serving import PredictorSession
from repro.spaces.registry import get_space
from repro.tasks import Task
from repro.transfer.pipeline import PipelineConfig

ATOL = 1e-6
# Every space in the registry (nasbench201 is the paper's main table; the
# fbnet/nb101 tables exercise different node counts and op vocabularies).
SPACES = ["nasbench201", "nasbench101", "fbnet"]
# Off-bucket sizes exercise the padding path; 200 = 3 x 64 + 8 the tiling.
BATCHES = [1, 5, 16, 33, 200]


def _batch(space, rng, n):
    tensors = SpaceTensors.for_space(space)
    idx = rng.choice(space.num_architectures(), size=n, replace=False)
    return tensors.batch(idx)


class TestBucketing:
    def test_bucket_for_powers_of_two(self):
        # Clamped to the buckets replay serves: 1-3 rows floor at 4 (what
        # plan_buckets pads them to) and anything above 64 is the tile.
        sizes = (1, 2, 3, 4, 5, 8, 9, 33, 64, 65, 256, 4096)
        assert [bucket_for(n) for n in sizes] == [4, 4, 4, 4, 8, 8, 16, 64, 64, 64, 64, 64]
        with pytest.raises(ValueError):
            bucket_for(0)

    def test_plan_buckets_binary_decomposition(self):
        # Exact chunks down to the minimum; only a tiny tail gets padded,
        # and no bucket drops below 4 (1/2-row GEMMs take different BLAS
        # paths, which would make row bits depend on batch composition).
        assert plan_buckets(64) == [64]
        assert plan_buckets(100) == [64, 32, 4]
        assert plan_buckets(65) == [64, 4]
        assert plan_buckets(5) == [8]  # sub-minimum: one padded bucket
        assert plan_buckets(1) == [4]
        assert plan_buckets(2) == [4]
        assert plan_buckets(3) == [4]

    def test_plan_buckets_tile_at_64_rows(self):
        # Full 64-row tiles first, then the remainder's decomposition.
        assert plan_buckets(128) == [64, 64]
        assert plan_buckets(1024) == [64] * 16
        assert plan_buckets(1000) == [64] * 15 + [32, 8]
        assert plan_buckets(265) == [64] * 4 + [8, 4]

    def test_row_bits_independent_of_batch_composition(self):
        """The invariant the serving score cache rests on: a row's compiled
        score is bitwise-identical whether it's computed alone, in a subset,
        or inside a larger batch (every bucket is >= 4 rows, so BLAS always
        takes the same per-row reduction path)."""
        space = get_space("nasbench201")
        rng = np.random.default_rng(23)
        predictor = NASFLATPredictor(space, ["pixel3", "pixel2"], rng)
        tensors = SpaceTensors.for_space(space)
        idx = rng.choice(space.num_architectures(), size=16, replace=False)
        adj, ops = tensors.batch(idx)
        full = predictor.compiled_predict(adj, ops, "pixel3", batch_size=64)
        for sel in ([0], [3, 7], [1, 4, 9], list(range(6)), list(range(16))):
            sadj, sops = tensors.batch(idx[sel])
            sub = predictor.compiled_predict(sadj, sops, "pixel3", batch_size=64)
            np.testing.assert_array_equal(sub, full[sel], err_msg=f"sel={sel}")

    def test_tiled_batch_bitwise_equals_64_row_batches(self):
        """A 1,024-row batch replays as sixteen 64-row tiles: its bits are
        exactly those of the same rows predicted 64 at a time."""
        space = get_space("nasbench201")
        rng = np.random.default_rng(29)
        predictor = NASFLATPredictor(space, ["pixel3", "pixel2"], rng)
        adj, ops = _batch(space, rng, 1024)
        whole = predictor.compiled_predict(adj, ops, "pixel3", batch_size=1024)
        tiles = [
            predictor.compiled_predict(adj[i : i + 64], ops[i : i + 64], "pixel3")
            for i in range(0, 1024, 64)
        ]
        np.testing.assert_array_equal(whole, np.concatenate(tiles))
        assert predictor.compiled_buckets() == [64]

    def test_plan_buckets_cover_every_row(self):
        for n in (1, 7, 8, 33, 100, 1000, 4096):
            covered = 0
            for bucket in plan_buckets(n):
                covered += min(bucket, n - covered)
            assert covered == n, n


@pytest.mark.parametrize("space_name", SPACES)
class TestEverySpace:
    def test_nasflat_replay_matches_eager(self, space_name):
        space = get_space(space_name)
        rng = np.random.default_rng(11)
        predictor = NASFLATPredictor(space, ["pixel3", "pixel2"], rng)
        for n in BATCHES:
            adj, ops = _batch(space, rng, n)
            eager = predictor.predict(adj, ops, "pixel3")
            compiled = predictor.compiled_predict(adj, ops, "pixel3")
            np.testing.assert_allclose(compiled, eager, atol=ATOL, rtol=0, err_msg=f"B={n}")

    def test_brpnas_replay_matches_eager(self, space_name):
        space = get_space(space_name)
        rng = np.random.default_rng(12)
        predictor = BRPNASPredictor(space, rng, gnn_dims=(64, 64))
        for n in (21, 200):
            idx = rng.choice(space.num_architectures(), size=n, replace=False)
            np.testing.assert_allclose(
                predictor.compiled_predict(idx),
                predictor.predict(idx),
                atol=ATOL,
                rtol=0,
                err_msg=f"B={n}",
            )


class TestMultiPredict:
    def test_replay_matches_eager(self, tiny_space):
        rng = np.random.default_rng(13)
        predictor = MultiPredictPredictor(tiny_space, ["pixel3", "pixel2"], rng)
        idx = rng.choice(300, size=19, replace=False)
        np.testing.assert_allclose(
            predictor.compiled_predict(idx, "pixel3"),
            predictor.predict(idx, "pixel3"),
            atol=ATOL,
            rtol=0,
        )
        # LatencyEstimator call form too.
        np.testing.assert_allclose(
            predictor.compiled_predict("pixel2", idx),
            predictor.predict("pixel2", idx),
            atol=ATOL,
            rtol=0,
        )


class TestSupplementaryAndAblations:
    def test_nasflat_with_supplementary_encoding(self, tiny_space):
        from repro.predictors.nasflat import NASFLATConfig

        rng = np.random.default_rng(14)
        cfg = NASFLATConfig(supplementary_dim=5)
        predictor = NASFLATPredictor(tiny_space, ["pixel3"], rng, config=cfg)
        adj, ops = _batch(tiny_space, rng, 9)
        supp = rng.normal(size=(9, 5))
        np.testing.assert_allclose(
            predictor.compiled_predict(adj, ops, "pixel3", supp),
            predictor.predict(adj, ops, "pixel3", supp),
            atol=ATOL,
            rtol=0,
        )

    def test_nasflat_without_op_hw(self, tiny_space):
        from repro.predictors.nasflat import NASFLATConfig

        rng = np.random.default_rng(15)
        cfg = NASFLATConfig(use_op_hw=False)
        predictor = NASFLATPredictor(tiny_space, ["pixel3", "pixel2"], rng, config=cfg)
        adj, ops = _batch(tiny_space, rng, 7)
        np.testing.assert_allclose(
            predictor.compiled_predict(adj, ops, "pixel2"),
            predictor.predict(adj, ops, "pixel2"),
            atol=ATOL,
            rtol=0,
        )

    def test_plans_survive_add_device(self, tiny_space):
        """Growing the hardware-embedding table must not stale the plan:
        parameters are read live at replay."""
        rng = np.random.default_rng(16)
        predictor = NASFLATPredictor(tiny_space, ["pixel3"], rng)
        adj, ops = _batch(tiny_space, rng, 6)
        predictor.compiled_predict(adj, ops, "pixel3")  # compile before growing
        predictor.add_device("newdev", init_from="pixel3")
        np.testing.assert_allclose(
            predictor.compiled_predict(adj, ops, "newdev"),
            predictor.predict(adj, ops, "newdev"),
            atol=ATOL,
            rtol=0,
        )


@pytest.fixture(scope="module")
def served_task():
    from repro.spaces import GenericCellSpace
    from repro.spaces.registry import _INSTANCES

    sp = GenericCellSpace("nb101", table_size=300)
    _INSTANCES[sp.name] = sp
    return Task(
        "T-equiv",
        sp.name,
        train_devices=("pixel3", "pixel2"),
        test_devices=("fpga", "eyeriss", "raspi4"),
    )


@pytest.fixture(scope="module")
def served_cfg():
    return PipelineConfig(
        sampler="random",
        supplementary=None,
        n_transfer_samples=8,
        pretrain=PretrainConfig(samples_per_device=24, epochs=2, batch_size=16),
        finetune=FinetuneConfig(epochs=4),
        n_test=50,
    )


class TestAfterAdapt:
    def test_session_compiled_matches_eager_after_adapt(self, served_task, served_cfg):
        compiled = PredictorSession(served_task, served_cfg, seed=0, use_compiled=True)
        compiled.pretrain()
        eager = PredictorSession.from_pipeline(compiled.pipeline, use_compiled=False)
        rng = np.random.default_rng(17)
        for device in served_task.test_devices:
            idx = rng.choice(300, size=24, replace=False)
            np.testing.assert_allclose(
                compiled.predict_batch(device, idx),
                eager.predict_batch(device, idx),
                atol=ATOL,
                rtol=0,
                err_msg=device,
            )
        assert compiled.stats.plan_compiles >= len(served_task.test_devices)

    def test_readaptation_invalidates_and_stays_equivalent(self, served_task, served_cfg):
        session = PredictorSession(served_task, served_cfg, seed=1, use_compiled=True)
        session.pretrain()
        idx = np.arange(16)
        session.predict_batch("fpga", idx)
        compiles_before = session.stats.plan_compiles
        # Explicit-indices re-adaptation replaces fpga's predictor: its plan
        # must be invalidated, recompiled from the *new* parameters, and
        # still match the eager forward of the refreshed predictor.
        session.adapt("fpga", indices=np.arange(8))
        assert session.stats.plan_invalidations >= 1
        compiled_scores = session.predict_batch("fpga", idx)
        assert session.stats.plan_compiles == compiles_before + 1
        eager = PredictorSession.from_pipeline(session.pipeline, use_compiled=False)
        eager.adapt("fpga", indices=np.arange(8))
        np.testing.assert_allclose(
            compiled_scores, eager.predict_batch("fpga", idx), atol=ATOL, rtol=0
        )


class TestConcurrentSessionEquivalence:
    N_THREADS = 6

    def test_concurrent_compiled_serving_matches_serial_eager(self, served_task, served_cfg):
        serial = PredictorSession(served_task, served_cfg, seed=2, use_compiled=False)
        serial.pretrain()
        rng = np.random.default_rng(18)
        work = [
            (device, rng.choice(300, size=size, replace=False))
            for device in served_task.test_devices
            for size in (6, 16, 16)
        ]
        expected = [serial.predict_batch(dev, idx) for dev, idx in work]

        hammered = PredictorSession.from_pipeline(serial.pipeline, use_compiled=True)
        errors: list[Exception] = []
        barrier = threading.Barrier(self.N_THREADS)

        def worker(tid):
            try:
                barrier.wait(10.0)
                for k in range(len(work)):
                    j = (k + tid * 2) % len(work)
                    dev, idx = work[j]
                    np.testing.assert_allclose(
                        hammered.predict_batch(dev, idx), expected[j], atol=ATOL, rtol=0
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        assert not errors, errors
        assert hammered.stats.plan_hits > 0
