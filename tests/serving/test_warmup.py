"""Warmup artifacts: bundle write/read, session pre-population, metrics.

The zero-cold-start contract: a session constructed with
``warmup_artifacts=`` serves its first request for a bundled (device,
bucket) with **no** adaptation and **no** trace — and the predictions are
bitwise-identical to a session that adapted and compiled in-process
(adaptation is deterministic in ``(seed, device)``).
"""
import json

import numpy as np
import pytest

from repro.predictors.training import FinetuneConfig, PretrainConfig
from repro.serving import PredictorSession
from repro.serving.artifacts import (
    BUNDLE_FORMAT_VERSION,
    MANIFEST_NAME,
    read_manifest,
    write_bundle,
)
from repro.tasks import Task
from repro.transfer.pipeline import PipelineConfig


@pytest.fixture(scope="module")
def mini_task():
    from repro.spaces import GenericCellSpace
    from repro.spaces.registry import _INSTANCES

    sp = GenericCellSpace("nb101", table_size=300)
    _INSTANCES[sp.name] = sp
    return Task(
        "T-warm",
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
def bundle(mini_task, cfg, tmp_path_factory):
    """One pretrained session, its checkpoint, and a two-device bundle."""
    root = tmp_path_factory.mktemp("warmup")
    session = PredictorSession(mini_task, cfg, seed=0).pretrain()
    ckpt = root / "ckpt.npz"
    session.save(ckpt)
    manifest = write_bundle(session, root / "plans", ["fpga", "eyeriss"], [16])
    return session, ckpt, root / "plans", manifest


class TestBundle:
    def test_manifest_contents(self, bundle, mini_task):
        _, _, plans_dir, manifest = bundle
        assert manifest["format"] == BUNDLE_FORMAT_VERSION
        assert manifest["task"] == mini_task.name
        assert {e["device"] for e in manifest["devices"]} == {"fpga", "eyeriss"}
        for entry in manifest["devices"]:
            assert (plans_dir / entry["checkpoint"]).is_file()
            for plan in entry["plans"]:
                assert plan["bucket"] == 16
                assert (plans_dir / plan["path"]).is_file()

    def test_read_manifest_accepts_dir_or_file(self, bundle):
        _, _, plans_dir, manifest = bundle
        m1, d1 = read_manifest(plans_dir)
        m2, d2 = read_manifest(plans_dir / MANIFEST_NAME)
        assert m1 == m2 == manifest
        assert d1 == d2 == plans_dir

    def test_read_manifest_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_manifest(tmp_path)

    def test_read_manifest_wrong_format(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": 99}))
        with pytest.raises(ValueError, match="format 99"):
            read_manifest(tmp_path)

    def test_buckets_rounded_and_deduped(self, bundle, tmp_path):
        session, _, _, _ = bundle
        manifest = write_bundle(session, tmp_path / "p2", ["fpga"], [30, 32, 3])
        buckets = [p["bucket"] for p in manifest["devices"][0]["plans"]]
        assert buckets == [4, 32]  # 30 and 32 collapse; 3 rounds to 4

    def test_buckets_clamped_to_served_range(self, bundle, tmp_path):
        session, _, _, _ = bundle
        manifest = write_bundle(session, tmp_path / "p3", ["fpga"], [1, 2, 256])
        buckets = [p["bucket"] for p in manifest["devices"][0]["plans"]]
        assert buckets == [4, 64]  # 1 and 2 pad to 4; 256 replays as 64-row tiles
        written = sorted(p.name for p in (tmp_path / "p3").glob("plan__*.npz"))
        assert written == ["plan__fpga__b4.npz", "plan__fpga__b64.npz"]


class TestWarmSession:
    def test_zero_cold_start_and_bitwise(self, bundle, mini_task, cfg):
        session, ckpt, plans_dir, _ = bundle
        idx = np.arange(16)
        ref = session.predict_batch("fpga", idx)
        warm = PredictorSession.from_checkpoint(
            ckpt, task=mini_task, config=cfg, warmup_artifacts=plans_dir
        )
        assert warm.stats.warmup_complete
        assert warm.stats.plans_loaded == 2  # 2 devices x 1 bucket
        assert warm.stats.plan_load_seconds > 0
        assert set(warm.hot_devices) == {"fpga", "eyeriss"}
        out = warm.predict_batch("fpga", idx)
        # No adaptation, no trace: the bundle carried both.
        assert warm.stats.adapt_calls == 0
        assert warm.stats.plan_compiles == 0
        assert warm.stats.plan_hits == 1
        assert np.array_equal(ref, out)

    def test_one_row_bundle_serves_one_row_request(self, bundle, mini_task, cfg, tmp_path):
        # A bundle compiled "for 1 row" holds the 4-row plan a 1-row
        # request actually replays, so serving it traces nothing.
        session, ckpt, _, _ = bundle
        write_bundle(session, tmp_path / "b1", ["fpga"], [1])
        warm = PredictorSession.from_checkpoint(
            ckpt, task=mini_task, config=cfg, warmup_artifacts=tmp_path / "b1"
        )
        out = warm.predict_batch("fpga", [7])
        assert warm.stats.plan_compiles == 0
        assert np.array_equal(out, session.predict_batch("fpga", [7]))

    def test_load_warmup_after_construction(self, bundle, mini_task, cfg):
        _, ckpt, plans_dir, _ = bundle
        warm = PredictorSession.from_checkpoint(ckpt, task=mini_task, config=cfg)
        assert not warm.stats.warmup_complete
        assert warm.load_warmup(plans_dir) == 2
        assert warm.stats.warmup_complete

    def test_unwarmed_device_still_adapts(self, bundle, mini_task, cfg):
        _, ckpt, plans_dir, _ = bundle
        warm = PredictorSession.from_checkpoint(
            ckpt, task=mini_task, config=cfg, warmup_artifacts=plans_dir
        )
        warm.predict_batch("raspi4", np.arange(4))  # not in the bundle
        assert warm.stats.adapt_calls == 1

    def test_wrong_task_rejected(self, bundle, cfg):
        session, _, plans_dir, _ = bundle
        other = Task(
            "T-other",
            session.task.space,
            train_devices=("pixel3", "pixel2"),
            test_devices=("fpga",),
        )
        fresh = PredictorSession(other, cfg, seed=0)
        with pytest.raises(ValueError, match="compiled for task"):
            fresh.load_warmup(plans_dir)

    def test_observability_gauges(self, bundle, mini_task, cfg):
        _, ckpt, plans_dir, _ = bundle
        warm = PredictorSession.from_checkpoint(
            ckpt, task=mini_task, config=cfg, warmup_artifacts=plans_dir
        )
        entries = warm.plan_cache_entries
        assert entries == {"fpga": 1, "eyeriss": 1}
        assert warm.plan_buffer_bytes > 0
        # The gauge tracks resident plans: compiling another bucket grows it.
        before = warm.plan_buffer_bytes
        warm.predict_batch("fpga", np.arange(8))
        assert warm.plan_buffer_bytes > before
        assert warm.plan_cache_entries["fpga"] == 2

    def test_stats_snapshot_has_warmup_fields(self, bundle, mini_task, cfg):
        _, ckpt, plans_dir, _ = bundle
        warm = PredictorSession.from_checkpoint(
            ckpt, task=mini_task, config=cfg, warmup_artifacts=plans_dir
        )
        snap = warm.stats.snapshot()
        assert snap["plans_loaded"] == 2
        assert snap["warmup_complete"] is True
        assert snap["plan_load_seconds"] > 0


class TestServerMetrics:
    def test_metrics_surface_warmup_and_gauges(self, bundle, mini_task, cfg):
        from repro.serving import PredictorServer

        _, ckpt, plans_dir, _ = bundle
        warm = PredictorSession.from_checkpoint(
            ckpt, task=mini_task, config=cfg, warmup_artifacts=plans_dir
        )
        server = PredictorServer(warm, port=0)
        snap = server.metrics_snapshot()
        assert snap["plans_loaded"] == 2
        assert snap["warmup_complete"] is True
        assert snap["plan_load_seconds"] > 0
        assert snap["plan_cache_entries"] == {"fpga": 1, "eyeriss": 1}
        assert snap["plan_buffer_bytes"] > 0
        assert snap["session"]["plans_loaded"] == 2
