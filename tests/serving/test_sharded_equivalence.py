"""Sharded-equivalence suite: N workers must serve what 1 process serves.

The worker pool's correctness claim is *bitwise* equivalence: adaptation is
deterministic in ``(seed, device)`` (and in ``(seed, device, indices)`` for
pinned re-adapts), every worker builds from the same checkpoint + artifact
bundle, and scores cross the wire as raw little-endian RSF2 buffers (``<f8``,
or ``<f4`` from an f32 shard, which the router widens exactly) — so an
identical request stream against the 1-process session and the 4-worker
router must produce identical ``float64`` predictions, request for
request, including after a mid-stream re-adapt and across worker respawns.
"""
import json
import threading
import time
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro.predictors.training import FinetuneConfig, PretrainConfig
from repro.serving import (
    PredictorServer,
    PredictorSession,
    ShardedRouter,
    WorkerSpec,
)
from repro.serving.artifacts import write_bundle
from repro.serving.transport import shard_for
from repro.serving.worker import build_worker_session
from repro.tasks import Task
from repro.transfer.pipeline import PipelineConfig

TABLE = 320
DEVICES = ("fpga", "eyeriss", "raspi4", "samsung_s7")
N_WORKERS = 4


@pytest.fixture(scope="module")
def mini_task():
    from repro.spaces import GenericCellSpace
    from repro.spaces.registry import _INSTANCES

    sp = GenericCellSpace("nb101", table_size=TABLE)
    _INSTANCES[sp.name] = sp
    return Task(
        "T-shard",
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
def artifacts(mini_task, cfg, tmp_path_factory):
    """Checkpoint + 4-device plan bundle every serving mode builds from."""
    root = tmp_path_factory.mktemp("sharded")
    session = PredictorSession(mini_task, cfg, seed=0).pretrain()
    ckpt = root / "ckpt.npz"
    session.save(ckpt)
    write_bundle(session, root / "plans", list(DEVICES), [8, 16])
    return ckpt, root / "plans"


@pytest.fixture(scope="module")
def spec(artifacts, mini_task, cfg):
    ckpt, plans = artifacts
    return WorkerSpec(checkpoint=ckpt, task=mini_task, config=cfg, plans=plans)


@pytest.fixture()
def reference(artifacts, mini_task, cfg):
    """The 1-process mode: a warm session over the same artifacts."""
    ckpt, plans = artifacts
    return PredictorSession.from_checkpoint(
        ckpt, task=mini_task, config=cfg, warmup_artifacts=plans
    )


@pytest.fixture(params=["f64", "f32"])
def dtype_pair(request, spec, artifacts, mini_task, cfg):
    """``(spec, reference)`` at one plan dtype.  The bundle's plans are f64,
    so the f32 pair runs without it: each f32 shard adapts and compiles on
    first touch, as its reference session does."""
    if request.param == "f64":
        return spec, request.getfixturevalue("reference")
    reference = PredictorSession.from_checkpoint(
        artifacts[0], task=mini_task, config=cfg, plan_dtype="f32"
    )
    return replace(spec, dtype="f32", plans=None), reference


def _request_stream(seed: int, n: int):
    """A deterministic mixed request stream (devices and batch shapes)."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        device = DEVICES[int(rng.integers(0, len(DEVICES)))]
        size = int(rng.integers(1, 24))  # spans padded and multi-bucket sizes
        yield device, rng.choice(TABLE, size=size, replace=False)


class TestShardedEquivalence:
    def test_identical_stream_is_bitwise_identical(self, dtype_pair):
        spec, reference = dtype_pair
        with ShardedRouter(spec, n_workers=N_WORKERS, monitor_interval_s=0) as router:
            for device, idx in _request_stream(seed=1, n=16):
                want = reference.predict_batch(device, idx)
                got = router.submit(device, idx, timeout=120)
                assert got.dtype == np.float64
                assert np.array_equal(want, got), (device, idx)

    def test_equivalence_survives_mid_stream_readapt(self, spec, reference):
        with ShardedRouter(spec, n_workers=N_WORKERS, monitor_interval_s=0) as router:
            stream = list(_request_stream(seed=2, n=18))
            for device, idx in stream[:6]:
                assert np.array_equal(
                    reference.predict_batch(device, idx),
                    router.submit(device, idx, timeout=120),
                )
            # Mid-stream: pin a fresh measurement set on two devices (one
            # bundled-warm, one implicitly adapted) on both sides.
            for device, lo in (("fpga", 40), ("eyeriss", 90)):
                pinned = np.arange(lo, lo + 8)
                reference.adapt(device, pinned)
                router.adapt(device, pinned)
            for device, idx in stream[6:]:
                assert np.array_equal(
                    reference.predict_batch(device, idx),
                    router.submit(device, idx, timeout=120),
                ), (device, idx)

    def test_worker_session_is_exact_twin_of_reference_shard(self, spec, reference):
        """The in-process twin a worker builds (same factory the forked
        process runs) serves its shard's devices bitwise-identically."""
        wid = shard_for("fpga", N_WORKERS)
        twin, warm = build_worker_session(spec, wid, N_WORKERS)
        assert "fpga" in warm
        assert set(twin.hot_devices) == set(warm)  # shard only, not the fleet
        idx = np.arange(13)
        assert np.array_equal(
            reference.predict_batch("fpga", idx), twin.predict_batch("fpga", idx)
        )
        assert twin.stats.adapt_calls == 0  # warm from the bundle, no adapt

    def test_device_affinity_partitions_bundle(self, spec):
        with ShardedRouter(spec, n_workers=N_WORKERS, monitor_interval_s=0) as router:
            owners = {}
            for handle in router._handles:
                for device in handle.warm_devices:
                    assert device not in owners, "device warmed on two workers"
                    owners[device] = handle.worker_id
            assert set(owners) == set(DEVICES)
            for device, wid in owners.items():
                assert wid == router.shard_of(device)


class TestShardChannel:
    """The router <-> worker link: RSF2 is the only predict wire, and the
    multiplexed channel matches every reply to its waiter by request id."""

    def test_json_predict_wire_is_refused(self, spec):
        with pytest.raises(ValueError, match="binary"):
            ShardedRouter(spec, n_workers=2, binary=False)

    def test_worker_rejects_json_predict_and_keeps_serving(self, spec, reference):
        with ShardedRouter(spec, n_workers=2, monitor_interval_s=0) as router:
            handle = router._handles[router.shard_of("fpga")]
            reply = router._request(
                handle, {"op": "predict", "device": "fpga", "indices": [1, 2]}, 30
            )
            assert reply["ok"] is False
            assert "unknown op" in reply["error"]
            idx = np.arange(9)
            assert np.array_equal(
                reference.predict_batch("fpga", idx),
                router.submit("fpga", idx, timeout=120),
            )
            assert router.deaths_total == 0

    def test_timed_out_metrics_scrape_leaves_shard_healthy(self, spec, reference):
        """A scrape that outlives the rollup's 2 s deadline reports
        ``stats: null`` and leaves the worker alone; its late reply is
        dropped by id, so the predict queued behind it gets its own bits."""
        with ShardedRouter(spec, n_workers=2, monitor_interval_s=0) as router:
            wid = router.shard_of("fpga")
            handle = router._handles[wid]
            slept = []
            sleeper = threading.Thread(
                target=lambda: slept.append(
                    router._request(handle, {"op": "sleep", "seconds": 4.0}, 30)
                )
            )
            sleeper.start()
            time.sleep(0.5)  # the sleep frame reaches the worker first
            rollup = router.metrics_rollup()
            entry = rollup["per_worker"][wid]
            assert entry["stats"] is None
            assert entry["alive"] is True
            assert rollup["worker_deaths_total"] == 0
            # Sent while the worker still sleeps: the late metrics reply
            # reaches the channel first and must not resolve this waiter.
            idx = np.arange(11)
            assert np.array_equal(
                reference.predict_batch("fpga", idx),
                router.submit("fpga", idx, timeout=120),
            )
            sleeper.join(timeout=30)
            assert not sleeper.is_alive()
            assert slept[0]["ok"] is True
            assert router.workers_alive == 2
            assert router.deaths_total == 0
            assert router.metrics_rollup()["per_worker"][wid]["stats"] is not None

    def test_metrics_report_pipeline_depth(self, spec):
        router = ShardedRouter(spec, n_workers=2, monitor_interval_s=0, pipeline_depth=3)
        with PredictorServer(router, port=0) as srv:
            with urllib.request.urlopen(f"{srv.url}/metrics", timeout=30) as r:
                snap = json.loads(r.read())
            assert snap["pipeline_depth"] == 3


class TestShardedHTTP:
    def test_http_stream_matches_single_process_http(self, spec, reference):
        """End to end over real sockets: the sharded server's JSON scores
        equal the 1-process server's for an identical serial stream."""
        router = ShardedRouter(spec, n_workers=N_WORKERS, monitor_interval_s=0)
        with PredictorServer(reference, port=0) as single, PredictorServer(
            router, port=0
        ) as sharded:
            for device, idx in _request_stream(seed=3, n=10):
                body = json.dumps(
                    {"device": device, "indices": [int(i) for i in idx]}
                ).encode()
                replies = []
                for srv in (single, sharded):
                    req = urllib.request.Request(
                        f"{srv.url}/predict",
                        data=body,
                        headers={"Content-Type": "application/json"},
                    )
                    with urllib.request.urlopen(req, timeout=120) as resp:
                        replies.append(json.loads(resp.read()))
                assert replies[0]["scores"] == replies[1]["scores"]  # exact
                assert replies[1]["count"] == len(idx)

    def test_sharded_metrics_and_health_surface_fleet(self, spec):
        router = ShardedRouter(spec, n_workers=N_WORKERS, monitor_interval_s=0)
        with PredictorServer(router, port=0) as srv:
            with urllib.request.urlopen(f"{srv.url}/predict".replace("/predict", "/healthz")) as r:
                health = json.loads(r.read())
            assert health["status"] == "ok"
            assert health["workers_alive"] == N_WORKERS
            assert health["workers_total"] == N_WORKERS
            body = json.dumps({"device": "fpga", "indices": [1, 2, 3]}).encode()
            req = urllib.request.Request(
                f"{srv.url}/predict", data=body, headers={"Content-Type": "application/json"}
            )
            with urllib.request.urlopen(req, timeout=120) as r:
                assert json.loads(r.read())["count"] == 3
            with urllib.request.urlopen(f"{srv.url}/metrics") as r:
                snap = json.loads(r.read())
            assert snap["workers_alive"] == N_WORKERS
            assert snap["port"] == srv.port  # ephemeral bind is reported
            assert snap["requests_total"] >= 1
            assert snap["batches_total"] >= 1  # rollup from shard batchers
            assert len(snap["workers"]["per_worker"]) == N_WORKERS
            assert len(snap["workers"]["shard_queue_depths"]) == N_WORKERS
            # Aggregate session stats summed across the fleet.
            assert snap["session"]["queries"] >= 1
            assert snap["warmup_complete"] is True
            owner = router.shard_of("fpga")
            stats = snap["workers"]["per_worker"][owner]["stats"]
            assert stats["queries"] >= 1

    def test_out_of_range_indices_rejected_at_router(self, spec):
        router = ShardedRouter(spec, n_workers=2, monitor_interval_s=0)
        with PredictorServer(router, port=0) as srv:
            body = json.dumps({"device": "fpga", "indices": [TABLE + 5]}).encode()
            req = urllib.request.Request(
                f"{srv.url}/predict", data=body, headers={"Content-Type": "application/json"}
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=30)
            assert err.value.code == 400
