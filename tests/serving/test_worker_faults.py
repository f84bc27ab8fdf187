"""Fault-injection suite: kill workers and prove the router hides it.

The fault model under test (see :mod:`repro.serving.router`): predictions
are idempotent, a dead worker's reply channel dies with it, so the router
may retry an in-flight request on a respawned worker with no request
dropped and none double-answered.  The ``sleep`` worker op gives each test
a deterministic window in which SIGKILL provably lands mid-flight.
"""
import json
import os
import signal
import threading
import time
import urllib.request

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
from repro.serving.router import WorkerUnavailableError
from repro.tasks import Task
from repro.transfer.pipeline import PipelineConfig

TABLE = 288
DEVICES = ("fpga", "eyeriss", "raspi4", "samsung_s7")


@pytest.fixture(scope="module")
def mini_task():
    from repro.spaces import GenericCellSpace
    from repro.spaces.registry import _INSTANCES

    sp = GenericCellSpace("nb101", table_size=TABLE)
    _INSTANCES[sp.name] = sp
    return Task(
        "T-faults",
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
def spec(mini_task, cfg, tmp_path_factory):
    root = tmp_path_factory.mktemp("faults")
    session = PredictorSession(mini_task, cfg, seed=0).pretrain()
    ckpt = root / "ckpt.npz"
    session.save(ckpt)
    write_bundle(session, root / "plans", list(DEVICES), [8, 16])
    return WorkerSpec(checkpoint=ckpt, task=mini_task, config=cfg, plans=root / "plans")


@pytest.fixture(scope="module")
def expected(spec, mini_task, cfg):
    """Ground-truth scores from a 1-process session over the same bundle."""
    return PredictorSession.from_checkpoint(
        spec.checkpoint, task=mini_task, config=cfg, warmup_artifacts=spec.plans
    )


def _occupy(router, wid, seconds):
    """Park shard ``wid``'s worker in a ``sleep`` RPC — the kill window."""
    handle = router._handles[wid]

    def _rpc():
        try:
            router._request(handle, {"op": "sleep", "seconds": seconds}, seconds + 30)
        except Exception:
            pass  # SIGKILL severs the socket mid-RPC; that's the point

    t = threading.Thread(target=_rpc, daemon=True)
    t.start()
    time.sleep(0.1)  # let the frame land so the worker is provably asleep
    return t


class TestKillMidFlight:
    def test_sigkill_mid_request_is_retried_and_correct(self, spec, expected):
        device = "fpga"
        idx = np.arange(5, 17)
        with ShardedRouter(spec, n_workers=4, monitor_interval_s=0) as router:
            wid = router.shard_of(device)
            pid = router._handles[wid].pid
            occupier = _occupy(router, wid, seconds=20.0)
            results = []
            client = threading.Thread(
                target=lambda: results.append(router.submit(device, idx, timeout=300))
            )
            client.start()  # queued behind the sleeping worker
            time.sleep(0.2)
            os.kill(pid, signal.SIGKILL)
            client.join(timeout=300)
            occupier.join(timeout=5)
            assert not client.is_alive(), "request never completed after kill"
            assert np.array_equal(results[0], expected.predict_batch(device, idx))
            assert router.deaths_total == 1
            assert router.respawns_total == 1
            assert router.retries_total >= 1
            assert router._handles[wid].pid != pid  # genuinely a new process

    def test_no_request_dropped_or_double_answered(self, spec, expected):
        """N client threads stream requests while a worker is murdered:
        exactly one correct response per request — none lost, none extra."""
        n_clients, per_client = 4, 6
        with ShardedRouter(spec, n_workers=4, monitor_interval_s=0.2) as router:
            wid = router.shard_of("fpga")
            # Parked before any client starts, so the kill below lands while
            # fpga requests are queued behind the sleep — not after every
            # request has already been answered.
            occupier = _occupy(router, wid, seconds=20.0)
            responses = {}  # (client, i) -> scores; dict insert is atomic

            def client(cid):
                rng = np.random.default_rng(cid)
                for i in range(per_client):
                    device = DEVICES[(cid + i) % len(DEVICES)]
                    idx = rng.choice(TABLE, size=7, replace=False)
                    got = router.submit(device, idx, timeout=300)
                    key = (cid, i)
                    assert key not in responses, "double answer"
                    responses[key] = (device, idx, got)

            threads = [threading.Thread(target=client, args=(c,)) for c in range(n_clients)]
            for t in threads:
                t.start()
            time.sleep(0.15)  # mid-stream: kill the fpga shard's worker
            os.kill(router._handles[wid].pid, signal.SIGKILL)
            for t in threads:
                t.join(timeout=300)
                assert not t.is_alive()
            occupier.join(timeout=5)
            assert len(responses) == n_clients * per_client  # nothing dropped
            for device, idx, got in responses.values():
                assert np.array_equal(got, expected.predict_batch(device, idx))
            assert router.deaths_total >= 1

    def test_adapt_is_retried_after_kill(self, spec, expected):
        device = "eyeriss"
        pinned = np.arange(30, 38)
        with ShardedRouter(spec, n_workers=4, monitor_interval_s=0) as router:
            wid = router.shard_of(device)
            pid = router._handles[wid].pid
            _occupy(router, wid, seconds=20.0)
            done = []
            adapter = threading.Thread(
                target=lambda: done.append(router.adapt(device, pinned))
            )
            adapter.start()
            time.sleep(0.2)
            os.kill(pid, signal.SIGKILL)
            adapter.join(timeout=300)
            assert not adapter.is_alive() and len(done) == 1
            expected.adapt(device, pinned)
            idx = np.arange(9)
            assert np.array_equal(
                router.submit(device, idx, timeout=120),
                expected.predict_batch(device, idx),
            )


class TestRetryExhaustion:
    def test_unavailable_after_retries_exhausted(self, spec, monkeypatch):
        """With zero retries and no monitor, a death mid-request surfaces as
        WorkerUnavailableError instead of hanging or silently retrying."""
        with ShardedRouter(
            spec, n_workers=2, max_retries=0, monitor_interval_s=0
        ) as router:
            wid = router.shard_of("fpga")

            real_ensure = router._ensure_worker

            def killing_ensure(w):
                handle = real_ensure(w)
                if w == wid:
                    os.kill(handle.pid, signal.SIGKILL)
                    time.sleep(0.1)
                return handle

            monkeypatch.setattr(router, "_ensure_worker", killing_ensure)
            with pytest.raises(WorkerUnavailableError):
                router._rpc_with_retry(wid, {"op": "ping"})
            monkeypatch.setattr(router, "_ensure_worker", real_ensure)
            # The shard heals on the next (unkilled) request.
            assert router._rpc_with_retry(wid, {"op": "ping"})["ok"] is True


class TestHealthGauges:
    def test_healthz_degrades_then_recovers_over_http(self, spec):
        with ShardedRouter(spec, n_workers=4, monitor_interval_s=0.2) as router:
            with PredictorServer(router, port=0) as srv:
                def health():
                    with urllib.request.urlopen(f"{srv.url}/healthz", timeout=30) as r:
                        return json.loads(r.read())

                snap = health()
                assert snap["status"] == "ok"
                assert snap["workers_alive"] == 4
                assert snap["workers_total"] == 4
                os.kill(router._handles[0].pid, signal.SIGKILL)
                deadline = time.monotonic() + 10
                degraded = None
                while time.monotonic() < deadline:
                    snap = health()
                    if snap["workers_alive"] < 4:
                        degraded = snap
                        break
                assert degraded is not None, "death never visible in /healthz"
                assert degraded["status"] == "degraded"
                # The monitor respawns the shard; health recovers untouched.
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    snap = health()
                    if snap["workers_alive"] == 4:
                        break
                    time.sleep(0.1)
                assert snap["status"] == "ok"
                assert snap["workers_alive"] == 4

    def test_workers_alive_gauge_tracks_in_metrics(self, spec):
        with ShardedRouter(spec, n_workers=3, monitor_interval_s=0.2) as router:
            with PredictorServer(router, port=0) as srv:
                def metrics():
                    with urllib.request.urlopen(f"{srv.url}/metrics", timeout=30) as r:
                        return json.loads(r.read())

                before = metrics()
                assert before["workers_alive"] == 3
                assert before["workers_total"] == 3
                assert before["workers"]["worker_deaths_total"] == 0
                os.kill(router._handles[1].pid, signal.SIGKILL)
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    during = metrics()
                    if during["workers_alive"] < 3:
                        break
                assert during["workers_alive"] == 2
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    after = metrics()
                    if after["workers_alive"] == 3:
                        break
                    time.sleep(0.1)
                assert after["workers_alive"] == 3
                assert after["workers"]["worker_deaths_total"] >= 1
                assert after["workers"]["worker_respawns_total"] >= 1
                # The respawned worker reports stats again.
                entry = after["workers"]["per_worker"][1]
                assert entry["alive"] is True
                assert entry["stats"] is not None

    def test_rollup_marks_dead_worker_until_respawn(self, spec):
        with ShardedRouter(spec, n_workers=2, monitor_interval_s=0) as router:
            wid = router.shard_of("fpga")  # kill the shard traffic will heal
            os.kill(router._handles[wid].pid, signal.SIGKILL)
            time.sleep(0.2)
            roll = router.metrics_rollup()
            assert roll["workers_alive"] == 1
            assert roll["per_worker"][wid]["alive"] is False
            assert roll["per_worker"][wid]["stats"] is None
            assert roll["per_worker"][1 - wid]["alive"] is True
            # No monitor: the shard heals lazily on its next request.
            assert router.submit("fpga", [1, 2, 3], timeout=120).shape == (3,)
            assert router.metrics_rollup()["workers_alive"] == 2


class TestDrainUnderFaults:
    def test_stop_drains_queued_requests_even_after_a_kill(self, spec, expected):
        """Requests queued at stop() time still answer — drain happens
        before worker shutdown, and respawn stays legal during the drain."""
        device = "raspi4"
        idx = np.arange(21, 29)
        router = ShardedRouter(spec, n_workers=2, monitor_interval_s=0).start()
        try:
            wid = router.shard_of(device)
            pid = router._handles[wid].pid
            _occupy(router, wid, seconds=3.0)
            results = []
            client = threading.Thread(
                target=lambda: results.append(router.submit(device, idx, timeout=300))
            )
            client.start()
            time.sleep(0.2)
            os.kill(pid, signal.SIGKILL)
        finally:
            router.stop()  # drain: the queued request must still answer
        client.join(timeout=60)
        assert not client.is_alive()
        assert np.array_equal(results[0], expected.predict_batch(device, idx))
        with pytest.raises(RuntimeError):
            router.submit(device, idx)  # fully closed afterwards
