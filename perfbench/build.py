"""One-time build of the benchmark's fixed inputs, cached per source tree.

Run as ``python3 perfbench/build.py OUT_DIR``.  It pretrains the N1
quick-config NASFLAT checkpoint (NAS-Bench-201, 15,625 architectures) and
writes, into ``OUT_DIR``:

* ``ckpt.npz``   the pretrained checkpoint every workload serves from;
* ``ref.npy``    reference scores, ``[test device, arch]``, from a cache-off
                 compiled f64 session over the same checkpoint — the bitwise
                 oracle for served scores;
* ``truth.npy``  the ``LatencyDataset`` ground truth, ``[device, arch]``, for
                 every NAS-Bench-201 device;
* ``meta.json``  device lists, the drift source chosen for each test device,
                 and the build's own timings (``pretrain_s``).

Pretraining costs ~12 s on 2 cores; paying it in every run would not fit
the run budget, so each checkout pays it once, on its first run, and a
traced run times one more (``--pretrain-only``) for ``setup.pretrain_s``.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import SERVE_DEFAULTS, SRC, TASK, source_digest  # noqa: E402

CHUNK = 1024


def build(out: Path) -> None:
    sys.path.insert(0, str(SRC))
    import numpy as np
    from scipy import stats

    from repro.hardware.registry import devices_for_space
    from repro.serving import PredictorSession
    from repro.transfer.pipeline import quick_config

    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    session = PredictorSession(TASK, quick_config(n_transfer_samples=SERVE_DEFAULTS["samples"]), seed=0)
    t1 = time.perf_counter()
    session.pretrain()
    pretrain_s = time.perf_counter() - t1
    session.save(out / "ckpt.npz")

    task = session.task
    n = session.pipeline.space.num_architectures()
    ref_session = PredictorSession.from_checkpoint(
        out / "ckpt.npz", config=quick_config(n_transfer_samples=SERVE_DEFAULTS["samples"]),
        max_cached_scores=0,
    )
    t2 = time.perf_counter()
    ref = np.empty((len(task.test_devices), n), dtype=np.float64)
    for row, device in enumerate(task.test_devices):
        for start in range(0, n, CHUNK):
            idx = np.arange(start, min(n, start + CHUNK))
            ref[row, idx] = ref_session.predict_batch(device, idx)
    reference_s = time.perf_counter() - t2

    devices = list(devices_for_space(task.space))
    truth = session.pipeline.dataset.matrix(devices).T.copy()  # [device, arch]
    rho, _ = stats.spearmanr(truth.T)
    pool = set(task.train_devices) | set(task.test_devices)
    drift_source = {}
    for device in task.test_devices:
        i = devices.index(device)
        order = [j for j in np.argsort(rho[i]) if j != i]
        drift_source[device] = devices[int(order[0])]

    np.save(out / "ref.npy", ref)
    np.save(out / "truth.npy", truth)
    meta = {
        "task": task.name,
        "n_archs": int(n),
        "train_devices": list(task.train_devices),
        "test_devices": list(task.test_devices),
        "devices": devices,
        "unseen_devices": [d for d in devices if d not in pool],
        "drift_source": drift_source,
        "drift_source_rho": {d: float(rho[devices.index(d), devices.index(s)]) for d, s in drift_source.items()},
        "pretrain_s": pretrain_s,
        "session_build_s": t1 - t0,
        "reference_s": reference_s,
        "src_digest": source_digest(),
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1))


def time_pretrain() -> float:
    """One fresh N1 quick pretrain, timed around ``NASFLATPipeline.pretrain``
    (a traced run reports it as ``setup.pretrain_s``)."""
    sys.path.insert(0, str(SRC))
    from repro.transfer.pipeline import NASFLATPipeline, quick_config
    from repro.tasks import get_task

    pipeline = NASFLATPipeline(get_task(TASK), quick_config(n_transfer_samples=SERVE_DEFAULTS["samples"]), seed=0)
    t0 = time.perf_counter()
    pipeline.pretrain()
    return time.perf_counter() - t0


if __name__ == "__main__":
    if sys.argv[1:] == ["--pretrain-only"]:
        print(json.dumps({"pretrain_s": time_pretrain()}))
    elif len(sys.argv) == 2:
        build(Path(sys.argv[1]))
    else:
        raise SystemExit("usage: build.py OUT_DIR | build.py --pretrain-only")
