"""Ahead-of-time plan artifact bundles for zero-cold-start serving.

``repro compile`` calls :func:`write_bundle` to materialize, per target
device, the adapted checkpoint plus one compiled-plan artifact per shape
bucket; ``repro serve --plans <dir>`` (via
:meth:`~repro.serving.session.PredictorSession.load_warmup`) reads the
bundle back and pre-populates the session's hot-device LRU and plan cache,
so the first request replays a loaded plan instead of paying adaptation +
trace.

A bundle is a flat directory::

    manifest.json                 # format tag, task, devices, file map
    adapted__<device>.npz         # adapted predictor checkpoint (v2)
    plan__<device>__b<bucket>.npz # one plan-IR artifact per bucket

The manifest is the source of truth: loaders iterate its file map rather
than globbing, so partial writes or stray files cannot be half-loaded.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

MANIFEST_NAME = "manifest.json"

#: Bundle directory-layout version (independent of the plan-IR version,
#: which each plan artifact carries itself).
BUNDLE_FORMAT_VERSION = 1


def _safe_name(device: str) -> str:
    """Filesystem-safe device slug (device names may contain slashes)."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", device)


def write_bundle(
    session,
    out_dir,
    devices: list[str],
    buckets: list[int],
    metadata: dict | None = None,
) -> dict:
    """Adapt each device and emit its checkpoint + per-bucket plan artifacts.

    Returns the manifest dict (also written to ``out_dir/manifest.json``).
    ``buckets`` are requested batch sizes; each maps to the plan bucket
    that serves it (:func:`~repro.predictors.compiled.bucket_for`: the next
    power of two, clamped to 4-64 rows) and duplicates collapse, so
    requesting 30 and 32 emits one artifact, and 256 the 64-row tile plan.
    """
    from repro.predictors.compiled import bucket_for

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    wanted = sorted({bucket_for(int(b)) for b in buckets})
    entries = []
    for device in devices:
        predictor = session.adapt(device)
        safe = _safe_name(device)
        ckpt_name = f"adapted__{safe}.npz"
        predictor.save(out / ckpt_name, metadata={"task": session.task.name})
        plans = []
        for bucket in wanted:
            plan_name = f"plan__{safe}__b{bucket}.npz"
            predictor.save_plan(
                bucket,
                out / plan_name,
                metadata={"task": session.task.name, "device": device},
            )
            plans.append({"bucket": bucket, "path": plan_name})
        entries.append({"device": device, "checkpoint": ckpt_name, "plans": plans})
    manifest = {
        "format": BUNDLE_FORMAT_VERSION,
        "task": session.task.name,
        "space": session.task.space,
        "seed": session.seed,
        # Execution precision every plan in the bundle was compiled at.
        # Additive key (same format version): bundles written before the
        # dtype policy existed are read as f64 by load_warmup.
        "dtype": getattr(session, "plan_dtype", "f64"),
        "devices": entries,
        "metadata": metadata or {},
    }
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    return manifest


def read_manifest(source) -> tuple[dict, Path]:
    """Load a bundle manifest; ``source`` is the bundle dir or the manifest
    file itself.  Returns ``(manifest, bundle_dir)``."""
    path = Path(source)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(f"no plan-bundle manifest at {path}")
    manifest = json.loads(path.read_text())
    fmt = manifest.get("format")
    if fmt != BUNDLE_FORMAT_VERSION:
        raise ValueError(
            f"plan bundle {path} has format {fmt!r}; this build reads "
            f"format {BUNDLE_FORMAT_VERSION}"
        )
    return manifest, path.parent
