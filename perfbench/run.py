"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run in a checkout builds the
cached inputs (``perfbench/build.py``: the N1 pretrain and the reference
tables).  Each run then sets the program up, measures for about ``S``
seconds, checks every served score, prints each metric by name with its
unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with the span recorder on and reports
the per-layer metrics instead.  A wrong output exits 1; a run that cannot
produce a result exits 2 without a JSON line.
"""
from __future__ import annotations

import argparse
import fcntl
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import numpy as np  # noqa: E402

from common import (  # noqa: E402
    BENCH_DIR, CACHE_DIR, RESULTS_DIR, ROOT, SRC, WarmCores, machine_stamp, nproc, source_digest,
)

E2E_METRICS = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("rate_per_s", "1/s"),
]


def ensure_cache() -> Path:
    """The build for this source tree, made on first use under a lock."""
    digest = source_digest()
    target = CACHE_DIR / digest
    if (target / "meta.json").exists():
        return target
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    with open(CACHE_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if (target / "meta.json").exists():
            return target
        for stale in CACHE_DIR.iterdir():  # builds of other source trees
            if stale.is_dir():
                shutil.rmtree(stale, ignore_errors=True)
        tmp = CACHE_DIR / f"{digest}.tmp"
        print(f"[perfbench] building inputs for src {digest} (first run in this checkout) ...",
              file=sys.stderr, flush=True)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "build.py"), str(tmp)], check=True, timeout=850,
            stdout=sys.stderr, cwd=ROOT,
        )
        tmp.rename(target)
        print(f"[perfbench] build done in {time.perf_counter() - t0:.1f}s", file=sys.stderr, flush=True)
    return target


def main(argv=None) -> int:
    from workloads import WORKLOADS, BenchError, Ctx

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing "
              "(run from the root of a checkout)", file=sys.stderr)
        return 2
    try:
        cache = ensure_cache()
        meta = json.loads((cache / "meta.json").read_text())
        trace_dir = None
        if args.trace:
            trace_dir = RESULTS_DIR / f"spans-{args.workload}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
        ctx = Ctx(
            workload=args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            cache=cache, meta=meta, ref=np.load(cache / "ref.npy"), truth=np.load(cache / "truth.npy"),
            nconn=min(2, nproc()), trace_dir=trace_dir,
        )
        with WarmCores():
            result = WORKLOADS[args.workload](ctx)
            if args.trace:
                timed = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "build.py"), "--pretrain-only"],
                    check=True, timeout=170, capture_output=True, text=True, cwd=ROOT,
                )
                result.layers["setup.pretrain_s"] = json.loads(timed.stdout.splitlines()[-1])["pretrain_s"]
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    stamp = machine_stamp(args.seed)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: nproc={stamp['nproc']} affinity={stamp['affinity']} python={stamp['python']} "
          f"numpy={stamp['numpy']} blas={stamp['threadpool'].get('blas')} "
          f"src={stamp['src_digest']} commit={stamp['git_commit']}")
    for p in result.phases:
        print(f"# phase {p['phase']:<16} rate={p['rate']:5.1f}/s sent={p['sent']} ok={p['succeeded']} "
              f"failed={p['failed']} p50={p['p50_ms']:.2f}ms tail(p{p['tail_pct']})={p['tail_ms']:.2f}ms "
              f"gen_lag p50={p['gen_lag_p50_ms']:.2f}ms tail={p['gen_lag_tail_ms']:.2f}ms "
              f"{'valid' if p['valid'] else 'INVALID (generator fell behind)'}")
    for name, (value, unit, note) in result.named.items():
        print(f"{name} = {value:.6g} {unit}  ({note})")
    for name, unit in E2E_METRICS:
        print(f"{name} = {result.e2e[name]:.6g} {unit}")
    for name, ok, detail in result.checks:
        print(f"check: {'PASS' if ok else 'FAIL'} {name}: {detail}")
    if args.trace:
        import tracing

        for name, unit, *_ in tracing.LAYER_METRICS:
            print(f"{name} = {result.layers.get(name, 0.0):.6g} {unit}")
        metrics = {name: {"value": float(result.layers.get(name, 0.0)), "unit": unit}
                   for name, unit, *_ in tracing.LAYER_METRICS}
    else:
        metrics = {name: {"value": float(result.e2e[name]), "unit": unit} for name, unit in E2E_METRICS}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    if not finite:
        print("check: FAIL every reported metric is finite", file=sys.stderr)
    correct = result.correct and finite
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": stamp, "phases": result.phases, "checks": result.checks,
        "named": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in result.named.items()},
        "e2e": result.e2e, "layers": result.layers, "correct": correct,
    }
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": result.attempted, "failed": result.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
