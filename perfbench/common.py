"""Shared pieces of the benchmark: paths, statistics, traces, provenance.

Nothing here imports ``repro``; the load generator and the statistics run
in a process that never loads the program under test.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent  # the checkout the benchmark runs in
SRC = ROOT / "src"
CACHE_DIR = BENCH_DIR / ".cache"
RESULTS_DIR = BENCH_DIR / ".results"

# ``repro serve`` defaults the server-side workloads run at.
SERVE_DEFAULTS = {
    "max_batch": 64,
    "max_wait_ms": 5.0,
    "score_cache": 65536,
    "dtype": "f64",
    "samples": 20,
    "drift_threshold": 0.6,
    "adapt_interval_s": 5.0,
    "drift_window": 16,
    "pipeline_depth": 2,
}
TASK = "N1"
TAIL_LIMIT_MS = 100.0  # the tail limit behind max_rate_rps
MIN_BEYOND = 10  # a tail percentile keeps at least this many samples beyond it
ZIPF_ALPHA = 1.1
REQ_INDICES = 8  # distinct sorted architecture indices per /predict


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ------------------------------------------------------------------ statistics
def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """Highest whole percentile with at least ``min_beyond`` of ``n`` samples
    strictly beyond it (nearest-rank), or ``None`` when ``n`` is too small
    to support any percentile >= 50."""
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100.0 * n)  # 1-based nearest-rank order statistic
        if n - rank >= min_beyond:
            return float(pct)
    return None


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed operations) sort last."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        return float("nan")
    rank = max(1, math.ceil(pct / 100.0 * arr.size))
    return float(arr[rank - 1])


def latency_summary(latencies_ms) -> dict:
    """Median, tail (by the ``tail_percentile`` rule, or the maximum when
    too few samples support one) and sample count."""
    n = len(latencies_ms)
    pct = tail_percentile(n) or 100.0
    return {
        "n": n,
        "p50_ms": percentile(latencies_ms, 50) if n else float("nan"),
        "tail_pct": pct,
        "tail_ms": percentile(latencies_ms, pct) if n else float("nan"),
    }


def spearman(a, b) -> float:
    from scipy import stats

    rho, _ = stats.spearmanr(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    return float(rho)


# ---------------------------------------------------------------------- traces
def zipf_weights(n: int, alpha: float = ZIPF_ALPHA) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=np.float64) ** -alpha
    return w / w.sum()


def zipf_trace(seed: int, devices, n_archs: int, n_requests: int, k: int = REQ_INDICES):
    """``n_requests`` of ``(device, sorted k distinct indices)``.

    Device popularity is Zipf over a seed-permuted device order, and arch
    popularity is Zipf over a seed-shuffled table, so each seed has its own
    hot set.  Deterministic in ``seed``.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    devices = list(devices)
    dev_order = rng.permutation(len(devices))
    dev_w = np.empty(len(devices))
    dev_w[dev_order] = zipf_weights(len(devices))
    arch_w = np.empty(n_archs)
    arch_w[rng.permutation(n_archs)] = zipf_weights(n_archs)
    dev_pick = rng.choice(len(devices), size=n_requests, p=dev_w)
    trace = []
    for i in range(n_requests):
        idx = rng.choice(n_archs, size=k, replace=False, p=arch_w)
        trace.append((devices[int(dev_pick[i])], sorted(int(a) for a in idx)))
    return trace


def constant_rate_schedule(rate: float, duration_s: float, offset_s: float = 0.0) -> list[float]:
    """Due times (seconds from the phase start) of an open loop at ``rate``."""
    n = max(1, int(round(rate * duration_s)))
    return [offset_s + i / rate for i in range(n)]


# ------------------------------------------------------------------ provenance
def source_digest() -> str:
    """Hash of every file under ``src/``: names the program build (the
    checkout is not a git repository, so there is no commit to read)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def blas_config() -> dict:
    info: dict = {
        var: os.environ.get(var)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        info["blas"] = blas.get("name")
        info["blas_version"] = blas.get("version")
        info["blas_config"] = blas.get("openblas configuration")
    except (TypeError, AttributeError):  # older numpy: no dict mode
        info["blas"] = None
    return info


def machine_stamp(seed: int) -> dict:
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threadpool": blas_config(),
        "git_commit": git_commit(),
        "src_digest": source_digest(),
        "seed": seed,
    }


def rss_peak_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# One per core, for the length of a run: SCHED_IDLE, so the scheduler runs it
# only when nothing else wants the core, and it exits once its parent is gone.
_SPINNER = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(200000):
        pass
"""


class WarmCores:
    """Keep every core busy at idle priority while a run measures.

    The program's processes idle between light-load requests.  On a small
    VM an idle core drops into sleep states and lower clocks, and the next
    request's wake-up pays for it by a varying amount: light-load latency of
    the sharded server moved +-20% from run to run.  A ``SCHED_IDLE``
    spinner per core takes no CPU from any other process (the scheduler
    preempts it on every wake-up) but keeps the cores out of idle.
    """

    def __enter__(self) -> "WarmCores":
        import subprocess

        self.procs = [
            subprocess.Popen([sys.executable, "-c", _SPINNER, str(cpu)])
            for cpu in sorted(os.sched_getaffinity(0))
        ]
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()


def emit(line: dict, stream=None) -> None:
    """One JSON line (the harness <-> bench control protocol)."""
    stream = stream or sys.stdout
    stream.write(json.dumps(line, separators=(",", ":")) + "\n")
    stream.flush()
