"""Span recorder, wrappers around the program's public calls, and the
per-layer arithmetic of the traced run.

The recorder keeps spans in memory — name, start, end, span id, parent
span, request id, pid, thread — and writes them out at shutdown.  Spans
come only from wrappers installed here, around public functions of
``repro``; nothing under ``src/`` is edited.  Wrappers are installed
before any server, session or worker exists, so bound methods captured
later (the batcher's ``predict_fn``) are the wrapped ones, and forked
sharded workers inherit them.

``perf_counter`` is the system-wide monotonic clock on Linux, so spans
from the generator, the server and forked workers share one time axis.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# name, unit, better, layer (module), the end-to-end metric it should move.
LAYER_METRICS = [
    ("server.envelope_ms", "ms", "lower", "serving/server.py _Handler + socket",
     "p50_ms (p50_ms.r10) on serve-zipf"),
    ("server.validate_ms", "ms", "lower", "serving/server.py PredictorServer",
     "tail_ms.r20 on serve-zipf"),
    ("server.requests", "count", "higher", "serving/server.py PredictorServer", "-"),
    ("server.errors", "count", "lower", "serving/server.py PredictorServer", "-"),
    ("batcher.wait_ms", "ms", "lower", "serving/server.py MicroBatcher",
     "p50_ms (p50_ms.r10) and rate_per_s (max_rate_rps) on serve-zipf"),
    ("batcher.mean_batch_requests", "count", "higher", "serving/server.py MicroBatcher",
     "rate_per_s (max_rate_rps) on serve-zipf"),
    ("batcher.batches", "count", "lower", "serving/server.py MicroBatcher", "-"),
    ("session.predict_batch_ms", "ms", "lower", "serving/session.py",
     "p50_ms on serve-zipf; rate_per_s on sweep"),
    ("session.overhead_ms", "ms", "lower", "serving/session.py",
     "p50_ms on serve-zipf; rate_per_s on sweep"),
    ("session.lock_wait_ms", "ms", "lower", "serving/session.py",
     "tail_ms.r10 (reader) on adapt-drift (a cold adapt holds the lock)"),
    ("session.score_hit_rate", "1", "higher", "serving/session.py", "p50_ms on serve-zipf"),
    ("session.score_evictions", "count", "lower", "serving/session.py", "rate_per_s on sweep"),
    ("session.encode_hit_rate", "1", "higher", "serving/session.py", "rate_per_s on sweep"),
    ("session.plan_compiles", "count", "lower", "serving/session.py", "tail_ms.r10 on adapt-drift"),
    ("replay.ms_per_krow", "ms", "lower", "predictors/compiled.py + nnlib/trace.py",
     "rate_per_s (sweep_archs_per_s) on sweep; flat on serve-zipf"),
    ("replay.pad_frac", "1", "lower", "predictors/compiled.py + nnlib/trace.py",
     "rate_per_s on sweep"),
    ("replay.calls", "count", "lower", "predictors/compiled.py + nnlib/trace.py", "-"),
    ("replay.wall_frac", "1", "lower", "predictors/compiled.py + nnlib/trace.py",
     "rate_per_s on sweep"),
    ("encode.ms_per_krow", "ms", "lower", "predictors/space_tensors.py",
     "rate_per_s on sweep (expected ~0 share)"),
    ("adapt.sampler_s", "s", "lower", "samplers/", "rate_per_s (cold_adapt_s) on adapt-drift"),
    ("adapt.hw_init_s", "s", "lower", "transfer/hw_init.py",
     "rate_per_s (cold_adapt_s) on adapt-drift"),
    ("adapt.finetune_s", "s", "lower",
     "predictors/nasflat.py + training.py + nnlib/optim.py",
     "rate_per_s (cold_adapt_s) on adapt-drift; setup_s on all"),
    ("setup.pretrain_s", "s", "lower", "transfer/pipeline.py (NASFLATPipeline.pretrain)",
     "the one-time build of a checkout"),
    ("setup.warm_s", "s", "lower", "serving/session.py (warming)", "setup_s on all"),
    ("adaptation.ingest_ms", "ms", "lower", "serving/adaptation.py",
     "rate_per_s (drift_recover_s) on adapt-drift"),
    ("adaptation.check_s", "s", "lower", "serving/adaptation.py",
     "rate_per_s (drift_recover_s) on adapt-drift"),
    ("adaptation.readapt_s", "s", "lower", "serving/adaptation.py",
     "rate_per_s (drift_recover_s) on adapt-drift"),
    ("adaptation.promote_frac", "1", "higher", "serving/adaptation.py",
     "rate_per_s (drift_recover_s) on adapt-drift"),
    ("router.submit_ms", "ms", "lower", "serving/router.py + worker.py + transport.py",
     "p50_ms and rate_per_s on serve-zipf-sharded"),
    ("router.mean_batch_requests", "count", "higher", "serving/router.py",
     "rate_per_s on serve-zipf-sharded"),
    ("workers.retries", "count", "lower", "serving/router.py", "-"),
    ("workers.deaths", "count", "lower", "serving/router.py + worker.py", "-"),
    ("workers.queue_depth_max", "count", "lower", "serving/router.py",
     "tail_ms and rate_per_s on serve-zipf-sharded"),
    ("workers.score_hit_rate", "1", "higher", "serving/worker.py + session.py",
     "p50_ms on serve-zipf-sharded"),
    ("trace.overhead_ms", "ms", "lower", "the benchmark's recorder",
     "traced minus untraced p50_ms, same workload"),
]

# Span name -> layer whose self time it is.
SPAN_LAYER = {
    "client.request": "envelope",
    "server.handle_predict": "server",
    "router.submit": "router",
    "batcher.submit": "batcher",
    "session.predict_batch": "session",
    "session.adapt": "session",
    "replay.compiled_predict": "replay",
    "encode.batch": "encode",
    "adapt.sampler_select": "adapt",
    "adapt.hw_init": "adapt",
    "adapt.finetune": "adapt",
    "adaptation.ingest": "adaptation",
    "adaptation.check": "adaptation",
    "adaptation.readapt": "adaptation",
}
SELF_LAYERS = ["envelope", "server", "router", "batcher", "session", "replay", "encode", "adapt", "adaptation"]
LAYER_METRICS += [
    (f"self.{layer}_ms", "ms", "lower", f"{layer} layer, all spans",
     "self time per foreground operation, from the span tree")
    for layer in SELF_LAYERS
]


class Recorder:
    """In-memory span recorder.

    ``flag`` is any object with a ``value`` attribute (a shared
    ``multiprocessing.RawValue`` in the server process, so forked workers
    follow the parent's on/off switch); ``None`` means always on.
    """

    def __init__(self, flag=None):
        self.flag = flag
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.pid = os.getpid()

    @property
    def enabled(self) -> bool:
        return self.flag is None or bool(self.flag.value)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs: dict):
        stack = self._stack()
        sid = next(self._ids)
        parent, parent_rid = stack[-1] if stack else (None, None)
        rid = attrs.pop("rid", None)
        if rid is None:
            rid = parent_rid
        stack.append((sid, rid))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(
                (name, t0, t1, sid, parent, rid, self.pid, threading.get_ident(), attrs)
            )

    def add(self, name: str, t0: float, t1: float, rid=None, **attrs) -> None:
        """Record a span measured by the caller (the generator's requests)."""
        self.spans.append(
            (name, t0, t1, next(self._ids), None, rid, self.pid, threading.get_ident(), attrs)
        )

    def dump(self, directory: Path) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"spans-{self.pid}.jsonl"
        with open(path, "w") as fh:
            for span in list(self.spans):
                fh.write(json.dumps(span) + "\n")
        return path


def load_spans(directory: Path) -> list[tuple]:
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(tuple(json.loads(line)) for line in fh if line.strip())
    return spans


# ------------------------------------------------------------------ wrappers
def _wrap(rec: Recorder, owner, attr: str, name: str, attrs_fn=None) -> None:
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return orig(*args, **kwargs)
        attrs = attrs_fn(*args, **kwargs) if attrs_fn is not None else {}
        return rec.call(name, orig, args, kwargs, attrs)

    wrapper.__wrapped_by_perfbench__ = True
    setattr(owner, attr, wrapper)


def _rows(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


def install(rec: Recorder, span_dir: Path | None = None) -> None:
    """Wrap the public calls each layer is timed around.

    ``span_dir`` is where a forked sharded worker writes its spans when its
    ``worker_main`` returns (workers exit through ``os._exit``, so an
    ``atexit`` hook would never run).
    """
    import repro.samplers as samplers_pkg
    from repro.predictors import compiled as compiled_mod
    from repro.predictors.nasflat import NASFLATPredictor
    from repro.predictors.space_tensors import SpaceTensors
    from repro.samplers.base import Sampler
    from repro.serving import adaptation as adaptation_mod
    from repro.serving import router as router_mod
    from repro.serving import server as server_mod
    from repro.serving import session as session_mod
    from repro.transfer import hw_init as hw_init_mod

    def payload_attrs(self, payload):
        if isinstance(payload, dict):
            return {"rid": payload.get("rid"), "device": payload.get("device")}
        return {}

    def device_rows(self, device, indices, *a, **k):
        return {"device": device, "rows": _rows(indices)}

    def replay_attrs(self, adj, ops=None, device=None, supplementary=None, batch_size=256):
        if isinstance(adj, str):
            device, n = adj, _rows(ops)
        else:
            n = _rows(adj)
        computed = 0
        for start in range(0, n, max(1, batch_size)):
            computed += sum(compiled_mod.plan_buckets(min(batch_size, n - start)))
        return {"device": device, "rows": n, "computed": computed}

    _wrap(rec, server_mod.PredictorServer, "handle_predict", "server.handle_predict", payload_attrs)
    _wrap(rec, server_mod.MicroBatcher, "submit", "batcher.submit", device_rows)
    _wrap(rec, router_mod.ShardedRouter, "submit", "router.submit", device_rows)
    _wrap(rec, session_mod.PredictorSession, "predict_batch", "session.predict_batch", device_rows)
    _wrap(rec, session_mod.PredictorSession, "adapt", "session.adapt",
          lambda self, device, indices=None: {"device": device})
    _wrap(rec, session_mod.PredictorSession, "readapt", "adaptation.readapt",
          lambda self, device, *a, **k: {"device": device})
    _wrap(rec, NASFLATPredictor, "compiled_predict", "replay.compiled_predict", replay_attrs)
    _wrap(rec, NASFLATPredictor, "adapt", "adapt.finetune",
          lambda self, device, *a, **k: {"device": device})
    _wrap(rec, SpaceTensors, "batch", "encode.batch", lambda self, indices: {"rows": _rows(indices)})
    _wrap(rec, hw_init_mod, "select_init_device", "adapt.hw_init")
    _wrap(rec, adaptation_mod.AdaptationManager, "ingest", "adaptation.ingest",
          lambda self, device, *a, **k: {"device": device})
    _wrap(rec, adaptation_mod.AdaptationManager, "check_device", "adaptation.check",
          lambda self, device: {"device": device})
    seen = set()
    for name in dir(samplers_pkg):
        cls = getattr(samplers_pkg, name)
        if isinstance(cls, type) and issubclass(cls, Sampler):
            for klass in cls.__mro__:
                if "select" in vars(klass) and klass not in seen:
                    seen.add(klass)
                    _wrap(rec, klass, "select", "adapt.sampler_select")

    if span_dir is not None:
        orig_main = router_mod.worker_main

        @functools.wraps(orig_main)
        def worker_main(*args, **kwargs):
            try:
                return orig_main(*args, **kwargs)
            finally:
                rec.dump(span_dir)

        router_mod.worker_main = worker_main


# ---------------------------------------------------------------- arithmetic
def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _key(span) -> tuple:
    return (span[6], span[3])  # (pid, span id)


def link_children(spans) -> dict:
    """Child intervals per span key.

    Same-thread nesting comes from the recorded parent ids.  Two edges cross
    threads or processes and are linked here: a client request owns the
    ``server.handle_predict`` span with its request id, and a batcher
    submit owns the ``session.predict_batch`` span of the same device that
    ran inside its interval (in its dispatcher thread, or in a sharded
    worker).
    """
    children: dict = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[(s[6], s[4])].append((s[1], s[2]))
    by_rid = {}
    for s in spans:
        if s[0] == "client.request" and s[5] is not None:
            by_rid[s[5]] = s
    for s in spans:
        if s[0] == "server.handle_predict" and s[5] in by_rid:
            children[_key(by_rid[s[5]])].append((s[1], s[2]))
    submit_owner = match_submits(spans)
    for submit_key, p in submit_owner.items():
        children[submit_key].append((p[1], p[2]))
    return children


def match_submits(spans) -> dict:
    """``batcher.submit`` key -> the ``session.predict_batch`` span that
    served it: same device, inside the submit's interval, latest-ending
    (a retried batch re-runs its predict)."""
    predicts = defaultdict(list)
    for s in spans:
        if s[0] == "session.predict_batch":
            predicts[s[8].get("device")].append(s)
    for plist in predicts.values():
        plist.sort(key=lambda s: s[1])
    owner = {}
    for s in spans:
        if s[0] != "batcher.submit":
            continue
        best = None
        for p in predicts.get(s[8].get("device"), ()):
            if p[1] > s[2]:
                break
            if p[1] >= s[1] and p[2] <= s[2] and (best is None or p[2] > best[2]):
                best = p
        if best is not None:
            owner[_key(s)] = best
    return owner


def self_times(spans, children=None) -> dict:
    """Span key -> self time: its duration minus the part of its interval
    covered by its children."""
    children = link_children(spans) if children is None else children
    return {
        _key(s): (s[2] - s[1]) - union_length(children.get(_key(s), ()), s[1], s[2])
        for s in spans
    }


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(spans, window: tuple[float, float], n_ops: int) -> dict:
    """Per-layer metrics from spans inside the timed ``window``.

    Request-path metrics use only spans that start inside the window; the
    adaptation-stack means (sampler, hw-init, fine-tune) use every span,
    because serve and sweep adapt only while warming.
    """
    lo, hi = window
    inside = [s for s in spans if lo <= s[1] <= hi]
    by_name = defaultdict(list)
    for s in inside:
        by_name[s[0]].append(s)
    everywhere = defaultdict(list)
    for s in spans:
        everywhere[s[0]].append(s)
    dur = lambda s: s[2] - s[1]  # noqa: E731
    out: dict = {}

    clients = {s[5]: s for s in by_name["client.request"] if s[5] is not None}
    handles = {s[5]: s for s in by_name["server.handle_predict"] if s[5] is not None}
    env = [dur(clients[r]) - dur(h) for r, h in handles.items() if r in clients]
    out["server.envelope_ms"] = _mean(env) * 1e3

    children = link_children(inside)
    submit_of = {}  # handle key -> its direct batcher/router submit span
    for name in ("router.submit", "batcher.submit"):
        for s in by_name[name]:
            if s[4] is not None:
                submit_of.setdefault((s[6], s[4]), s)
    validate = [dur(h) - dur(submit_of[_key(h)]) for h in handles.values() if _key(h) in submit_of]
    out["server.validate_ms"] = _mean(validate) * 1e3

    owner = match_submits(inside)
    wait = [dur(s) - dur(owner[_key(s)]) for s in by_name["batcher.submit"] if _key(s) in owner]
    out["batcher.wait_ms"] = _mean(wait) * 1e3

    predicts = by_name["session.predict_batch"]
    out["session.predict_batch_ms"] = _mean([dur(p) for p in predicts]) * 1e3
    replay_in = defaultdict(float)
    adapt_start = {}
    for s in inside:
        if s[4] is None:
            continue
        parent = (s[6], s[4])
        if s[0] == "replay.compiled_predict":
            replay_in[parent] += dur(s)
        elif s[0] == "session.adapt":
            adapt_start.setdefault(parent, s[1])
    out["session.overhead_ms"] = _mean([dur(p) - replay_in[_key(p)] for p in predicts]) * 1e3
    out["session.lock_wait_ms"] = _mean(
        [adapt_start[_key(p)] - p[1] for p in predicts if _key(p) in adapt_start]
    ) * 1e3

    replays = by_name["replay.compiled_predict"]
    rows = sum(s[8].get("rows", 0) for s in replays)
    computed = sum(s[8].get("computed", 0) for s in replays)
    replay_s = sum(dur(s) for s in replays)
    out["replay.ms_per_krow"] = replay_s / rows * 1e6 if rows else 0.0
    out["replay.pad_frac"] = (computed - rows) / computed if computed else 0.0
    out["replay.calls"] = float(len(replays))
    out["replay.wall_frac"] = replay_s / (hi - lo) if hi > lo else 0.0

    encodes = by_name["encode.batch"]
    enc_rows = sum(s[8].get("rows", 0) for s in encodes)
    out["encode.ms_per_krow"] = sum(dur(s) for s in encodes) / enc_rows * 1e6 if enc_rows else 0.0

    out["adapt.sampler_s"] = _mean([dur(s) for s in everywhere["adapt.sampler_select"]])
    out["adapt.hw_init_s"] = _mean([dur(s) for s in everywhere["adapt.hw_init"]])
    out["adapt.finetune_s"] = _mean([dur(s) for s in everywhere["adapt.finetune"]])
    out["adaptation.ingest_ms"] = _mean([dur(s) for s in by_name["adaptation.ingest"]]) * 1e3
    out["adaptation.check_s"] = _mean([dur(s) for s in by_name["adaptation.check"]])
    out["adaptation.readapt_s"] = _mean([dur(s) for s in by_name["adaptation.readapt"]])
    out["router.submit_ms"] = _mean([dur(s) for s in by_name["router.submit"]]) * 1e3

    selfs = self_times(inside, children)
    per_layer = defaultdict(float)
    for s in inside:
        layer = SPAN_LAYER.get(s[0])
        if layer is not None:
            per_layer[layer] += selfs[_key(s)]
    for layer in SELF_LAYERS:
        out[f"self.{layer}_ms"] = per_layer[layer] / n_ops * 1e3 if n_ops else 0.0
    return out


def counter_metrics(before: dict, after: dict) -> dict:
    """Per-layer counters from two ``/metrics`` snapshots (or, for the
    in-process sweep, two snapshot-shaped dicts built from SessionStats)."""
    def delta(block, key):
        a = (after.get(block) or {}) if block else after
        b = (before.get(block) or {}) if block else before
        return float((a.get(key) or 0) - (b.get(key) or 0))

    out: dict = {}
    out["server.requests"] = delta(None, "requests_total")
    out["server.errors"] = delta(None, "errors_total")
    batches = delta(None, "batches_total")
    out["batcher.batches"] = batches
    out["batcher.mean_batch_requests"] = delta(None, "batched_requests_total") / batches if batches else 0.0
    hits, misses = delta("session", "score_hits"), delta("session", "score_misses")
    out["session.score_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    out["session.score_evictions"] = delta("session", "score_evictions")
    ehits, emiss = delta("session", "encode_hits"), delta("session", "encode_misses")
    out["session.encode_hit_rate"] = ehits / (ehits + emiss) if ehits + emiss else 0.0
    out["session.plan_compiles"] = delta("session", "plan_compiles")
    adapt_a, adapt_b = after.get("adaptation") or {}, before.get("adaptation") or {}
    adaptations = (adapt_a.get("adaptations_total") or 0) - (adapt_b.get("adaptations_total") or 0)
    promotions = (adapt_a.get("promotions_total") or 0) - (adapt_b.get("promotions_total") or 0)
    out["adaptation.promote_frac"] = promotions / adaptations if adaptations else 0.0
    workers = after.get("workers")
    if workers is not None:
        wb = before.get("workers") or {}
        out["router.mean_batch_requests"] = out["batcher.mean_batch_requests"]
        out["workers.retries"] = float(workers.get("retries_total", 0) - wb.get("retries_total", 0))
        out["workers.deaths"] = float(
            workers.get("worker_deaths_total", 0) - wb.get("worker_deaths_total", 0)
        )
        out["workers.score_hit_rate"] = out["session.score_hit_rate"]
    else:
        out["router.mean_batch_requests"] = 0.0
        out["workers.retries"] = 0.0
        out["workers.deaths"] = 0.0
        out["workers.score_hit_rate"] = 0.0
    return out
