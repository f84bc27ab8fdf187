"""A long-lived serving session over one pretrained NASFLAT checkpoint.

Serving traffic looks nothing like the benchmark loop: the same few target
devices are queried over and over with fresh architecture batches.  A
:class:`PredictorSession` therefore keeps two things:

1. the pretrained checkpoint state (loaded or trained once);
2. one *hot entry* per recently served device, in an LRU keyed by device
   name.  An entry holds the device's adapted predictor — adaptation
   (few-shot fine-tuning) happens once per device, not per query — along
   with what that predictor alone determines:

   * its compiled replay plans, one traced
     :class:`~repro.nnlib.trace.CompiledPlan` per shape bucket, memoized
     on the predictor itself, so steady-state serving runs pure numpy
     kernels with no tensor-engine overhead (``use_compiled=False`` falls
     back to the eager forward);
   * its score table: one f64 slot and one ``filled`` flag per
     architecture in the search space, allocated on first use.  Hits are
     gathered from the table and only misses replay a plan.  Sound bitwise
     because every plan bucket is >= 4 rows (see
     ``predictors.compiled._MIN_BUCKET``), which makes a row's f64 compiled
     score independent of the batch it rides in; eager forwards and f32
     plans have no such guarantee, so they serve around the table
     (``stats.score_bypass``).

Replacing an entry (re-adaptation, promotion, warmup load) or evicting it
drops its plans and its table together; :meth:`add_device` resets every
table, and :meth:`set_plan_dtype` every table and plan.  Adapting a device
is deterministic in ``(seed, device)``, so two sessions restored from the
same checkpoint serve identical predictions.

A session is **thread-safe**: a re-entrant lock serializes adaptation,
cache mutation, and the forward pass, so N threads hammering one session
get exactly the predictions a serial caller would (adaptation is
deterministic in ``(seed, device)``, so arrival order cannot change
results).  Served queries never build an autodiff tape: plan replay is
pure numpy and the eager forward runs under :func:`~repro.nnlib.no_grad`.
"""
from __future__ import annotations

import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import asdict, dataclass

import numpy as np

from repro.predictors.compiled import plan_buckets
from repro.predictors.nasflat import NASFLATPredictor
from repro.samplers.factory import make_sampler
from repro.tasks.devsets import Task, get_task
from repro.transfer.pipeline import NASFLATPipeline, PipelineConfig, quick_config


@dataclass
class SessionStats:
    """Cache-effectiveness counters for observability."""

    adapt_calls: int = 0
    device_hits: int = 0
    device_evictions: int = 0
    queries: int = 0
    architectures_scored: int = 0
    # Compiled-plan cache (one traced plan per (device, shape bucket)).
    plan_hits: int = 0
    plan_compiles: int = 0
    plan_invalidations: int = 0
    # Per-device score tables.  ``bypass`` counts rows served around the
    # table entirely (eager path, f32 plans, or table disabled) — a high
    # bypass there is expected, not a miss-rate problem.  Invalidations
    # count filled rows dropped with their table.
    score_hits: int = 0
    score_misses: int = 0
    score_bypass: int = 0
    score_invalidations: int = 0
    # Device cold-start cost: cumulative wall-clock spent inside adaptation
    # (sampling + fine-tuning) and the most recent single adaptation.  The
    # compiled training path exists to push these down; /metrics exposes
    # them so the win is observable in production.
    adapt_seconds: float = 0.0
    last_adapt_seconds: float = 0.0
    # Warmup-artifact loading (see ``load_warmup``): plans restored from
    # disk, wall-clock spent restoring them, and whether a requested warmup
    # ran to completion — the zero-cold-start claim is checkable per pod.
    plans_loaded: int = 0
    plan_load_seconds: float = 0.0
    warmup_complete: bool = False
    # Online adaptation (see ``readapt``): shadow candidates built off the
    # serving lock, and how each shadow evaluation ended.  A rejection means
    # the candidate was discarded and the last-good version kept serving.
    candidate_adapts: int = 0
    promotions: int = 0
    rejections: int = 0

    def snapshot(self) -> dict:
        """Plain-dict copy of the counters (for ``/metrics`` serialization)."""
        return asdict(self)


class _HotDevice:
    """A hot device's adapted predictor and its score table.

    ``scores``/``filled`` hold one f64 score and one flag per architecture
    in the search space; both stay ``None`` until the first memoized row.
    """

    __slots__ = ("predictor", "scores", "filled")

    def __init__(self, predictor: NASFLATPredictor):
        self.predictor = predictor
        self.scores: np.ndarray | None = None
        self.filled: np.ndarray | None = None

    def resident(self) -> int:
        """Filled rows in the table."""
        return 0 if self.filled is None else int(np.count_nonzero(self.filled))


class PredictorSession:
    """Batched latency-prediction serving over one pretrained checkpoint.

    Parameters
    ----------
    task: task name or :class:`Task`; fixes the search space and pools.
    config: pipeline configuration; defaults to :func:`quick_config`.
    seed: controls pretraining and the per-device adaptation streams.
    max_hot_devices: LRU capacity for hot devices (adapted predictors, with
        their plans and score tables).
    max_cached_scores: any true value (the default) memoizes each hot
        device's scores in a table sized by the search space, consulted
        before the forward; ``0`` turns the tables off.  The value sets no
        capacity; the name is kept for existing callers.  Bitwise-
        transparent for f64 compiled serving; eager and f32 sessions bypass
        it (``stats.score_bypass``).
    use_compiled: serve ``predict_batch`` from traced replay plans (one per
        shape bucket, memoized on each hot device's adapted predictor and
        dropped with it) instead of the eager tensor engine.  The two paths
        agree to within 1e-6; ``False`` is the escape hatch.
    use_compiled_adapt: run device cold-start fine-tuning through a traced
        forward+backward plan and a fused optimizer (see
        ``predictors.compiled.CompiledTraining``) — gradients match the
        eager fine-tune to ~1e-12 per step, and adaptation wall-clock
        (``SessionStats.adapt_seconds``) drops about 2x.  Defaults to
        ``use_compiled``; pass ``False`` to pin the eager fine-tune while
        keeping compiled serving.
    warmup_artifacts: path to a plan-artifact bundle written by
        ``repro compile`` (see :mod:`repro.serving.artifacts`).  The bundle's
        adapted predictors and compiled plans are loaded at construction, so
        the first request for a warmed (device, bucket) replays a loaded
        plan — no adaptation, no trace.
    plan_dtype: execution precision for every plan this session compiles or
        loads — ``"f64"`` (default, bitwise-reference) or ``"f32"``
        (mixed-precision replay: f32 kernels, f64 scalar accumulation; see
        :func:`repro.nnlib.trace.trace`).  Applied to each adapted clone, so
        both serving plans and compiled adapt run at this precision.
        Warmup bundles must have been compiled at the same dtype
        (:class:`~repro.predictors.compiled.PlanDtypeMismatchError`
        otherwise — a fleet never silently mixes precisions across shards).
    """

    def __init__(
        self,
        task: Task | str | None = None,
        config: PipelineConfig | None = None,
        seed: int = 0,
        max_hot_devices: int = 8,
        max_cached_scores: bool | int = True,
        *,
        use_compiled: bool = True,
        use_compiled_adapt: bool | None = None,
        pipeline: NASFLATPipeline | None = None,
        warmup_artifacts=None,
        plan_dtype: str = "f64",
    ):
        from repro.nnlib.ir import check_plan_dtype

        check_plan_dtype(plan_dtype)
        if pipeline is not None:
            self.pipeline = pipeline
            self.task = pipeline.task
            self.seed = pipeline.seed
        else:
            if task is None:
                raise ValueError("pass a task (or a pipeline) to PredictorSession")
            self.task = get_task(task) if isinstance(task, str) else task
            self.seed = seed
            self.pipeline = NASFLATPipeline(self.task, config or quick_config(), seed=seed)
        self.max_hot_devices = max_hot_devices
        self.max_cached_scores = max_cached_scores
        self.use_compiled = bool(use_compiled)
        self.use_compiled_adapt = (
            bool(use_compiled) if use_compiled_adapt is None else bool(use_compiled_adapt)
        )
        self.plan_dtype = plan_dtype
        self.stats = SessionStats()
        # Device -> hot entry (adapted predictor, its plans, its score
        # table), least-recent first.  A fresh clone means fresh parameters,
        # so replacing an entry drops everything derived from the old one.
        self._hot: OrderedDict[str, _HotDevice] = OrderedDict()
        self._n_archs = self.pipeline.space.num_architectures()
        # Monotonic per-device predictor version: bumped on every install
        # (cold adapt, pinned refresh, warmup load, promotion) and never
        # reset by eviction — "which weights is this device serving" is
        # answerable across the whole session lifetime.
        self._versions: dict[str, int] = {}
        # Lock-free snapshot of the hot-LRU keys: read-only introspection
        # (/devices, hot_devices) must not stall behind a multi-second
        # cold-device adaptation holding the session lock.
        self._hot_names: tuple[str, ...] = ()
        # Re-entrant so predict_batch -> adapt nest freely.  One lock covers
        # the hot-device LRU and its tables, the stats counters, and the
        # forward pass itself (adapted predictors toggle train/eval state,
        # which must not interleave across threads).
        self._lock = threading.RLock()
        if warmup_artifacts is not None:
            self.load_warmup(warmup_artifacts)

    # -------------------------------------------------------------- lifecycle
    @classmethod
    def from_checkpoint(
        cls,
        path,
        task: Task | str | None = None,
        config: PipelineConfig | None = None,
        **kwargs,
    ) -> "PredictorSession":
        """Open a session over a checkpoint saved by :meth:`save`.

        The checkpoint metadata names its task and seed; pass ``task`` only
        to override (it must match the checkpoint's, as usual).
        """
        from repro.nnlib.serialization import read_checkpoint_metadata

        meta = read_checkpoint_metadata(path)
        if task is None:
            if "task" not in meta:
                raise ValueError(f"checkpoint {path} has no task metadata; pass task=")
            task = meta["task"]
        session = cls(task, config=config, seed=int(meta.get("seed", 0)), **kwargs)
        session.pipeline.load_pretrained(path)
        return session

    @classmethod
    def from_pipeline(cls, pipeline: NASFLATPipeline, **kwargs) -> "PredictorSession":
        """Serve from an existing (ideally pretrained) pipeline instance."""
        return cls(pipeline=pipeline, **kwargs)

    def pretrain(self) -> "PredictorSession":
        """Pretrain the checkpoint in-process (when none was loaded)."""
        self.pipeline.pretrain()
        return self

    def save(self, path) -> None:
        """Persist the pretrained checkpoint this session serves from."""
        self.pipeline.save_pretrained(path)

    @property
    def hot_devices(self) -> list[str]:
        """Adapted devices currently resident, least-recent first.

        Reads a snapshot, not the LRU itself, so it never blocks on the
        session lock (which an in-flight adaptation may hold for seconds).
        """
        return list(self._hot_names)

    # ------------------------------------------------------------- adaptation
    def _device_rng(self, device: str) -> np.random.Generator:
        # Independent of call order: a fresh stream per (seed, device).
        return np.random.default_rng((self.seed << 32) ^ zlib.crc32(device.encode()))

    def adapt(self, device: str, indices: np.ndarray | None = None) -> NASFLATPredictor:
        """Few-shot adapt the pretrained predictor to ``device`` (cached).

        ``indices`` pins which architectures are measured on the device;
        by default the pipeline's sampler picks them.  Re-adapting an
        already-hot device with explicit ``indices`` refreshes its entry.
        """
        with self._lock:
            if device in self._hot and indices is None:
                self.stats.device_hits += 1
                self._hot.move_to_end(device)
                self._hot_names = tuple(self._hot)
                return self._hot[device].predictor
            if not self.pipeline.is_pretrained:
                raise RuntimeError("no pretrained checkpoint: call pretrain() or from_checkpoint()")
            t_start = time.perf_counter()
            rng = self._device_rng(device)
            if indices is None:
                sampler = make_sampler(
                    self.pipeline.config.sampler,
                    dataset=self.pipeline.dataset,
                    target_device=device,
                    reference_devices=list(self.task.train_devices),
                )
                indices = sampler.select(
                    self.pipeline.space, self.pipeline.config.n_transfer_samples, rng
                )
            idx = np.asarray(indices, dtype=np.int64)
            predictor = self._build_adapted(device, idx, rng)
            self.stats.adapt_calls += 1
            self.stats.last_adapt_seconds = time.perf_counter() - t_start
            self.stats.adapt_seconds += self.stats.last_adapt_seconds
            self._install(device, predictor)
            return predictor

    def _build_adapted(self, device: str, idx: np.ndarray, rng) -> NASFLATPredictor:
        """Clone the pretrained checkpoint and few-shot adapt it to
        ``device`` on the pinned ``idx`` — *without* installing it.

        Deliberately lock-free: the clone is private until installed, the
        pretrained state and dataset are read-only after ``pretrain()``,
        and autodiff mode is thread-local — so a background candidate
        build runs concurrently with live serving (see
        :meth:`adapt_candidate`).  Deterministic in ``(seed, device,
        idx)`` given the session's config.
        """
        predictor = self.pipeline._clone_pretrained()
        # The clone inherits the session's precision policy before any
        # plan exists: compiled adapt and serving plans share one dtype.
        predictor.set_plan_dtype(self.plan_dtype)
        init_device = None
        if self.pipeline.config.hw_init:
            from repro.transfer.hw_init import select_init_device

            init_device = select_init_device(
                self.pipeline.dataset, device, idx, list(self.task.train_devices)
            )
        predictor.adapt(
            device,
            idx,
            rng=rng,
            config=self.pipeline.config.finetune,
            init_from=init_device,
            compiled=self.use_compiled_adapt,
        )
        return predictor

    def _install(self, device: str, predictor: NASFLATPredictor) -> None:
        """Atomically make ``predictor`` the served version for ``device``
        (caller holds the lock).

        The swap replaces the device's whole hot entry, so exactly what the
        new weights obsolete goes with the old one — the compiled plans
        memoized on the old clone and its score table — then bumps the
        device's version and applies LRU eviction.  Until this point the
        old predictor served every request, which is what makes
        shadow-evaluated promotion (and rollback-by-not-installing) safe
        under concurrent traffic.
        """
        old = self._hot.pop(device, None)
        if old is not None:
            self._retire(old)
        self._hot[device] = _HotDevice(predictor)
        self._versions[device] = self._versions.get(device, 0) + 1
        while len(self._hot) > self.max_hot_devices:
            _, evicted = self._hot.popitem(last=False)
            self.stats.device_evictions += 1
            self._retire(evicted)
        self._hot_names = tuple(self._hot)

    def _retire(self, entry: _HotDevice, plans: bool = True) -> None:
        """Drop ``entry``'s score table, counting its filled rows, and —
        with ``plans`` — count the plans its predictor takes along (caller
        holds the lock)."""
        self.stats.score_invalidations += entry.resident()
        entry.scores = entry.filled = None
        if plans:
            self.stats.plan_invalidations += len(entry.predictor.compiled_buckets())

    # ------------------------------------------------------ online adaptation
    def adapt_candidate(self, device: str, indices) -> NASFLATPredictor:
        """Build a *shadow* candidate for ``device`` on pinned ``indices``
        without touching the served version.

        Runs the full clone + fine-tune **off the serving lock** — live
        ``predict_batch`` traffic proceeds concurrently — and returns the
        candidate for shadow evaluation.  Nothing is installed: discarding
        the return value *is* the rollback.  Deterministic in ``(seed,
        device, indices)``, so a promoted candidate can be rebuilt
        bitwise-identically after a crash from the pinned slice alone.
        """
        if not self.pipeline.is_pretrained:
            raise RuntimeError("no pretrained checkpoint: call pretrain() or from_checkpoint()")
        idx = np.asarray(indices, dtype=np.int64)
        rng = self._device_rng(device)
        predictor = self._build_adapted(device, idx, rng)
        with self._lock:
            self.stats.candidate_adapts += 1
        return predictor

    def _shadow_scores(
        self, device: str, predictor: NASFLATPredictor, idx: np.ndarray
    ) -> np.ndarray:
        """Score ``idx`` with an *uninstalled* candidate (eager, no caches).

        The candidate has no compiled plans and must not pollute the
        serving caches, so this is a plain eager forward (tape-free, as
        every ``predict`` is) that never takes the session lock.
        """
        return predictor.predict(device, idx, batch_size=len(idx))

    def promote(self, device: str, predictor: NASFLATPredictor) -> int:
        """Hot-swap ``predictor`` in as ``device``'s served version.

        The swap itself is a brief locked :meth:`_install` — plan + score
        caches for the device flush, the version bumps — so concurrent
        ``predict_batch`` callers see either the old version or the new
        one, never a mix.  Returns the new version number.
        """
        with self._lock:
            self._install(device, predictor)
            self.stats.promotions += 1
            return self._versions[device]

    def readapt(
        self,
        device: str,
        train_indices,
        val_indices,
        val_observed,
        *,
        min_improvement: float = 0.0,
    ) -> dict:
        """One drift-recovery attempt: build a candidate on fresh
        measurements, shadow-evaluate it, and promote only if it wins.

        ``train_indices`` pin the candidate's fine-tune slice;
        ``val_indices``/``val_observed`` are the held-back validation
        measurements neither the current version nor the candidate trained
        on.  Both versions are scored on the validation slice and ranked
        against the observations (Spearman, via
        :func:`repro.serving.adaptation.rank_correlation`); the candidate
        is installed only when ``rho_candidate > rho_current +
        min_improvement``.  A losing — or rank-degenerate — candidate is
        discarded, which *is* the rollback: the last-good version never
        stopped serving.  Returns a report dict (``promoted``,
        ``version``, ``rho_current``, ``rho_candidate``, ``reason``,
        ``seconds``).
        """
        from repro.serving.adaptation import rank_correlation

        t0 = time.perf_counter()
        train_idx = np.asarray(train_indices, dtype=np.int64)
        val_idx = np.asarray(val_indices, dtype=np.int64)
        observed = np.asarray(val_observed, dtype=np.float64)
        if len(val_idx) != len(observed):
            raise ValueError("val_indices and val_observed must have equal length")
        # Current version's view of the validation slice: served through the
        # normal predict path (adapts the device cold if it never served).
        current_scores = self.predict_batch(device, val_idx)
        candidate = self.adapt_candidate(device, train_idx)
        candidate_scores = self._shadow_scores(device, candidate, val_idx)
        rho_current = rank_correlation(current_scores, observed)
        rho_candidate = rank_correlation(candidate_scores, observed)
        report = {
            "device": device,
            "promoted": False,
            "rho_current": rho_current,
            "rho_candidate": rho_candidate,
            "reason": None,
        }
        if rho_candidate is None:
            report["reason"] = "candidate-rank-degenerate"
        elif rho_current is not None and not (rho_candidate > rho_current + min_improvement):
            report["reason"] = (
                f"no-improvement: candidate rho {rho_candidate:.4f} vs "
                f"current {rho_current:.4f} (min_improvement {min_improvement:g})"
            )
        if report["reason"] is not None:
            with self._lock:
                self.stats.rejections += 1
                report["version"] = self._versions.get(device, 0)
        else:
            report["promoted"] = True
            report["version"] = self.promote(device, candidate)
        report["seconds"] = time.perf_counter() - t0
        return report

    def predictor_version(self, device: str) -> int:
        """Installed-version counter for ``device`` (0 = never installed)."""
        with self._lock:
            return self._versions.get(device, 0)

    @property
    def predictor_versions(self) -> dict[str, int]:
        """Per-device install counters (monotonic; survive eviction)."""
        with self._lock:
            return dict(self._versions)

    def add_device(self, device: str, init_from: str | None = None) -> None:
        """Register a new device row on every hot predictor's embedding
        table (see :meth:`NASFLATPredictor.add_device`), dropping every
        score table — cache policy is conservative around roster changes
        even though existing rows are copied bitwise.  Plans survive."""
        with self._lock:
            for entry in self._hot.values():
                entry.predictor.add_device(device, init_from=init_from)
                self._retire(entry, plans=False)

    def set_plan_dtype(self, dtype: str) -> None:
        """Re-pin the session's plan execution precision.

        Drops every compiled plan (they were traced at the old dtype) and
        every score table; subsequent requests re-trace at ``dtype`` and
        refill the tables if ``dtype`` is ``"f64"`` (f32 rows are served
        around them).
        """
        from repro.nnlib.ir import check_plan_dtype

        check_plan_dtype(dtype)
        with self._lock:
            if dtype == self.plan_dtype:
                return
            self.plan_dtype = dtype
            for entry in self._hot.values():
                self._retire(entry)
                entry.predictor.set_plan_dtype(dtype)

    # ---------------------------------------------------------------- warmup
    def _load_warm_predictor(self, checkpoint) -> NASFLATPredictor:
        """Rebuild one adapted predictor from a bundle checkpoint.

        The checkpoint's roster metadata registers the adapted device before
        weights load, so embedding-table shapes line up; the clone then binds
        this session's dataset/supplementary tables (checkpoints carry only
        parameters) and is pinned to eval mode like any served predictor.
        """
        clone = NASFLATPredictor(
            self.pipeline.space,
            list(self.task.train_devices),
            np.random.default_rng(self.seed),
            config=self.pipeline.predictor.config,
        )
        clone._dataset = self.pipeline.dataset
        clone._supplementary = self.pipeline.supplementary
        clone._source_devices = list(self.task.train_devices)
        clone.set_plan_dtype(self.plan_dtype)
        clone.load(checkpoint)
        clone.eval()
        return clone

    def load_warmup(self, source, devices=None) -> int:
        """Pre-populate the hot-device LRU and plan cache from a bundle.

        ``source`` is a bundle directory (or its ``manifest.json``) written
        by :func:`repro.serving.artifacts.write_bundle`.  Each bundled device
        becomes a hot entry served by its *loaded* adapted checkpoint, and
        each bundled plan artifact is installed in that predictor's plan
        cache — so the first request is a pure replay.  ``devices`` restricts
        loading to that subset of the bundle's devices (how a sharded worker
        warms only its own shard instead of the whole fleet's artifacts).
        Returns the number of plans loaded; counters land in
        ``stats.plans_loaded`` / ``plan_load_seconds`` / ``warmup_complete``.

        The bundle's recorded dtype must match this session's ``plan_dtype``
        (bundles without one are f64); a
        :class:`~repro.predictors.compiled.PlanDtypeMismatchError` is raised
        before any device loads, so a sharded fleet can never end up with
        one shard serving a different precision than its peers.
        """
        from repro.predictors.compiled import PlanDtypeMismatchError
        from repro.serving.artifacts import read_manifest

        manifest, bundle_dir = read_manifest(source)
        if manifest.get("task") not in (None, self.task.name):
            raise ValueError(
                f"plan bundle was compiled for task {manifest.get('task')!r}, "
                f"not {self.task.name!r}"
            )
        bundle_dtype = manifest.get("dtype", "f64")
        if bundle_dtype != self.plan_dtype:
            raise PlanDtypeMismatchError(
                f"plan bundle was compiled at dtype {bundle_dtype!r} but this "
                f"session serves plan_dtype {self.plan_dtype!r}; re-compile the "
                "bundle or start the server with the matching --dtype"
            )
        wanted = None if devices is None else set(devices)
        loaded = 0
        t0 = time.perf_counter()
        with self._lock:
            for entry in manifest.get("devices", []):
                device = entry["device"]
                if wanted is not None and device not in wanted:
                    continue
                predictor = self._load_warm_predictor(bundle_dir / entry["checkpoint"])
                self._install(device, predictor)
                for plan_entry in entry.get("plans", []):
                    predictor.load_plan(bundle_dir / plan_entry["path"])
                    loaded += 1
            self.stats.plans_loaded += loaded
            self.stats.plan_load_seconds += time.perf_counter() - t0
            self.stats.warmup_complete = True
        return loaded

    # --------------------------------------------------------- observability
    @property
    def plan_cache_entries(self) -> dict[str, int]:
        """Resident compiled-plan count per device (inference plan cache)."""
        with self._lock:
            counts = {d: len(e.predictor.compiled_buckets()) for d, e in self._hot.items()}
            return {d: n for d, n in counts.items() if n}

    @property
    def plan_buffer_bytes(self) -> int:
        """Total replay-buffer bytes resident across hot predictors' plans."""
        with self._lock:
            return sum(e.predictor.plan_buffer_bytes() for e in self._hot.values())

    @property
    def score_cache_entries(self) -> int:
        """Filled score-table rows across hot devices (gauge for ``/metrics``)."""
        with self._lock:
            return sum(e.resident() for e in self._hot.values())

    # -------------------------------------------------------------- inference
    def predict_batch(self, device: str, indices) -> np.ndarray:
        """Latency scores for ``indices`` on ``device``, one forward pass.

        Adapts the device on first use (sampler-chosen measurement set),
        then serves from the hot predictor.  f64 compiled serving gathers
        the rows already in the device's score table and replays a plan
        over the rest only, with bitwise-identical output either way.  The
        forward runs as a single vectorized chunk — by default a replayed
        :class:`~repro.nnlib.trace.CompiledPlan` for the batch's shape
        bucket (see ``use_compiled``), otherwise the eager path under
        :func:`~repro.nnlib.no_grad` (served queries must not pay for an
        autodiff tape they never run backward).  Safe to call from many
        threads; calls are serialized on the session lock.
        """
        with self._lock:
            predictor = self.adapt(device)
            idx = np.asarray(indices, dtype=np.int64)
            self.stats.queries += 1
            self.stats.architectures_scored += len(idx)
            if len(idx) == 0:
                return np.empty(0)
            if not (self.max_cached_scores and self.use_compiled and self.plan_dtype == "f64"):
                # Eager forwards and f32 plans are not composition-stable (a
                # row's bits can depend on its batch), so memoizing them
                # would break bitwise cache-off equivalence: bypass.
                self.stats.score_bypass += len(idx)
                return self._forward(device, predictor, idx)
            entry = self._hot[device]
            if entry.filled is None:
                entry.scores = np.empty(self._n_archs)
                entry.filled = np.zeros(self._n_archs, dtype=bool)
            miss = idx[~entry.filled[idx]]
            self.stats.score_hits += len(idx) - len(miss)
            self.stats.score_misses += len(miss)
            if len(miss):
                entry.scores[miss] = self._forward(device, predictor, miss)
                entry.filled[miss] = True
            return entry.scores[idx]

    def _forward(self, device: str, predictor: NASFLATPredictor, idx: np.ndarray) -> np.ndarray:
        """One vectorized forward over ``idx`` (caller holds the lock).

        A compiled forward replays ``idx``'s :func:`plan_buckets` chunks
        (64-row tiles, then power-of-two chunks of the rest); a bucket
        without a plan on ``predictor`` traces it once (an eager forward on
        a dummy batch)."""
        n = len(idx)
        if not self.use_compiled:
            return predictor.predict(device, idx, batch_size=n)
        resident = predictor.compiled_buckets()
        for bucket in set(plan_buckets(n)):
            if bucket in resident:
                self.stats.plan_hits += 1
            else:
                predictor.compile(bucket)
                self.stats.plan_compiles += 1
        adj, ops, supp = predictor.encode_indices(idx)
        return predictor.compiled_predict(adj, ops, device, supp, batch_size=n)

    def predict(self, device: str, indices) -> np.ndarray:
        """Alias of :meth:`predict_batch` matching the
        :class:`~repro.core.estimator.LatencyEstimator` signature, so the
        session itself can stand in for an estimator."""
        return self.predict_batch(device, indices)
