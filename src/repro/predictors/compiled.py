"""Compiled (trace-and-replay) inference for predictors.

:class:`CompiledInference` adds ``compile()`` / ``compiled_predict`` to any
predictor whose forward is split into two hooks:

* ``_plan_inputs(*raw_args) -> dict[str, np.ndarray]`` — pure-numpy input
  preparation (index expansion, dtype normalization, validation).  Cheap,
  rerun on every call, shared verbatim by the eager and compiled paths.
* ``_forward_core(inputs) -> Tensor`` — the tensor program proper, which
  must consume the prepared arrays *by identity* so the tracer can bind
  them as plan inputs.

Plans are specialized per **shape bucket**: the powers of two from
``_MIN_BUCKET`` (4) to ``_MAX_BUCKET`` (64).  An ``n``-row batch replays as
full 64-row tiles followed by the binary decomposition of the remainder
into exact power-of-two chunks (``100 -> 64 + 32 + 4``, ``1024 -> 16 ×
64``), so almost no padded rows are ever computed — a naive
round-up-to-bucket would nearly double the work just above a power of two
and hand the win back to the eager path.  Only a sub-``_MIN_CHUNK`` tail is
edge-padded (every per-architecture computation in these models is
row-independent, so padding rows never perturb real rows; the pad is
sliced off).  A predictor therefore holds at most five plans whatever the
batch size, and a big batch runs as tiles whose activations stay
cache-resident instead of streaming every op's output through memory.

Plans read parameters live (see :class:`~repro.nnlib.trace.CompiledPlan`),
so fine-tuning after compilation is honored; they are memoized per
predictor instance and die with it — a freshly adapted clone starts clean.

**Training** gets the same treatment via :class:`CompiledTraining`: one
traced forward+backward per *exact* batch size (ranking losses couple the
rows of a batch — a padded row would enter every pairwise comparison — so
inference's padded power-of-two buckets are unsound here), replayed with
gradients written straight into a fused optimizer's flat buffer.
"""
from __future__ import annotations

import numpy as np

from repro.nnlib.ir import check_plan_dtype
from repro.nnlib.losses import make_loss
from repro.nnlib.optim import FusedOptimizer
from repro.nnlib.trace import CompiledPlan, TrainingPlan, trace, trace_training_step


_MIN_CHUNK = 8  # below this, padding one small plan beats extra replays

#: Smallest bucket any plan is ever built for.  BLAS dispatches 1- and
#: 2-row GEMMs to matvec/tiny-kernel paths whose per-row reduction order
#: differs from the >=4-row kernels, so the *bits* of a row's score would
#: depend on which bucket it rode in.  Flooring every bucket at 4 makes row
#: values independent of batch composition — the invariant the serving
#: score cache (and hit/miss batch splitting) relies on for bitwise
#: equivalence with cache-off serving.
_MIN_BUCKET = 4

#: Largest bucket, and the tile a bigger batch replays in.  At 64 rows one
#: NB201 activation is 0.5 MB and a plan's pooled buffers 3.7 MB, close to
#: cache-resident; a 1,024-row plan streams 59 MB of buffers through memory
#: and replays the same rows ~25% slower (per space and dtype in
#: docs/ARCHITECTURE.md).
_MAX_BUCKET = 64

#: Every bucket a plan is ever built or installed for: the powers of two
#: from ``_MIN_BUCKET`` to ``_MAX_BUCKET``.
_SERVED_BUCKETS = tuple(
    1 << k for k in range(_MIN_BUCKET.bit_length() - 1, _MAX_BUCKET.bit_length())
)


class PlanDtypeMismatchError(RuntimeError):
    """A plan or bundle compiled at one dtype was offered to a consumer
    pinned to another.  Raised instead of silently serving mixed precisions
    (e.g. an f64 shard next to f32 shards behind one router)."""


def bucket_for(n: int) -> int:
    """The plan-cache shape bucket for an ``n``-row batch: the smallest
    power of two >= ``n``, clamped to ``[_MIN_BUCKET, _MAX_BUCKET]`` (a
    bigger batch replays as ``_MAX_BUCKET``-row tiles)."""
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    return min(_MAX_BUCKET, max(_MIN_BUCKET, 1 << (n - 1).bit_length()))


def plan_buckets(n: int) -> list[int]:
    """Plan buckets covering an ``n``-row batch, largest chunk first.

    Full ``_MAX_BUCKET``-row tiles, then the binary decomposition of the
    remainder down to ``_MIN_CHUNK``; a smaller remainder becomes one
    padded :func:`bucket_for` bucket.  ``sum(min(b, remaining))`` over the
    result always covers exactly ``n`` rows.
    """
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    buckets = [_MAX_BUCKET] * (n // _MAX_BUCKET)
    remaining = n % _MAX_BUCKET
    while remaining >= _MIN_CHUNK:
        size = 1 << (remaining.bit_length() - 1)  # largest power of two <= remaining
        buckets.append(size)
        remaining -= size
    if remaining:
        buckets.append(bucket_for(remaining))
    return buckets


def _pad0(arr: np.ndarray | None, to: int) -> np.ndarray | None:
    """Edge-pad ``arr`` along axis 0 to length ``to`` (replicates the last
    row — always a valid architecture/device, unlike zero-filling)."""
    if arr is None or len(arr) == to:
        return arr
    reps = np.repeat(arr[-1:], to - len(arr), axis=0)
    return np.concatenate([arr, reps], axis=0)


class CompiledInference:
    """Mixin: trace-once/replay-many inference over shape buckets."""

    # Subclass hook: raw forward args for a dummy batch of ``bucket`` rows.
    def _example_batch(self, bucket: int) -> tuple:
        raise NotImplementedError

    @property
    def plan_dtype(self) -> str:
        """Execution dtype new plans compile at (``"f64"`` default)."""
        return self.__dict__.get("_plan_dtype", "f64")

    def set_plan_dtype(self, dtype: str) -> None:
        """Pin the execution dtype for plans this predictor compiles.

        Changing the policy drops every memoized plan and training engine —
        a predictor never serves mixed precisions.  Parameters themselves
        stay f64 master copies; f32 plans shadow-cast them at replay.
        """
        check_plan_dtype(dtype)
        if dtype == self.plan_dtype:
            return
        self.__dict__["_plan_dtype"] = dtype
        self.clear_plans()
        self.clear_training_plans()

    def compile(self, batch_size: int) -> CompiledPlan:
        """Build (and memoize) the replay plan for ``batch_size``'s bucket.

        Tracing runs one eager forward on a dummy batch in eval mode; the
        returned plan serves every batch whose bucket matches.  A batch
        above ``_MAX_BUCKET`` rows gets the tile plan its replay loops over.
        """
        bucket = bucket_for(batch_size)
        plans = self.__dict__.setdefault("_plans", {})
        plan = plans.get(bucket)
        if plan is None:
            inputs = self._plan_inputs(*self._example_batch(bucket))
            was_training = self.training
            self.eval()
            try:
                plan = trace(self._forward_core, inputs, module=self, dtype=self.plan_dtype)
            finally:
                if was_training:
                    self.train()
            plans[bucket] = plan
        return plan

    def clear_plans(self) -> None:
        """Drop memoized plans (needed only after *structural* changes)."""
        self.__dict__.pop("_plans", None)

    def compiled_buckets(self) -> list[int]:
        """Shape buckets holding a memoized inference plan, ascending."""
        return sorted(self.__dict__.get("_plans", ()))

    def compile_training(
        self, loss: str = "hinge", margin: float = 0.1, dtype: str | None = None
    ) -> "CompiledTraining":
        """Memoized :class:`CompiledTraining` engine for this predictor.

        One engine per ``(loss, margin, dtype)`` signature; each engine
        caches one joint forward+backward plan per exact batch size.  Plans
        read parameter values live, so the same engine serves a whole
        fine-tune or pretraining run; parameter *shape* changes
        (``add_device``) are detected per step and the affected plan is
        re-traced.  ``dtype`` defaults to the predictor's
        :attr:`plan_dtype` policy.
        """
        if dtype is None:
            dtype = self.plan_dtype
        check_plan_dtype(dtype)
        trainers = self.__dict__.setdefault("_trainers", {})
        key = (loss, float(margin), dtype)
        trainer = trainers.get(key)
        if trainer is None:
            trainer = trainers[key] = CompiledTraining(self, loss, margin, dtype=dtype)
        return trainer

    def clear_training_plans(self) -> None:
        """Drop memoized training engines (hygiene after structural edits;
        stale plans are also caught per-step by shape checks)."""
        self.__dict__.pop("_trainers", None)

    def _replay_batch(self, raw_args: tuple) -> np.ndarray:
        """Score an ``n``-row batch through its :func:`plan_buckets` chunks."""
        n = len(raw_args[0])
        outs = []
        start = 0
        for bucket in plan_buckets(n):
            take = min(bucket, n - start)
            plan = self.compile(bucket)
            if take == n == bucket:
                # Whole batch, exact bucket: keep the caller's arrays —
                # slicing would mint fresh view objects and defeat
                # identity-keyed caches downstream (the GAT mask cache).
                chunk = raw_args
            else:
                chunk = tuple(
                    None if a is None else _pad0(a[start : start + take], bucket)
                    for a in raw_args
                )
            outs.append(plan.replay(self._plan_inputs(*chunk))[:take])
            start += take
        return outs[0] if len(outs) == 1 else np.concatenate(outs)

    # ------------------------------------------------------------ artifacts
    def install_plan(self, bucket: int, plan: CompiledPlan) -> None:
        """Seed the plan cache with a pre-built (usually loaded) plan.

        The plan must have been compiled for this predictor's input shapes
        at ``bucket`` rows — checked against a freshly prepared example
        batch, so a stale artifact (wrong space, wrong supplementary dim,
        wrong device count) is rejected up front instead of failing deep
        inside a replay — and at this predictor's :attr:`plan_dtype`
        (:class:`PlanDtypeMismatchError` otherwise: one predictor never
        serves mixed precisions).  ``bucket`` must be one replay serves
        (``ValueError`` otherwise), so a stale artifact for a bucket outside
        that set fails at load instead of sitting unused.
        """
        if bucket not in _SERVED_BUCKETS:
            raise ValueError(
                f"bucket {bucket} is not a served plan bucket {list(_SERVED_BUCKETS)}; "
                "re-compile the artifact"
            )
        if plan.dtype != self.plan_dtype:
            raise PlanDtypeMismatchError(
                f"plan was compiled at dtype {plan.dtype!r} but this predictor "
                f"serves {self.plan_dtype!r}; re-compile the artifact or set "
                "the matching plan dtype"
            )
        expected = {
            k: tuple(np.shape(v))
            for k, v in self._plan_inputs(*self._example_batch(bucket)).items()
        }
        got = dict(plan.input_shapes)
        if got != expected:
            raise ValueError(
                f"plan input shapes {got} do not match this predictor's "
                f"bucket-{bucket} shapes {expected}"
            )
        self.__dict__.setdefault("_plans", {})[bucket] = plan

    def save_plan(self, batch_size: int, path, metadata: dict | None = None) -> int:
        """Compile (or reuse) the plan for ``batch_size`` and save it.

        Returns the bucket the artifact serves; the bucket is recorded in
        the artifact metadata so :meth:`load_plan` can reinstall it without
        the caller tracking bucket arithmetic.
        """
        bucket = bucket_for(batch_size)
        plan = self.compile(bucket)
        meta = dict(metadata or {})
        meta["bucket"] = bucket
        plan.save(path, metadata=meta)
        return bucket

    def load_plan(self, path) -> tuple[int, CompiledPlan]:
        """Load a plan artifact, bind it to this predictor, install it.

        Parameter paths in the artifact are resolved against ``self`` (the
        mixin host is a :class:`~repro.nnlib.modules.Module`), so the loaded
        plan reads live weights exactly like a traced one.  Returns
        ``(bucket, plan)``.
        """
        from repro.nnlib.ir import load_plan as _load_plan
        from repro.nnlib.serialization import read_plan_metadata

        meta = read_plan_metadata(path)
        bucket = meta.get("bucket")
        if bucket is None:
            raise ValueError(
                f"{path} has no 'bucket' metadata; was it saved by save_plan()?"
            )
        plan = _load_plan(path, module=self)
        self.install_plan(int(bucket), plan)
        return int(bucket), plan

    def plan_buffer_bytes(self) -> int:
        """Resident replay-buffer bytes across all cached inference plans."""
        return sum(p.buffer_bytes for p in self.__dict__.get("_plans", {}).values())


class CompiledTraining:
    """Replayable forward+backward training steps for one predictor.

    Wraps :func:`~repro.nnlib.trace.trace_training_step` with a per-exact-
    batch-size plan cache (training losses couple batch rows, so padding to
    buckets would change the loss; the sizes seen in a training run are few:
    the configured batch size, the tail remainder, and the full-batch
    fine-tune size).  A training step is then::

        loss = trainer.step(opt, adj, ops, device_idx, supp, target)

    — one plan replay writing gradients straight into the fused optimizer's
    flat buffer, plus one vectorized optimizer update.  Plans are traced on
    the first real batch of each size (in particular the hinge mask derives
    from live targets; see ``losses.pairwise_hinge_loss``) and re-traced
    automatically if a parameter's shape changed (``add_device``).
    """

    def __init__(self, model, loss: str = "hinge", margin: float = 0.1, dtype: str = "f64"):
        self.model = model
        self.loss_name = loss
        self.margin = float(margin)
        self.dtype = check_plan_dtype(dtype)
        self._loss_fn = make_loss(loss, margin)
        self.params = model.parameters()
        self._plans: dict[int, TrainingPlan] = {}
        # ids of the gradient arrays each plan's outputs were bound to (the
        # plan pins those arrays, so the ids cannot be recycled while the
        # entry lives).
        self._plan_bindings: dict[int, tuple | None] = {}
        self.plan_compiles = 0
        self.plan_retraces = 0

    @staticmethod
    def _binding_key(grad_out) -> tuple | None:
        """Identity key of a bindable gradient-destination list, else None
        (ephemeral arrays, or entries that are not plain ndarrays)."""
        if grad_out is None or not all(
            g is None or isinstance(g, np.ndarray) for g in grad_out
        ):
            return None
        return tuple(None if g is None else id(g) for g in grad_out)

    def _plan_for(self, inputs: dict[str, np.ndarray], n: int, grad_out=None) -> TrainingPlan:
        plan = self._plans.get(n)
        # f32 plans never bind the optimizer's f64 grad arrays as kernel
        # outputs (that would pull the producing GEMMs back to double);
        # replay_into's copy-out performs the f32 -> f64 upcast instead.
        key = self._binding_key(grad_out) if self.dtype == "f64" else None
        if plan is not None and plan.stale():
            self.plan_retraces += 1
            plan = None
        elif plan is not None and key is not None and self._plan_bindings.get(n) != key:
            # Bound to a previous optimizer's buffers (fresh FusedAdam per
            # fine-tune): re-trace against the live ones rather than paying
            # a full per-parameter copy on every replay and pinning the dead
            # optimizer's flat buffer for the plan's lifetime.
            self.plan_retraces += 1
            plan = None
        if plan is None:
            # Bind the caller's gradient arrays (normally the fused
            # optimizer's flat-buffer views) as the plan's gradient
            # destinations: replay then lands every gradient in place.
            buffers = list(grad_out) if key is not None else None
            plan = trace_training_step(
                self.model,
                self._loss_fn,
                inputs,
                params=self.params,
                grad_buffers=buffers,
                dtype=self.dtype,
            )
            self._plans[n] = plan
            self._plan_bindings[n] = key
            self.plan_compiles += 1
        return plan

    def loss_and_grads(
        self,
        adj: np.ndarray,
        ops: np.ndarray,
        device_idx: np.ndarray,
        supplementary: np.ndarray | None,
        target: np.ndarray,
        grad_out,
    ) -> float:
        """Replay one step; returns the loss, writes gradients to ``grad_out``
        (aligned with :attr:`params`, e.g. ``FusedOptimizer.grad_views()``)."""
        inputs = self.model._plan_inputs(adj, ops, device_idx, supplementary)
        inputs["target"] = np.ascontiguousarray(target, dtype=np.float64)
        plan = self._plan_for(inputs, len(target), grad_out)
        return plan.replay_into(inputs, grad_out)

    def step(
        self,
        opt: FusedOptimizer,
        adj: np.ndarray,
        ops: np.ndarray,
        device_idx: np.ndarray,
        supplementary: np.ndarray | None,
        target: np.ndarray,
    ) -> float:
        """One full compiled training step: replay + fused optimizer update."""
        loss = self.loss_and_grads(adj, ops, device_idx, supplementary, target, opt.grad_views())
        opt.step(grads_in_buffer=True)
        return loss
