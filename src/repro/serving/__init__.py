"""Serving layer: long-lived predictor sessions for query traffic.

The training-side objects (pipeline, predictors) are built for experiments:
every ``transfer`` re-clones and re-finetunes, every ``predict`` re-batches
tensors.  :class:`~repro.serving.session.PredictorSession` is the first
serving-side brick: it pins one pretrained checkpoint in memory, keeps an
LRU of per-device adapted predictors, memoizes encoded architecture
batches, and answers ``predict_batch(device, indices)`` without touching
the training path.

:mod:`repro.serving.server` is the network brick on top: a stdlib-only
HTTP server that fronts a session with dynamic micro-batching
(:class:`~repro.serving.server.MicroBatcher` coalesces concurrent
``/predict`` requests into single vectorized forwards) and exposes
``/healthz``, ``/devices`` and ``/metrics`` for operations.  See
``docs/SERVING.md`` for the operator guide.

For multi-core machines, :class:`~repro.serving.router.ShardedRouter`
replaces the in-process session behind the same HTTP server with a pool of
device-affinity worker processes (:mod:`repro.serving.worker`), each warmed
from a ``repro compile`` artifact bundle and fronted by its own batch
window — ``repro serve --workers N --plans <dir>``.

:mod:`repro.serving.adaptation` closes the loop against the hardware:
``POST /measurements`` streams observed latencies into an
:class:`~repro.serving.adaptation.AdaptationManager`, whose drift detector
(rolling Spearman of served scores vs observations) triggers background
re-adaptation with shadow evaluation, versioned hot-swap on improvement,
and rollback — plus a crash-loop circuit breaker — on anything else.
"""
from repro.predictors.compiled import PlanDtypeMismatchError
from repro.serving.adaptation import (
    AdaptationManager,
    DriftDetector,
    DriftVerdict,
    MeasurementError,
    rank_correlation,
)
from repro.serving.router import ShardedRouter, WorkerStartupError, WorkerUnavailableError
from repro.serving.server import MicroBatcher, PredictorServer, ServerMetrics
from repro.serving.session import PredictorSession, SessionStats
from repro.serving.transport import TransportError
from repro.serving.worker import WorkerSpec

__all__ = [
    "AdaptationManager",
    "DriftDetector",
    "DriftVerdict",
    "MeasurementError",
    "MicroBatcher",
    "rank_correlation",
    "PlanDtypeMismatchError",
    "PredictorServer",
    "PredictorSession",
    "ServerMetrics",
    "SessionStats",
    "ShardedRouter",
    "TransportError",
    "WorkerSpec",
    "WorkerStartupError",
    "WorkerUnavailableError",
]
