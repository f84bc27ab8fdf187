"""Compiled-vs-eager inference benchmark (ISSUE 4 tentpole payoff).

Measures ``NASFLATPredictor.compiled_predict`` (trace-and-replay numpy
plans: pooled buffers, fused elementwise chains, collapsed GEMMs) against
the eager tensor engine at serving batch sizes, plus the end-to-end
``PredictorSession.predict_batch`` with the compiled path on and off.

Serving batch sizes are request-scale: individual ``/predict`` requests
carry 1-16 architectures (the PR-3 load benchmark uses 4), and that is
what a forward serves under light-to-moderate traffic; bursts coalesce
toward the ``max_batch=64`` window ceiling.

Acceptance (ISSUE 4): compiled throughput >= 2x eager in aggregate
(geometric mean) over the request-scale batch sizes, recorded to
``BENCH_compiled.json``; replay must match the eager forward to within
1e-6 on every measured batch (it is bitwise for everything but the GEMM
collapse).

At the coalescing ceiling the ratio tapers by design — the f64 GEMMs
dominate and run at the single-core BLAS roofline on *both* paths
(~1.4-1.9x at 32-64) — so those sizes are recorded for the perf
trajectory and held to a hard never-slower floor rather than the 2x bar.

At sweep scale (1,024-row NB201 requests, as in perfbench's ``sweep``)
``compiled_predict`` replays sixteen cache-resident 64-row tiles;
``test_tiled_replay_beats_whole_batch_plan`` holds it to never-slower
than one 1,024-row plan traced directly, with bitwise-equal scores.
"""
import multiprocessing
import time

import numpy as np

from bench_util import print_table, record_metric
from repro.nnlib.trace import trace
from repro.predictors.nasflat import NASFLATPredictor
from repro.predictors.space_tensors import SpaceTensors
from repro.predictors.training import FinetuneConfig, PretrainConfig
from repro.serving import PredictorSession
from repro.spaces import GenericCellSpace
from repro.spaces.registry import _INSTANCES, get_space
from repro.tasks import Task
from repro.transfer.pipeline import PipelineConfig

SERVING_BATCH_SIZES = (1, 2, 4, 8, 16)  # request-scale: the 2x acceptance bar
CEILING_BATCH_SIZES = (32, 64)  # coalescing ceiling: recorded, never-slower floor
MIN_AGGREGATE_SPEEDUP = 2.0
MIN_FLOOR_SPEEDUP = 1.2  # no measured size may regress to eager-or-worse
TRIALS = 3  # best-of, to shrug off scheduler noise on shared CI cores
ATTEMPTS = 3  # full re-measurements before declaring a regression
SWEEP_ROWS = 1024  # perfbench sweep's request size
MIN_TILE_SPEEDUP = 1.0  # tiled replay never slower than one whole-batch plan


def _rate(fn, archs: int, min_seconds: float = 0.4) -> float:
    """archs/second over one timed window of at least ``min_seconds``."""
    t0 = time.perf_counter()
    n = 0
    while time.perf_counter() - t0 < min_seconds:
        fn()
        n += 1
    return n * archs / (time.perf_counter() - t0)


def _paired_best(base_fn, new_fn, archs: int) -> tuple[float, float]:
    """Best rate per path over interleaved trials.

    Interleaving (base window, new window, repeat) keeps a load spike on
    a shared core from skewing one path's entire measurement; best-of
    discards the disturbed windows.
    """
    base_fn()  # warm caches / compile plans outside the timed regions
    new_fn()
    best_b = best_n = 0.0
    for _ in range(TRIALS):
        best_b = max(best_b, _rate(base_fn, archs))
        best_n = max(best_n, _rate(new_fn, archs))
    return best_b, best_n


def test_compiled_predict_beats_eager(benchmark):
    space = GenericCellSpace("nb101", table_size=400)
    _INSTANCES[space.name] = space
    rng = np.random.default_rng(0)
    predictor = NASFLATPredictor(space, ["pixel3", "pixel2"], rng)
    tensors = SpaceTensors.for_space(space)

    def measure(batch):
        idx = rng.choice(400, size=batch, replace=False)
        adj, ops = tensors.batch(idx)
        eager = predictor.predict(adj, ops, "pixel3", batch_size=batch)
        compiled = predictor.compiled_predict(adj, ops, "pixel3", batch_size=batch)
        np.testing.assert_allclose(compiled, eager, atol=1e-6, rtol=0)
        return _paired_best(
            lambda: predictor.predict(adj, ops, "pixel3", batch_size=batch),
            lambda: predictor.compiled_predict(adj, ops, "pixel3", batch_size=batch),
            batch,
        )

    def run():
        rows = []
        for batch in (*SERVING_BATCH_SIZES, *CEILING_BATCH_SIZES):
            e_rate, c_rate = measure(batch)
            rows.append([batch, e_rate, c_rate, c_rate / e_rate])
        ratios = [r[3] for r in rows if r[0] in SERVING_BATCH_SIZES]
        aggregate = float(np.exp(np.mean(np.log(ratios))))  # geometric mean
        return rows, aggregate

    def passes(rows_, aggregate_):
        return aggregate_ >= MIN_AGGREGATE_SPEEDUP and min(r[3] for r in rows_) >= MIN_FLOOR_SPEEDUP

    rows, aggregate = benchmark.pedantic(run, rounds=1, iterations=1)
    for _ in range(ATTEMPTS - 1):  # re-measure before declaring a regression
        if passes(rows, aggregate):
            break
        retry_rows, retry_aggregate = run()
        # Adopt a retry that satisfies the gate outright; otherwise keep
        # whichever measurement looked better, for the failure report.
        if passes(retry_rows, retry_aggregate) or retry_aggregate > aggregate:
            rows, aggregate = retry_rows, retry_aggregate
    print_table(
        "Compiled vs eager predict (archs/s)",
        ["batch", "eager", "compiled", "speedup"],
        rows,
    )
    print(
        f"aggregate (geo-mean) speedup at serving batch sizes "
        f"{SERVING_BATCH_SIZES}: {aggregate:.2f}x"
    )
    for batch, e_rate, c_rate, ratio in rows:
        record_metric(f"eager_throughput_b{batch}", e_rate, "archs/s", suite="compiled")
        record_metric(f"compiled_throughput_b{batch}", c_rate, "archs/s", suite="compiled")
        record_metric(f"speedup_b{batch}", ratio, "x", suite="compiled")
    record_metric("aggregate_speedup", aggregate, "x", suite="compiled")
    assert aggregate >= MIN_AGGREGATE_SPEEDUP, (
        f"compiled inference only {aggregate:.2f}x eager at serving batch sizes "
        f"(need >= {MIN_AGGREGATE_SPEEDUP}x)"
    )
    floor = min(r[3] for r in rows)
    assert floor >= MIN_FLOOR_SPEEDUP, (
        f"compiled inference regressed to {floor:.2f}x eager at batch "
        f"{min(rows, key=lambda r: r[3])[0]} (floor {MIN_FLOOR_SPEEDUP}x)"
    )


def _measure_tiles() -> tuple[float, float]:
    """``(whole-plan rate, tiled rate)`` for one 1,024-row NB201 batch,
    after checking the two paths' scores are bitwise equal."""
    space = get_space("nasbench201")
    rng = np.random.default_rng(3)
    predictor = NASFLATPredictor(space, ["pixel3", "pixel2"], rng)
    predictor.eval()
    idx = rng.choice(space.num_architectures(), size=SWEEP_ROWS, replace=False)
    adj, ops = SpaceTensors.for_space(space).batch(idx)
    dev = np.full(SWEEP_ROWS, predictor.device_index["pixel3"])
    whole = trace(
        predictor._forward_core,
        predictor._plan_inputs(*predictor._example_batch(SWEEP_ROWS)),
        module=predictor,
    )

    def tiled():
        return predictor.compiled_predict(adj, ops, "pixel3", batch_size=SWEEP_ROWS)

    def control():
        # A fresh view per call, as the tiles get: the GAT mask cache is
        # keyed by array identity, and a sweep never repeats a batch.
        return whole.replay(predictor._plan_inputs(adj[:], ops, dev))

    np.testing.assert_array_equal(tiled(), control())
    assert predictor.compiled_buckets() == [64]
    whole_rate, tiled_rate = _paired_best(control, tiled, SWEEP_ROWS)
    for _ in range(ATTEMPTS - 1):  # re-measure before declaring a regression
        if tiled_rate >= MIN_TILE_SPEEDUP * whole_rate:
            break
        whole_rate, tiled_rate = _paired_best(control, tiled, SWEEP_ROWS)
    return whole_rate, tiled_rate


def test_tiled_replay_beats_whole_batch_plan(benchmark):
    """Sweep-scale replay: a 1,024-row NB201 ``compiled_predict``, which
    runs as sixteen 64-row tiles, against the same rows through one
    1,024-row plan traced directly (the shape plans had before buckets were
    capped at 64 rows; the control arm).  At 1,024 rows each activation is
    8 MB and the plan's pooled buffers stream through memory on every op;
    a 64-row tile's stay cache-resident.  Scores must be bitwise equal and
    the tiles never slower.

    Measured in a forked child: freeing the 1,024-row trace's multi-MB
    temporaries raises glibc's dynamic mmap threshold for the rest of the
    process, which speeds up later benchmarks' eager paths (it took
    ``test_compiled_training``'s compiled/eager step ratio from ~2.5x to
    ~1.9x when run in-process).
    """
    with multiprocessing.get_context("fork").Pool(1) as pool:
        whole_rate, tiled_rate = benchmark.pedantic(
            pool.apply, (_measure_tiles,), rounds=1, iterations=1
        )
    speedup = tiled_rate / whole_rate
    print(
        f"\n{SWEEP_ROWS}-row NB201 replay: one {SWEEP_ROWS}-row plan {whole_rate:.0f} "
        f"archs/s   64-row tiles {tiled_rate:.0f} archs/s   speedup {speedup:.2f}x"
    )
    record_metric("sweep_whole_plan_throughput", whole_rate, "archs/s", suite="compiled")
    record_metric("sweep_tiled_throughput", tiled_rate, "archs/s", suite="compiled")
    record_metric("tile_speedup", speedup, "x", suite="compiled")
    assert speedup >= MIN_TILE_SPEEDUP, (
        f"64-row tiles replay {SWEEP_ROWS} rows at {speedup:.2f}x one "
        f"{SWEEP_ROWS}-row plan (floor {MIN_TILE_SPEEDUP}x)"
    )


def test_compiled_session_serving(benchmark):
    """End-to-end: ``predict_batch`` with plans on vs off (same session
    weights, repeated serving-shaped queries) — compiled must win and the
    two paths must agree within 1e-6."""
    space = GenericCellSpace("nb101", table_size=400)
    _INSTANCES[space.name] = space
    task = Task(
        "T-compiled",
        space.name,
        train_devices=("pixel3", "pixel2"),
        test_devices=("fpga", "eyeriss"),
    )
    cfg = PipelineConfig(
        sampler="random",
        supplementary=None,
        n_transfer_samples=8,
        pretrain=PretrainConfig(samples_per_device=32, epochs=2, batch_size=16),
        finetune=FinetuneConfig(epochs=4),
        n_test=50,
    )

    def run():
        compiled = PredictorSession(task, cfg, seed=0, use_compiled=True).pretrain()
        eager = PredictorSession.from_pipeline(compiled.pipeline, use_compiled=False)
        rng = np.random.default_rng(1)
        queries = [rng.choice(400, size=16, replace=False) for _ in range(8)]
        for idx in queries:  # adapt + warm both paths, check agreement
            np.testing.assert_allclose(
                compiled.predict_batch("fpga", idx),
                eager.predict_batch("fpga", idx),
                atol=1e-6,
                rtol=0,
            )
        e_rate, c_rate = _paired_best(
            lambda: [eager.predict_batch("fpga", idx) for idx in queries],
            lambda: [compiled.predict_batch("fpga", idx) for idx in queries],
            sum(len(q) for q in queries),
        )
        return e_rate, c_rate, compiled.stats

    e_rate, c_rate, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = c_rate / e_rate
    print(
        f"\nsession predict_batch: eager {e_rate:.0f} archs/s   "
        f"compiled {c_rate:.0f} archs/s   speedup {speedup:.2f}x   "
        f"(plan compiles={stats.plan_compiles}, hits={stats.plan_hits})"
    )
    record_metric("session_eager_throughput", e_rate, "archs/s", suite="compiled")
    record_metric("session_compiled_throughput", c_rate, "archs/s", suite="compiled")
    record_metric("session_speedup", speedup, "x", suite="compiled")
    assert stats.plan_compiles >= 1 and stats.plan_hits > 0
    assert speedup >= 1.2, f"compiled serving slower than eager ({speedup:.2f}x)"
