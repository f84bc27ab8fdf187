"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``tasks``      list the 12 device-set tasks and their pools.
``devices``    list simulated devices (optionally per space).
``transfer``   pretrain on a task's source pool and adapt to target devices.
``predict``    serve batched latency predictions via a PredictorSession.
``compile``    emit a plan-artifact bundle (adapted checkpoints + compiled
               plans) for zero-cold-start serving.
``serve``      run the HTTP serving layer with dynamic micro-batching.
``nas``        run a latency-constrained NAS on an unseen device.
``partition``  run Algorithm 1 over a device list.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_tasks(args) -> int:
    from repro.tasks import TASKS

    for name, task in sorted(TASKS.items()):
        print(f"{name:<4} [{task.space}]")
        print(f"     train: {', '.join(task.train_devices)}")
        print(f"     test:  {', '.join(task.test_devices)}")
    return 0


def _cmd_devices(args) -> int:
    from repro.hardware.registry import devices_for_space, get_device, list_devices

    names = devices_for_space(args.space) if args.space else list_devices()
    for name in names:
        dev = get_device(name)
        print(f"{name:<36} family={dev.family:<16} batch={dev.batch_size}")
    return 0


def _cmd_transfer(args) -> int:
    from repro import get_task
    from repro.transfer import NASFLATPipeline
    from repro.transfer.pipeline import PipelineConfig, quick_config

    cfg = (
        PipelineConfig(sampler=args.sampler, supplementary=args.supplementary, n_transfer_samples=args.samples)
        if args.full_scale
        else quick_config(
            sampler=args.sampler, supplementary=args.supplementary, n_transfer_samples=args.samples
        )
    )
    pipe = NASFLATPipeline(get_task(args.task), cfg, seed=args.seed)
    print(f"Pretraining on {args.task} sources ...", flush=True)
    pipe.pretrain()
    devices = args.devices or list(pipe.task.test_devices)
    for device in devices:
        res = pipe.transfer(device)
        print(
            f"{device:<34} spearman={res.spearman:.3f} samples={res.n_samples} "
            f"init={res.init_device or '-'} finetune={res.finetune_seconds:.1f}s"
        )
    return 0


def _cmd_predict(args) -> int:
    from repro.serving import PredictorSession
    from repro.transfer.pipeline import quick_config

    cfg = quick_config(n_transfer_samples=args.samples)
    if args.checkpoint:
        session = PredictorSession.from_checkpoint(args.checkpoint, task=args.task, config=cfg)
    else:
        if not args.task:
            print("error: --task is required without --checkpoint", file=sys.stderr)
            return 2
        session = PredictorSession(args.task, cfg, seed=args.seed)

    # Validate the query before any (expensive) pretraining.
    indices = np.asarray(args.indices, dtype=np.int64)
    n = session.pipeline.space.num_architectures()
    bad = indices[(indices < 0) | (indices >= n)]
    if len(bad):
        print(f"error: architecture indices out of range [0, {n}): {bad.tolist()}", file=sys.stderr)
        return 2

    if not session.pipeline.is_pretrained:
        print(f"No checkpoint given: pretraining a quick session on {args.task} ...", flush=True)
        session.pretrain()
    if args.save_checkpoint:
        session.save(args.save_checkpoint)
        print(f"checkpoint saved to {args.save_checkpoint}")
    for device in args.devices:
        scores = session.predict_batch(device, indices)
        for i, s in zip(indices, scores):
            print(f"{device:<34} arch #{i:<6} score={s:+.4f}")
    stats = session.stats
    print(
        f"[session] adapts={stats.adapt_calls} device-hits={stats.device_hits} "
        f"queries={stats.queries} archs={stats.architectures_scored}"
    )
    return 0


def _cmd_compile(args) -> int:
    from repro.serving import PredictorSession
    from repro.serving.artifacts import write_bundle
    from repro.transfer.pipeline import quick_config

    cfg = quick_config(n_transfer_samples=args.samples)
    session = PredictorSession.from_checkpoint(
        args.checkpoint, task=args.task, config=cfg, plan_dtype=args.dtype
    )
    print(
        f"Compiling plans for task {session.task.name}: "
        f"{len(args.devices)} device(s) x buckets {args.buckets} -> {args.out} "
        f"(dtype {args.dtype})",
        flush=True,
    )
    manifest = write_bundle(session, args.out, args.devices, args.buckets)
    for entry in manifest["devices"]:
        buckets = [p["bucket"] for p in entry["plans"]]
        print(f"  {entry['device']:<34} checkpoint + plans for buckets {buckets}")
    print(f"bundle manifest: {args.out}/manifest.json")
    return 0


def _make_adaptation(args, backend):
    """Online-adaptation manager for ``repro serve`` (both modes).

    Always constructed — ``--no-auto-adapt`` keeps ``/measurements`` ingest
    and the drift gauges live but never triggers a re-adapt.
    """
    from repro.serving import AdaptationManager

    return AdaptationManager(
        backend,
        drift_threshold=args.drift_threshold,
        adapt_interval_s=args.adapt_interval,
        min_window=args.drift_window,
        auto_adapt=args.auto_adapt,
    )


def _cmd_serve(args) -> int:
    from repro.serving import PredictorSession, PredictorServer
    from repro.transfer.pipeline import quick_config

    cfg = quick_config(n_transfer_samples=args.samples)
    if args.workers > 1:
        return _serve_sharded(args, cfg)
    if args.checkpoint:
        session = PredictorSession.from_checkpoint(
            args.checkpoint,
            task=args.task,
            config=cfg,
            use_compiled=args.compiled,
            use_compiled_adapt=args.compiled_adapt,
            plan_dtype=args.dtype,
            max_cached_scores=args.score_cache,
        )
        if args.plans:
            loaded = session.load_warmup(args.plans)
            print(f"Warmup: {loaded} compiled plan(s) loaded from {args.plans}", flush=True)
    else:
        if args.plans:
            print("error: --plans requires --checkpoint", file=sys.stderr)
            return 2
        if not args.task:
            print("error: --task is required without --checkpoint", file=sys.stderr)
            return 2
        session = PredictorSession(
            args.task,
            cfg,
            seed=args.seed,
            use_compiled=args.compiled,
            use_compiled_adapt=args.compiled_adapt,
            plan_dtype=args.dtype,
            max_cached_scores=args.score_cache,
        )
        print(f"No checkpoint given: pretraining a quick session on {args.task} ...", flush=True)
        session.pretrain()

    server = PredictorServer(
        session,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        adaptation=_make_adaptation(args, session),
    )
    server.start()
    mode = f"compiled plans, dtype {args.dtype}" if args.compiled else "eager forwards"
    print(f"Serving task {session.task.name} on {server.url} ({mode})", flush=True)
    print(
        f"  POST {server.url}/predict   "
        '{"device": "<name>", "indices": [0, 1, ...]}  '
        f"(batching: max_batch={args.max_batch})"
    )
    print(
        f"  POST {server.url}/measurements   "
        '{"device": "<name>", "indices": [...], "latencies": [...]}  '
        f"(drift-gated re-adapt: {'on' if args.auto_adapt else 'off'}, "
        f"threshold {args.drift_threshold}, window {args.drift_window})"
    )
    print(f"  GET  {server.url}/devices | /healthz | /metrics   (Ctrl-C drains and exits)")
    try:
        server.wait()  # returns on Ctrl-C
        print("\nShutting down: draining queued predictions ...", flush=True)
    finally:
        server.shutdown()
    return 0


def _serve_sharded(args, cfg) -> int:
    """``repro serve --workers N``: multi-process device-affinity serving."""
    from repro.serving import PredictorServer, ShardedRouter, WorkerSpec

    if not args.checkpoint:
        print("error: --workers > 1 requires --checkpoint (workers load it)", file=sys.stderr)
        return 2
    spec = WorkerSpec(
        checkpoint=args.checkpoint,
        task=args.task,
        config=cfg,
        plans=args.plans,
        use_compiled=args.compiled,
        use_compiled_adapt=args.compiled_adapt,
        dtype=args.dtype,
        score_cache=args.score_cache,
    )
    router = ShardedRouter(
        spec,
        n_workers=args.workers,
        max_batch=args.max_batch,
        pipeline_depth=args.pipeline_depth,
    )
    print(f"Spawning {args.workers} predictor worker(s) ...", flush=True)
    router.start()
    warm = sum(len(h.warm_devices) for h in router._handles if h is not None)
    if args.plans:
        print(f"Warmup: {warm} device shard(s) loaded from {args.plans}", flush=True)
    server = PredictorServer(
        router, host=args.host, port=args.port, adaptation=_make_adaptation(args, router)
    )
    server.start()
    print(
        f"Serving on {server.url} — {args.workers} workers, device-affinity "
        f"sharding, pipeline depth {args.pipeline_depth} (batching per shard: "
        f"max_batch={args.max_batch})",
        flush=True,
    )
    print(f"  GET  {server.url}/metrics   (workers_alive, per-shard rollup; Ctrl-C drains and exits)")
    try:
        server.wait()
        print("\nShutting down: draining shards, stopping workers ...", flush=True)
    finally:
        server.shutdown()
    return 0


def _cmd_nas(args) -> int:
    from repro import get_task
    from repro.nas import MetaD2ASimulator, latency_constrained_search
    from repro.predictors.training import predict_latency
    from repro.transfer import NASFLATPipeline
    from repro.transfer.pipeline import quick_config

    task = get_task(args.task)
    if args.device not in task.test_devices:
        print(f"error: {args.device} is not a test device of {args.task}", file=sys.stderr)
        return 2
    pipe = NASFLATPipeline(task, quick_config(), seed=args.seed)
    print("Pretraining ...", flush=True)
    pipe.pretrain()
    tr = pipe.transfer(args.device)
    print(f"Adapted to {args.device}: spearman={tr.spearman:.3f}")
    ds = pipe.dataset
    gen = MetaD2ASimulator(pipe.space)
    rng = np.random.default_rng(args.seed)
    lat = ds.latencies(args.device)
    constraint = float(np.quantile(lat, args.constraint_quantile))
    measured = rng.choice(len(ds), tr.n_samples, replace=False)
    scorer = lambda idx: predict_latency(pipe.last_predictor, args.device, idx, supplementary=pipe.supplementary)
    res = latency_constrained_search(
        ds, args.device, constraint, gen, scorer, measured, rng, tr.finetune_seconds
    )
    print(f"constraint={constraint:.2f}ms  found: arch #{res.chosen_index} "
          f"latency={res.latency_ms:.2f}ms accuracy={res.accuracy:.2f}%")
    print(f"cost: {res.cost.n_samples} samples, {res.cost.total_seconds:.1f}s total")
    return 0


def _cmd_partition(args) -> int:
    from repro.hardware.dataset import LatencyDataset
    from repro.spaces.registry import get_space
    from repro.tasks import partition_devices

    ds = LatencyDataset(get_space(args.space))
    train, test = partition_devices(ds, args.devices, m=args.train_size, n=args.test_size, seed=args.seed)
    print("train:", ", ".join(train))
    print("test: ", ", ".join(test))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tasks", help="list device-set tasks").set_defaults(func=_cmd_tasks)

    p = sub.add_parser("devices", help="list simulated devices")
    p.add_argument("--space", choices=["nasbench201", "fbnet"], default=None)
    p.set_defaults(func=_cmd_devices)

    p = sub.add_parser("transfer", help="pretrain + few-shot transfer on a task")
    p.add_argument("--task", required=True)
    p.add_argument("--devices", nargs="*", default=None, help="target devices (default: all test devices)")
    p.add_argument("--sampler", default="cosine-caz")
    p.add_argument("--supplementary", default="zcp")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full-scale", action="store_true", help="paper-scale training (slow)")
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("predict", help="batched latency predictions via a serving session")
    p.add_argument("--task", default=None, help="task name (read from checkpoint metadata if omitted)")
    p.add_argument("--devices", nargs="+", required=True, help="target devices to adapt and query")
    p.add_argument("--indices", nargs="+", type=int, required=True, help="architecture table indices")
    p.add_argument("--checkpoint", default=None, help="pretrained checkpoint (.npz) to serve from")
    p.add_argument("--save-checkpoint", default=None, help="persist the checkpoint after pretraining")
    p.add_argument("--samples", type=int, default=20, help="on-device samples for adaptation")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("compile", help="emit plan artifacts for zero-cold-start serving")
    p.add_argument("checkpoint", help="pretrained checkpoint (.npz) to compile from")
    p.add_argument("--task", default=None, help="task name (read from checkpoint metadata if omitted)")
    p.add_argument("--devices", nargs="+", required=True, help="target devices to adapt and compile")
    p.add_argument(
        "--buckets",
        nargs="+",
        type=int,
        default=[32],
        help="batch sizes to compile plans for (each rounds up to a power-of-two "
        "bucket clamped to 4-64 rows; bigger batches replay as 64-row tiles)",
    )
    p.add_argument("--out", default="plans", help="output bundle directory")
    p.add_argument("--samples", type=int, default=20, help="on-device samples for adaptation")
    p.add_argument(
        "--dtype",
        choices=["f64", "f32"],
        default="f64",
        help="plan execution precision: f32 halves replay bandwidth (rank "
        "correlation vs f64 gated in CI); the bundle records it and serving "
        "must use the matching --dtype",
    )
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("serve", help="HTTP serving layer with dynamic micro-batching")
    p.add_argument("--task", default=None, help="task name (read from checkpoint metadata if omitted)")
    p.add_argument("--checkpoint", default=None, help="pretrained checkpoint (.npz) to serve from")
    p.add_argument(
        "--plans",
        default=None,
        help="plan-artifact bundle from 'repro compile': pre-load adapted "
        "predictors and compiled plans (zero first-request compile stall)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8100, help="bind port (0 picks a free one; /metrics reports the choice)")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="predictor worker processes; > 1 enables device-affinity "
        "sharding (requires --checkpoint; pair with --plans for "
        "zero-cold-start workers)",
    )
    p.add_argument("--max-batch", type=int, default=64, help="architectures coalesced per forward")
    p.add_argument("--samples", type=int, default=20, help="on-device samples for adaptation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--compiled",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve from traced replay plans (--no-compiled: eager forwards)",
    )
    p.add_argument(
        "--compiled-adapt",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "run device cold-start fine-tuning through compiled training "
            "plans (defaults to the --compiled setting)"
        ),
    )
    p.add_argument(
        "--dtype",
        choices=["f64", "f32"],
        default="f64",
        help="plan execution precision for serving and compiled adapt; must "
        "match the --plans bundle's recorded dtype (named error otherwise)",
    )
    p.add_argument(
        "--score-cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="memoize each hot device's scores in a per-device table, per "
        "session/worker; bitwise-transparent for f64 compiled serving, "
        "bypassed by eager and f32 serving (--no-score-cache: off)",
    )
    p.add_argument(
        "--pipeline-depth",
        type=int,
        default=2,
        help="outstanding micro-batches per shard (1 = strict "
        "send-then-wait; sharded mode only)",
    )
    p.add_argument(
        "--auto-adapt",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="drift-gated background re-adaptation from POST /measurements "
        "(--no-auto-adapt: keep ingest and drift gauges live but never "
        "re-adapt)",
    )
    p.add_argument(
        "--adapt-interval",
        type=float,
        default=5.0,
        help="seconds between background drift checks (ingest wakes the "
        "loop early)",
    )
    p.add_argument(
        "--drift-threshold",
        type=float,
        default=0.6,
        help="Spearman floor of served scores vs observed latencies; a "
        "defined correlation below it triggers re-adaptation",
    )
    p.add_argument(
        "--drift-window",
        type=int,
        default=16,
        help="observed measurements required per device before drift is "
        "evaluated",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("nas", help="latency-constrained NAS on an unseen device")
    p.add_argument("--task", default="ND")
    p.add_argument("--device", required=True)
    p.add_argument("--constraint-quantile", type=float, default=0.4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_nas)

    p = sub.add_parser("partition", help="Algorithm 1 device partitioning")
    p.add_argument("--space", default="nasbench201")
    p.add_argument("--devices", nargs="+", required=True)
    p.add_argument("--train-size", type=int, required=True)
    p.add_argument("--test-size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_partition)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
