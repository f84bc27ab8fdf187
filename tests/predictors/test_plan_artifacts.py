"""Plan-artifact round-trips at the predictor level (ISSUE 6 satellite).

Property: for every registered space and batch bucket, a plan compiled on
one predictor, saved, and loaded into a *different* predictor instance
restored from the same checkpoint replays **bitwise-identically** — for
inference and training plans, before and after an optimizer-style weight
update, and across a real process boundary.  ``add_device`` growth keeps
inference artifacts loadable (embedding tables only grow rows) but must
reject stale training artifacts (their gradient buffers were sized at
trace time).
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.nnlib import mse_loss, trace_training_step
from repro.nnlib.ir import PlanIRError, load_plan
from repro.nnlib.trace import notify_param_mutation, trace
from repro.predictors.nasflat import NASFLATPredictor
from repro.predictors.space_tensors import SpaceTensors
from repro.spaces.registry import get_space

SPACES = ["nasbench201", "nasbench101", "fbnet"]
BUCKETS = [8, 16]
DEVICES = ["pixel3", "pixel2"]


def _predictor(space, seed=11):
    return NASFLATPredictor(space, list(DEVICES), np.random.default_rng(seed))


def _restored_clone(predictor, tmp_path, tag):
    """A second predictor instance carrying the same weights via checkpoint
    (the cross-instance half of the cross-process guarantee)."""
    ckpt = tmp_path / f"ckpt_{tag}.npz"
    predictor.save(ckpt)
    clone = _predictor(predictor.space, seed=999)  # different init; overwritten
    clone.load(ckpt)
    clone.eval()
    return clone


def _batch(space, rng, n):
    idx = rng.choice(space.num_architectures(), size=n, replace=False)
    adj, ops = SpaceTensors.for_space(space).batch(idx)
    return adj, ops


@pytest.mark.parametrize("space_name", SPACES)
class TestEverySpaceEveryBucket:
    def test_inference_artifact_bitwise(self, space_name, tmp_path):
        space = get_space(space_name)
        rng = np.random.default_rng(5)
        predictor = _predictor(space)
        clone = _restored_clone(predictor, tmp_path, space_name)
        for bucket in BUCKETS:
            path = tmp_path / f"plan_{space_name}_b{bucket}.npz"
            assert predictor.save_plan(bucket, path) == bucket
            loaded_bucket, _ = clone.load_plan(path)
            assert loaded_bucket == bucket
            adj, ops = _batch(space, rng, bucket)
            ref = predictor.compiled_predict(adj, ops, "pixel3", batch_size=bucket)
            out = clone.compiled_predict(adj, ops, "pixel3", batch_size=bucket)
            assert np.array_equal(ref, out), f"{space_name} bucket={bucket}"

    def test_bitwise_after_weight_update(self, space_name, tmp_path):
        # Loaded plans bind parameters by path: an optimizer-style update
        # applied to both predictors must keep replays identical.
        space = get_space(space_name)
        rng = np.random.default_rng(6)
        predictor = _predictor(space)
        clone = _restored_clone(predictor, tmp_path, f"{space_name}_upd")
        bucket = BUCKETS[0]
        path = tmp_path / f"plan_{space_name}_upd.npz"
        predictor.save_plan(bucket, path)
        clone.load_plan(path)
        for p, q in zip(predictor.parameters(), clone.parameters()):
            step = 0.01 * np.sign(p.data)
            p.data -= step
            q.data -= step
        notify_param_mutation()
        adj, ops = _batch(space, rng, bucket)
        ref = predictor.compiled_predict(adj, ops, "pixel3", batch_size=bucket)
        out = clone.compiled_predict(adj, ops, "pixel3", batch_size=bucket)
        assert np.array_equal(ref, out)

    def test_training_artifact_bitwise(self, space_name, tmp_path):
        space = get_space(space_name)
        rng = np.random.default_rng(7)
        predictor = _predictor(space)
        clone = _restored_clone(predictor, tmp_path, f"{space_name}_train")
        n = BUCKETS[0]
        adj, ops = _batch(space, rng, n)
        didx = np.zeros(n, dtype=np.int64)
        inputs = predictor._plan_inputs(adj, ops, didx)
        inputs["target"] = rng.standard_normal(n)
        tp = trace_training_step(predictor, mse_loss, inputs)
        path = tmp_path / f"train_{space_name}.npz"
        tp.save(path)
        tp2 = load_plan(path, module=clone)
        l0, g0 = tp.replay(inputs)
        l1, g1 = tp2.replay(inputs)
        assert l0 == l1
        assert all(
            (a is None and b is None) or np.array_equal(a, b) for a, b in zip(g0, g1)
        )


class TestServedBuckets:
    @pytest.mark.parametrize("bucket", [1, 2, 128])
    def test_unserved_bucket_rejected(self, bucket, tmp_path):
        """Replay only ever reads 4- to 64-row plans, so a plan for any other
        bucket is refused on install (and so at load) rather than kept as
        a dead cache entry."""
        predictor = _predictor(get_space("nasbench201"))
        inputs = predictor._plan_inputs(*predictor._example_batch(bucket))
        plan = trace(predictor._forward_core, inputs, module=predictor)
        with pytest.raises(ValueError, match=r"\[4, 8, 16, 32, 64\]"):
            predictor.install_plan(bucket, plan)
        path = tmp_path / f"stale_b{bucket}.npz"
        plan.save(path, metadata={"bucket": bucket})
        with pytest.raises(ValueError, match="not a served plan bucket"):
            predictor.load_plan(path)
        assert predictor.compiled_buckets() == []


class TestAddDeviceGrowth:
    def test_inference_artifact_survives_growth(self, tmp_path):
        space = get_space("nasbench201")
        rng = np.random.default_rng(8)
        predictor = _predictor(space)
        clone = _restored_clone(predictor, tmp_path, "grow")
        bucket = 8
        path = tmp_path / "plan_grow.npz"
        predictor.save_plan(bucket, path)
        # Both predictors grow identically (copy-init from the same row).
        predictor.add_device("titan_rtx_256", init_from="pixel3")
        clone.add_device("titan_rtx_256", init_from="pixel3")
        clone.load_plan(path)  # row growth of a gather table: still loadable
        adj, ops = _batch(space, rng, bucket)
        ref = predictor.compiled_predict(adj, ops, "titan_rtx_256", batch_size=bucket)
        out = clone.compiled_predict(adj, ops, "titan_rtx_256", batch_size=bucket)
        assert np.array_equal(ref, out)

    def test_training_artifact_rejected_after_growth(self, tmp_path):
        space = get_space("nasbench201")
        rng = np.random.default_rng(9)
        predictor = _predictor(space)
        n = 8
        adj, ops = _batch(space, rng, n)
        inputs = predictor._plan_inputs(adj, ops, np.zeros(n, dtype=np.int64))
        inputs["target"] = rng.standard_normal(n)
        tp = trace_training_step(predictor, mse_loss, inputs)
        path = tmp_path / "train_grow.npz"
        tp.save(path)
        predictor.add_device("titan_rtx_256")
        with pytest.raises(PlanIRError, match="stale training-plan artifact"):
            load_plan(path, module=predictor)


class TestCrossProcess:
    """The acceptance criterion proper: compile here, replay in a fresh
    interpreter, compare bitwise."""

    SCRIPT = textwrap.dedent(
        """
        import sys
        import numpy as np
        from repro.predictors.nasflat import NASFLATPredictor
        from repro.predictors.space_tensors import SpaceTensors
        from repro.spaces.registry import get_space

        out_dir, space_name, bucket = sys.argv[1], sys.argv[2], int(sys.argv[3])
        space = get_space(space_name)
        predictor = NASFLATPredictor(
            space, ["pixel3", "pixel2"], np.random.default_rng(999)
        )
        predictor.load(f"{out_dir}/ckpt.npz")
        predictor.eval()
        predictor.load_plan(f"{out_dir}/plan.npz")
        rng = np.random.default_rng(42)
        idx = rng.choice(space.num_architectures(), size=bucket, replace=False)
        adj, ops = SpaceTensors.for_space(space).batch(idx)
        scores = predictor.compiled_predict(adj, ops, "pixel3", batch_size=bucket)
        np.save(f"{out_dir}/scores.npy", scores)
        """
    )

    @pytest.mark.parametrize("space_name", SPACES)
    def test_fresh_process_replay_is_bitwise(self, space_name, tmp_path):
        space = get_space(space_name)
        predictor = _predictor(space)
        predictor.eval()
        bucket = 8
        predictor.save(tmp_path / "ckpt.npz")
        predictor.save_plan(bucket, tmp_path / "plan.npz")
        rng = np.random.default_rng(42)
        idx = rng.choice(space.num_architectures(), size=bucket, replace=False)
        adj, ops = SpaceTensors.for_space(space).batch(idx)
        ref = predictor.compiled_predict(adj, ops, "pixel3", batch_size=bucket)

        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path), space_name, str(bucket)],
            check=True,
            env=env,
            timeout=300,
        )
        out = np.load(tmp_path / "scores.npy")
        assert np.array_equal(ref, out), f"{space_name}: cross-process replay diverged"
