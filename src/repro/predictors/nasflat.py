"""NASFLAT: the paper's few-shot multi-device latency predictor (Fig. 3).

Data flow (matching Fig. 3 and appendix A.4.5):

1. Per-node operation embeddings are looked up from a table; the device's
   hardware embedding is concatenated onto every node (operation-specific
   hardware embedding, §5.1).
2. A small op-hw GNN refines the joint embedding over the architecture DAG,
   and an MLP maps it back to the operation-embedding width.
3. The main GNN (DGF / GAT / ensemble) runs on [node embedding ‖ refined
   op-hw embedding], gated by the refined embedding.
4. The output node's representation, optionally concatenated with
   supplementary encodings (Arch2Vec / CATE / ZCP / CAZ), feeds the MLP
   prediction head.

Hardware-embedding initialization for new devices (§5.2) copies the row of
the most-correlated known device (see ``add_device``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nnlib import MLP, Embedding, Module, Tensor, concat, no_grad
from repro.predictors.compiled import CompiledInference
from repro.predictors.gnn import GNNStack
from repro.predictors.space_tensors import SpaceTensors
from repro.spaces.base import SearchSpace

# Hyperparameters from paper Table 20 (found via their Optuna search).
_OP_EMB_DIM = 48
_NODE_EMB_DIM = 48
_HW_EMB_DIM = 48
_OPHW_GNN_DIMS = (128, 128)
_OPHW_MLP_DIMS = (128,)
_GNN_DIMS = (128, 128, 128)
_HEAD_DIMS = (200, 200, 200)


@dataclass
class NASFLATConfig:
    """Architecture hyperparameters (defaults = paper Table 20)."""

    op_emb_dim: int = _OP_EMB_DIM
    node_emb_dim: int = _NODE_EMB_DIM
    hw_emb_dim: int = _HW_EMB_DIM
    gnn_kind: str = "ensemble"  # "dgf" | "gat" | "ensemble"
    gnn_dims: tuple[int, ...] = _GNN_DIMS
    ophw_gnn_dims: tuple[int, ...] = _OPHW_GNN_DIMS
    ophw_mlp_dims: tuple[int, ...] = _OPHW_MLP_DIMS
    head_dims: tuple[int, ...] = _HEAD_DIMS
    supplementary_dim: int = 0
    # Ablation switch (Table 2): with operation-wise hardware embeddings the
    # device vector is concatenated onto every node's op embedding before
    # the op-hw refinement GNN; without, the device vector conditions only
    # the prediction head (the global hardware embedding of MultiPredict,
    # which is the baseline the paper ablates against).
    use_op_hw: bool = True


class NASFLATPredictor(CompiledInference, Module):
    """Multi-device latency predictor with op-specific hardware embeddings."""

    def __init__(
        self,
        space: SearchSpace,
        devices: list[str],
        rng: np.random.Generator,
        config: NASFLATConfig | None = None,
    ):
        super().__init__()
        if not devices:
            raise ValueError("need at least one device")
        self.space = space
        self.config = config or NASFLATConfig()
        cfg = self.config
        self.device_index: dict[str, int] = {d: i for i, d in enumerate(devices)}
        self._rng = rng

        self.op_emb = Embedding(space.num_ops, cfg.op_emb_dim, rng)
        self.hw_emb = Embedding(len(devices), cfg.hw_emb_dim, rng)
        self.node_emb = Embedding(space.num_nodes, cfg.node_emb_dim, rng)

        ophw_in = cfg.op_emb_dim + (cfg.hw_emb_dim if cfg.use_op_hw else 0)
        self.ophw_gnn = GNNStack(ophw_in, cfg.ophw_gnn_dims, op_dim=ophw_in, rng=rng, kind="dgf")
        self.ophw_mlp = MLP(self.ophw_gnn.out_dim, list(cfg.ophw_mlp_dims), cfg.op_emb_dim, rng)

        main_in = cfg.node_emb_dim + cfg.op_emb_dim
        self.gnn = GNNStack(main_in, cfg.gnn_dims, op_dim=cfg.op_emb_dim, rng=rng, kind=cfg.gnn_kind)
        head_in = self.gnn.out_dim + cfg.supplementary_dim
        if not cfg.use_op_hw:
            head_in += cfg.hw_emb_dim  # global device conditioning instead
        self.head = MLP(head_in, list(cfg.head_dims), 1, rng)

        # LatencyEstimator state, populated by fit()/adapt().
        self._dataset = None
        self._supplementary: np.ndarray | None = None
        self._source_devices: list[str] = list(devices)

    # --------------------------------------------------------------- devices
    @property
    def devices(self) -> list[str]:
        return list(self.device_index)

    def add_device(self, name: str, init_from: str | None = None) -> int:
        """Register a new device row in the hardware-embedding table.

        ``init_from`` implements the paper's §5.2 initialization: the new
        device's embedding starts as a copy of the most-correlated known
        device's (avoiding a cold start).  Without it the row is random.
        """
        if name in self.device_index:
            raise ValueError(f"device {name!r} already registered")
        if init_from is not None and init_from not in self.device_index:
            raise KeyError(f"unknown init device {init_from!r}")
        idx = len(self.device_index)
        table = self.hw_emb.weight.data
        if init_from is not None:
            new_row = table[self.device_index[init_from]].copy()
        else:
            new_row = self._rng.normal(0.0, 0.1, size=table.shape[1])
        self.hw_emb.weight.data = np.vstack([table, new_row])
        self.hw_emb.num_embeddings += 1
        self.device_index[name] = idx
        # Inference plans survive (parameter values are read live and the
        # gather output shape is row-count independent), but training plans
        # sized their hw-embedding gradient buffer at trace time — drop them
        # so the next compiled step re-traces against the grown table.
        self.clear_training_plans()
        return idx

    # --------------------------------------------------------------- forward
    def forward(
        self,
        adj: np.ndarray,
        ops: np.ndarray,
        device_idx: np.ndarray,
        supplementary: np.ndarray | None = None,
    ) -> Tensor:
        """Predict (standardized) latency for a batch of architectures.

        Parameters
        ----------
        adj: (B, N, N) adjacency matrices.
        ops: (B, N) integer op indices.
        device_idx: (B,) integer device rows (see ``device_index``).
        supplementary: (B, S) encoding matrix iff the config declared
            ``supplementary_dim > 0``.
        """
        return self._forward_core(self._plan_inputs(adj, ops, device_idx, supplementary))

    def _plan_inputs(
        self,
        adj: np.ndarray,
        ops: np.ndarray,
        device_idx: np.ndarray,
        supplementary: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """Pure-numpy input preparation shared by the eager and compiled
        paths (index expansion, dtype normalization, validation)."""
        cfg = self.config
        ops = np.asarray(ops, dtype=np.int64)
        b, n = ops.shape
        inputs = {
            "adj": np.asarray(adj, dtype=np.float64),
            "ops": ops,
            "node_idx": np.broadcast_to(np.arange(n), (b, n)),
        }
        didx = np.asarray(device_idx, dtype=np.int64)
        if cfg.use_op_hw:
            inputs["hw_idx"] = np.repeat(didx, n).reshape(b, n)
        else:
            inputs["hw_idx"] = didx
        if cfg.supplementary_dim:
            if supplementary is None:
                raise ValueError("config declares supplementary encodings but none were passed")
            if supplementary.shape != (b, cfg.supplementary_dim):
                raise ValueError(
                    f"supplementary shape {supplementary.shape} != {(b, cfg.supplementary_dim)}"
                )
            inputs["supp"] = np.asarray(supplementary, dtype=np.float64)
        elif supplementary is not None:
            raise ValueError("supplementary encodings passed but config.supplementary_dim == 0")
        return inputs

    def _forward_core(self, inp: dict[str, np.ndarray]) -> Tensor:
        """The tensor program (traceable: consumes ``inp`` by identity)."""
        cfg = self.config
        b = len(inp["ops"])
        adj_t = Tensor(inp["adj"])
        op_vecs = self.op_emb(inp["ops"])  # (B, N, op_dim)
        if cfg.use_op_hw:
            hw_rows = self.hw_emb(inp["hw_idx"])
            joint = concat([op_vecs, hw_rows], axis=-1)
        else:
            joint = op_vecs
        refined = self.ophw_mlp(self.ophw_gnn(joint, adj_t, joint))  # (B, N, op_dim)

        node_vecs = self.node_emb(inp["node_idx"])
        x = concat([node_vecs, refined], axis=-1)
        h = self.gnn(x, adj_t, refined)  # (B, N, out)
        out_node = h[:, -1, :]  # DAG convention: last node is the output
        if not cfg.use_op_hw:
            # Global hardware embedding at the head (the ablation baseline).
            out_node = concat([out_node, self.hw_emb(inp["hw_idx"])], axis=-1)
        if "supp" in inp:
            out_node = concat([out_node, Tensor(inp["supp"])], axis=-1)
        return self.head(out_node).reshape(b)

    def _example_batch(self, bucket: int) -> tuple:
        n = self.space.num_nodes
        supp = (
            np.zeros((bucket, self.config.supplementary_dim))
            if self.config.supplementary_dim
            else None
        )
        return (
            np.zeros((bucket, n, n)),
            np.zeros((bucket, n), dtype=np.int64),
            np.zeros(bucket, dtype=np.int64),
            supp,
        )

    def predict(
        self,
        adj: np.ndarray | str,
        ops: np.ndarray | None = None,
        device: str | None = None,
        supplementary: np.ndarray | None = None,
        batch_size: int = 256,
    ) -> np.ndarray:
        """Inference helper: predict scores for one device, in chunks.

        Two call forms: the legacy tensor form ``predict(adj, ops, device)``
        and the :class:`~repro.core.estimator.LatencyEstimator` form
        ``predict(device, indices)`` over architecture table indices.
        """
        if isinstance(adj, str):  # protocol form: (device, indices)
            return self._predict_indices(adj, ops, batch_size=batch_size)
        if device not in self.device_index:
            raise KeyError(f"unknown device {device!r}; call add_device first")
        didx = self.device_index[device]
        outs = []
        self.eval()
        with no_grad():
            for start in range(0, len(ops), batch_size):
                if start == 0 and batch_size >= len(ops):
                    # Single chunk: keep the caller's arrays so the
                    # identity-keyed GAT mask cache hits on repeat batches.
                    a, o, supp = adj, ops, supplementary
                else:
                    sl = slice(start, start + batch_size)
                    a, o = adj[sl], ops[sl]
                    supp = supplementary[sl] if supplementary is not None else None
                dev = np.full(len(o), didx)
                outs.append(self.forward(a, o, dev, supp).numpy())
        self.train()
        return np.concatenate(outs)

    def compiled_predict(
        self,
        adj: np.ndarray | str,
        ops: np.ndarray | None = None,
        device: str | None = None,
        supplementary: np.ndarray | None = None,
        batch_size: int = 256,
    ) -> np.ndarray:
        """Compiled twin of :meth:`predict`: same chunked-batch API, served
        from a traced replay plan per shape bucket (see
        :class:`~repro.predictors.compiled.CompiledInference`).

        Accepts both call forms of :meth:`predict`; results match the eager
        path to within 1e-6 (bitwise for most ops).
        """
        if isinstance(adj, str):  # protocol form: (device, indices)
            return self._predict_indices(adj, ops, batch_size=batch_size, compiled=True)
        if device not in self.device_index:
            raise KeyError(f"unknown device {device!r}; call add_device first")
        didx = self.device_index[device]
        outs = []
        for start in range(0, len(ops), batch_size):
            if start == 0 and batch_size >= len(ops):
                a, o, supp = adj, ops, supplementary  # keep array identity
            else:
                sl = slice(start, start + batch_size)
                a, o = adj[sl], ops[sl]
                supp = supplementary[sl] if supplementary is not None else None
            dev = np.full(len(o), didx)
            outs.append(self._replay_batch((a, o, dev, supp)))
        return np.concatenate(outs) if outs else np.empty(0)

    # ------------------------------------------- LatencyEstimator protocol
    def fit(
        self,
        dataset,
        devices=None,
        *,
        rng: np.random.Generator | None = None,
        config=None,
        supplementary: np.ndarray | None = None,
        sample_indices: dict[str, np.ndarray] | None = None,
        compiled: bool = False,
    ) -> "NASFLATPredictor":
        """Pretrain on the source-device pool (§3.4).

        ``supplementary`` is the *full-table* encoding matrix matching
        ``config.supplementary_dim``; it is retained for :meth:`adapt` and
        the index form of :meth:`predict`.  ``compiled=True`` trains through
        replayed forward+backward plans and a fused optimizer.
        """
        from repro.predictors.training import pretrain_multidevice

        devices = list(devices) if devices is not None else list(self._source_devices)
        self._dataset = dataset
        self._supplementary = supplementary
        self._source_devices = devices
        pretrain_multidevice(
            self,
            dataset,
            devices,
            rng if rng is not None else self._rng,
            config=config,
            supplementary=supplementary,
            sample_indices=sample_indices,
            compiled=compiled,
        )
        return self

    def adapt(
        self,
        device: str,
        indices: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
        config=None,
        init_from: str | None = "auto",
        compiled: bool = False,
    ) -> "NASFLATPredictor":
        """Few-shot adaptation to one target device.

        ``init_from="auto"`` picks the most-correlated source device for the
        hardware-embedding initialization (§5.2); pass ``None`` to disable.
        ``compiled=True`` runs the fine-tune epochs as replays of one traced
        forward+backward plan (the serving cold-start fast path).
        """
        from repro.predictors.training import finetune_on_device

        dataset = self._require_dataset()
        idx = np.asarray(indices, dtype=np.int64)
        if device not in self.device_index:
            if init_from == "auto":
                from repro.transfer.hw_init import select_init_device

                init_from = select_init_device(dataset, device, idx, self._source_devices)
            self.add_device(device, init_from=init_from)
        finetune_on_device(
            self,
            dataset,
            device,
            idx,
            rng if rng is not None else self._rng,
            config=config,
            supplementary=self._supplementary,
            compiled=compiled,
        )
        return self

    def encode_indices(self, indices) -> tuple:
        """Forward inputs ``(adj, ops, supplementary)`` for architecture
        table ``indices``: a gather from the space's dense tables, cheap
        enough that nothing memoizes it."""
        idx = np.asarray(indices, dtype=np.int64)
        adj, ops = SpaceTensors.for_space(self.space).batch(idx)
        supp = None
        if self.config.supplementary_dim:
            if self._supplementary is None:
                raise RuntimeError(
                    "config declares supplementary encodings; fit() with the "
                    "encoding table before index-based predict()"
                )
            supp = self._supplementary[idx]
        return adj, ops, supp

    def _predict_indices(
        self, device: str, indices, batch_size: int = 256, compiled: bool = False
    ) -> np.ndarray:
        adj, ops, supp = self.encode_indices(indices)
        scorer = self.compiled_predict if compiled else self.predict
        return scorer(adj, ops, device, supp, batch_size=batch_size)

    def _require_dataset(self):
        if self._dataset is None:
            raise RuntimeError("no dataset bound; call fit(dataset, devices) first")
        return self._dataset

    def save(self, path, metadata: dict | None = None) -> None:
        """Persist parameters plus enough metadata to rebuild the roster."""
        from repro.nnlib.serialization import save_checkpoint

        meta = {
            "space": self.space.name,
            "devices": self.devices,
            "source_devices": list(self._source_devices),
            "supplementary_dim": self.config.supplementary_dim,
        }
        save_checkpoint(self, path, metadata={**meta, **(metadata or {})})

    def load(self, path) -> dict:
        """Load parameters saved by :meth:`save`; returns stored metadata.

        Devices present in the checkpoint but missing from this predictor's
        roster are registered first so the embedding-table shapes line up.
        """
        from repro.nnlib.serialization import load_checkpoint, read_checkpoint_metadata

        meta = read_checkpoint_metadata(path)
        ckpt_devices = meta.get("devices", [])
        for dev in ckpt_devices:
            if dev not in self.device_index:
                self.add_device(dev)
        if ckpt_devices and self.devices[: len(ckpt_devices)] != list(ckpt_devices):
            # Embedding rows are positional: a roster in a different order
            # would load silently but swap devices' hardware embeddings.
            raise ValueError(
                f"device roster order mismatch: checkpoint has {list(ckpt_devices)}, "
                f"predictor has {self.devices}; construct the predictor with the "
                "checkpoint's device order"
            )
        if meta.get("source_devices"):
            self._source_devices = list(meta["source_devices"])
        return load_checkpoint(self, path)
