"""GNN modules: Dense Graph Flow (Eq. 1) and Graph Attention (Eqs. 2-3).

DGF (GATES, Ning et al., 2023) keeps a residual path to fight
over-smoothing:

    X_{l+1} = sigma(O W_o) * (A X_l W_f) + X_l W_f + b_f            (1)

GAT (Velickovic et al., 2018, as adapted by the paper) replaces the linear
aggregation with attention over in-neighbours, gated by the same operation
attention and stabilized with LayerNorm:

    Attn_j(X) = S(L(A_j . a(W_p X ⊙ W_p X_j))) ⊙ W_p X_j            (2)
    X_{l+1}  = LayerNorm(sigma(O W_o) ⊙ sum_j Attn_j(X))            (3)

Both layers consume the operation-feature tensor ``op`` for the
sigma(O W_o) gate, which is how hardware information (already concatenated
into the op embedding upstream) modulates message passing.  The paper's
final model uses an *ensemble* of a DGF stack and a GAT stack
(:class:`GNNStack` with ``kind="ensemble"``).
"""
from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.nnlib import LayerNorm, Linear, Module, ModuleDict, ModuleList, Parameter, Tensor, concat, init
from repro.nnlib.ir import register_derived_fn
from repro.nnlib.trace import register_derived

_NEG_INF = -1e9

_EYE_CACHE: dict[int, np.ndarray] = {}
_EYE_LOCK = threading.Lock()


def _eye(n: int) -> np.ndarray:
    """Shared identity matrix per node count (read-only by convention)."""
    with _EYE_LOCK:
        eye = _EYE_CACHE.get(n)
        if eye is None:
            eye = _EYE_CACHE[n] = np.eye(n)
        return eye


class _MaskCache:
    """Bounded cache of GAT predecessor masks, keyed by adjacency identity.

    The mask depends on the adjacency *values*, not just its shape, so the
    key is the batch array itself (identity comparison — exact and cheap;
    the entry pins the array so its ``id`` cannot be recycled).  Within one
    forward every GAT layer shares the adjacency tensor, and a caller that
    scores the same encoded batch again passes the same array, so the mask
    is built once per distinct batch instead of once per layer per call.
    Shared across layers; guarded by a lock for concurrent sessions.
    """

    def __init__(self, capacity: int = 4):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[int, tuple[np.ndarray, Tensor, Tensor]] = OrderedDict()

    def get(self, adj_np: np.ndarray) -> tuple[Tensor, Tensor]:
        """``(mask, (1 - mask) * NEG_INF)`` as constant tensors for ``adj_np``."""
        key = id(adj_np)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is adj_np:
                self._entries.move_to_end(key)
                return entry[1], entry[2]
        # Node u attends over predecessors v (adj[v, u] = 1) and itself.
        mask = np.minimum(np.swapaxes(adj_np, -1, -2) + _eye(adj_np.shape[-1]), 1.0)
        mask_t, neg_t = Tensor(mask), Tensor((1.0 - mask) * _NEG_INF)
        with self._lock:
            self._entries[key] = (adj_np, mask_t, neg_t)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return mask_t, neg_t


_MASKS = _MaskCache()


@register_derived_fn("gnn.gat_mask")
def _mask_array(adj_np: np.ndarray) -> np.ndarray:
    """Replay binder: recompute (or cache-hit) the mask for a new batch."""
    return _MASKS.get(adj_np)[0].data


@register_derived_fn("gnn.gat_neg_inf")
def _neg_inf_array(adj_np: np.ndarray) -> np.ndarray:
    return _MASKS.get(adj_np)[1].data


class DGFLayer(Module):
    """Dense Graph Flow layer (Eq. 1)."""

    def __init__(self, in_dim: int, out_dim: int, op_dim: int, rng: np.random.Generator):
        super().__init__()
        self.w_f = Linear(in_dim, out_dim, rng)  # bias acts as b_f
        self.w_o = Linear(op_dim, out_dim, rng, bias=False)

    def forward(self, x: Tensor, adj: Tensor, op: Tensor) -> Tensor:
        xw = self.w_f(x)  # (B, N, out)
        # adj[i, j] = 1 means i -> j, so adj^T aggregates predecessors.
        agg = adj.transpose(0, 2, 1) @ xw
        gate = self.w_o(op).sigmoid()
        return gate * agg + xw


class GATLayer(Module):
    """Graph attention layer with operation gating and LayerNorm (Eqs. 2-3)."""

    def __init__(self, in_dim: int, out_dim: int, op_dim: int, rng: np.random.Generator):
        super().__init__()
        self.w_p = Linear(in_dim, out_dim, rng, bias=False)
        self.attn_vec = Parameter(init.normal(rng, (out_dim,), std=0.1), name="attn")
        self.w_o = Linear(op_dim, out_dim, rng, bias=False)
        self.norm = LayerNorm(out_dim)

    def forward(self, x: Tensor, adj: Tensor, op: Tensor) -> Tensor:
        h = self.w_p(x)  # (B, N, out)
        # e[b, u, v] = a . (h_u ⊙ h_v): pairwise interaction scores.
        scores = ((h * self.attn_vec) @ h.transpose(0, 2, 1)).leaky_relu(0.2)
        adj_np = adj.numpy()
        mask_t, neg_t = _MASKS.get(adj_np)
        # Under tracing the mask must not freeze as a constant — it depends
        # on the adjacency input; replay recomputes it via the cache.
        register_derived(mask_t.data, _mask_array, (adj_np,))
        register_derived(neg_t.data, _neg_inf_array, (adj_np,))
        masked = scores * mask_t + neg_t
        alpha = masked.softmax(axis=-1)
        out = alpha @ h
        gate = self.w_o(op).sigmoid()
        return self.norm(gate * out)


class GNNStack(Module):
    """A stack of DGF or GAT layers, or a parallel ensemble of both.

    For ``kind="ensemble"`` the DGF and GAT branches run on the same inputs
    and their outputs are concatenated (``out_features = 2 * dims[-1]``),
    matching the paper's use of a DGF+GAT ensemble module.

    Branches live in a ``ModuleDict`` of ``ModuleList`` stacks
    (``branches.dgf.0.w_f.weight``, ...), so every layer is reached by
    ``parameters()`` / ``state_dict()`` — trained by the optimizer and
    checkpointed.  (Pre-v2 the branches sat in a bare list of lists that
    parameter discovery skipped; those layers acted as fixed random feature
    extractors, and pre-v2 checkpoints therefore lack the ``branches.*``
    keys — see :mod:`repro.nnlib.serialization` for the compatibility path.)
    """

    def __init__(
        self,
        in_dim: int,
        dims: tuple[int, ...],
        op_dim: int,
        rng: np.random.Generator,
        kind: str = "ensemble",
    ):
        super().__init__()
        if kind not in ("dgf", "gat", "ensemble"):
            raise ValueError(f"unknown GNN kind {kind!r}")
        self.kind = kind
        self.dims = tuple(dims)
        self.branches = ModuleDict()
        wanted = ("dgf", "gat") if kind == "ensemble" else (kind,)
        for branch_kind in wanted:
            layer_cls = DGFLayer if branch_kind == "dgf" else GATLayer
            layers = ModuleList()
            prev = in_dim
            for dim in dims:
                layers.append(layer_cls(prev, dim, op_dim, rng))
                prev = dim
            self.branches[branch_kind] = layers

    @property
    def out_dim(self) -> int:
        return self.dims[-1] * len(self.branches)

    def forward(self, x: Tensor, adj: Tensor, op: Tensor) -> Tensor:
        outs = []
        for layers in self.branches.values():
            h = x
            for layer in layers:
                h = layer(h, adj, op).relu()
            outs.append(h)
        return outs[0] if len(outs) == 1 else concat(outs, axis=-1)
