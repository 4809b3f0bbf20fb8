"""Bipartite user-item adjacency and its symmetric degree normalization."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InputDataError


@dataclass
class BipartiteGraph:
    """Normalized adjacency over n_users + n_items nodes.

    Users occupy rows 0..n-1 and items rows n..n+m-1, so the matrix has the
    block layout [[0, R], [R^T, 0]]. `a_norm` is D^{-1/2} A D^{-1/2};
    isolated nodes keep all-zero rows and columns.
    """

    n_users: int
    n_items: int
    a_norm: sp.csr_matrix

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_items


def interaction_matrix(dataset, split: str) -> sp.csr_matrix:
    """Binary user-by-item matrix of one split ("train" or "test"); a
    dataset lists each (user, item) pair once (see sepgcn.snapshot_columns).

    The one place a user's train or test items are worked out: the
    adjacency, the sampler, ranking and the metrics all read them from here.
    Entries are sorted within each row, so `entry_keys` of the result come
    out sorted.
    """
    edges = dataset.interactions
    chosen = edges.is_test == (split == "test")
    rows, cols = edges.users[chosen], edges.items[chosen]
    if split == "train" and not len(rows):
        raise InputDataError("dataset has no train interactions")
    return sp.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(dataset.n_users, dataset.n_items)
    )


def entry_keys(mat: sp.csr_matrix) -> np.ndarray:
    """Sorted keys row * n_cols + col of the entries of a canonical CSR matrix."""
    rows = np.repeat(np.arange(mat.shape[0], dtype=np.int64), np.diff(mat.indptr))
    return rows * mat.shape[1] + mat.indices


def has_entry(keys: np.ndarray, n_cols: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """For each (row, col) pair, whether its key is among the sorted, non-empty `keys`."""
    query = rows * n_cols + cols
    return keys[np.minimum(np.searchsorted(keys, query), len(keys) - 1)] == query


def sym_normalize(a: sp.spmatrix) -> sp.csr_matrix:
    """D^{-1/2} A D^{-1/2} with zero-degree rows left untouched (all zero)."""
    a = a.tocsr()
    deg = np.asarray(a.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(deg)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    d = sp.diags(inv_sqrt)
    return (d @ a @ d).tocsr()


def build_adjacency(dataset) -> BipartiteGraph:
    """Assemble and normalize the (n+m)-node adjacency from train edges."""
    r = interaction_matrix(dataset, "train")
    n, m = r.shape
    a = sp.bmat([[None, r], [r.T, None]], format="csr")
    return BipartiteGraph(n_users=n, n_items=m, a_norm=sym_normalize(a))


def spmv(graph: BipartiteGraph, embeddings: np.ndarray) -> np.ndarray:
    """One propagation step: the normalized adjacency times the embedding matrix.

    Single-threaded CSR row accumulation, so the summation order (and hence
    the result) is identical across runs.
    """
    return graph.a_norm @ embeddings
