"""Adjacency assembly and propagation against dense linear-algebra oracles."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from sepgcn.config import SplitConfig
from sepgcn.data import Dataset
from sepgcn.errors import InputDataError
from sepgcn.graph import (
    build_adjacency,
    entry_keys,
    has_entry,
    interaction_matrix,
    spmv,
    sym_normalize,
)

from reference import interactions


def make_dataset(n_users, n_items, edges):
    inter = interactions((u, i, (0,), s) for u, i, s in edges)
    return Dataset(
        user_ids=[f"u{k}" for k in range(n_users)],
        item_ids=[f"p{k}" for k in range(n_items)],
        interactions=inter,
        item_lat=np.zeros(n_items),
        item_lon=np.zeros(n_items),
        split=SplitConfig(),
    )


def random_dataset(rng, n_users=20, n_items=20, n_edges=60):
    picks = {(int(rng.integers(n_users)), int(rng.integers(n_items))) for _ in range(n_edges)}
    return make_dataset(n_users, n_items, [(u, i, "train") for u, i in sorted(picks)])


def dense_norm_oracle(a: np.ndarray) -> np.ndarray:
    """Literal D^{-1/2} A D^{-1/2} with 0 for isolated nodes."""
    deg = a.sum(axis=1)
    inv = np.array([1.0 / np.sqrt(d) if d > 0 else 0.0 for d in deg])
    return np.diag(inv) @ a @ np.diag(inv)


class TestInteractionMatrix:
    def test_only_train_edges_enter(self):
        ds = make_dataset(2, 3, [(0, 0, "train"), (0, 1, "test"), (1, 2, "train")])
        r = interaction_matrix(ds, "train").toarray()
        np.testing.assert_array_equal(r, [[1, 0, 0], [0, 0, 1]])

    def test_test_split_holds_only_test_edges(self):
        ds = make_dataset(2, 3, [(0, 0, "train"), (0, 1, "test"), (1, 2, "train")])
        r = interaction_matrix(ds, "test").toarray()
        np.testing.assert_array_equal(r, [[0, 1, 0], [0, 0, 0]])

    def test_empty_train_split_raises(self):
        ds = make_dataset(1, 1, [(0, 0, "test")])
        with pytest.raises(InputDataError):
            interaction_matrix(ds, "train")
        assert interaction_matrix(ds, "test").toarray().tolist() == [[1.0]]

    def test_entry_keys_sorted_and_found(self):
        """Keys of an unordered edge list come out sorted, and has_entry finds exactly them."""
        rng = np.random.default_rng(61)
        for _ in range(10):
            picks = {(int(rng.integers(7)), int(rng.integers(9))) for _ in range(30)}
            edges = [(u, i, "train") for u, i in picks]  # set order, not sorted
            edges += [(u, i, "train") for u, i in list(picks)[:5]]  # repeated edges
            keys = entry_keys(interaction_matrix(make_dataset(7, 9, edges), "train"))
            assert keys.tolist() == sorted(u * 9 + i for u, i in picks)
            users, items = np.divmod(np.arange(7 * 9), 9)
            found = has_entry(keys, 9, users, items)
            assert [(int(u), int(i)) for u, i in zip(users[found], items[found])] == sorted(picks)


class TestBuildAdjacency:
    def test_single_edge_gives_unit_entries(self):
        """One user, one item, one edge: both degrees are 1, so both entries are 1."""
        g = build_adjacency(make_dataset(1, 1, [(0, 0, "train")]))
        np.testing.assert_allclose(g.a_norm.toarray(), [[0, 1], [1, 0]])

    def test_star_user_gives_half_entries(self):
        g = build_adjacency(make_dataset(1, 4, [(0, k, "train") for k in range(4)]))
        dense = g.a_norm.toarray()
        np.testing.assert_allclose(dense[0, 1:], [0.5] * 4)
        np.testing.assert_allclose(dense[1:, 0], [0.5] * 4)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            ds = random_dataset(rng)
            g = build_adjacency(ds)
            r = interaction_matrix(ds, "train").toarray()
            a = np.block(
                [[np.zeros((ds.n_users, ds.n_users)), r],
                 [r.T, np.zeros((ds.n_items, ds.n_items))]]
            )
            np.testing.assert_allclose(g.a_norm.toarray(), dense_norm_oracle(a), atol=1e-12)

    def test_symmetry_and_isolated_nodes(self):
        ds = make_dataset(3, 3, [(0, 0, "train"), (1, 0, "train")])  # u2, p1, p2 isolated
        g = build_adjacency(ds)
        dense = g.a_norm.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=0)
        np.testing.assert_array_equal(dense[2], 0)
        np.testing.assert_array_equal(dense[:, 4], 0)


class TestSpmv:
    def test_zeros_map_to_zeros(self):
        g = build_adjacency(make_dataset(2, 2, [(0, 0, "train"), (1, 1, "train")]))
        np.testing.assert_array_equal(spmv(g, np.zeros((4, 3))), np.zeros((4, 3)))

    def test_single_edge_swaps_rows(self):
        g = build_adjacency(make_dataset(1, 1, [(0, 0, "train")]))
        e = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(spmv(g, e), e[::-1])

    def test_matches_dense_matmul(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            ds = random_dataset(rng)
            g = build_adjacency(ds)
            e = rng.normal(size=(g.n_nodes, 8))
            np.testing.assert_allclose(spmv(g, e), g.a_norm.toarray() @ e, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(73)
        ds = random_dataset(rng)
        g = build_adjacency(ds)
        x = rng.normal(size=(g.n_nodes, 4))
        y = rng.normal(size=(g.n_nodes, 4))
        np.testing.assert_allclose(
            spmv(g, 2.0 * x + 3.0 * y), 2.0 * spmv(g, x) + 3.0 * spmv(g, y), atol=1e-10
        )

    def test_two_applications_equal_dense_square(self):
        rng = np.random.default_rng(79)
        ds = random_dataset(rng, n_users=10, n_items=10, n_edges=25)
        g = build_adjacency(ds)
        e = rng.normal(size=(g.n_nodes, 5))
        dense_sq = np.linalg.matrix_power(g.a_norm.toarray(), 2)
        np.testing.assert_allclose(spmv(g, spmv(g, e)), dense_sq @ e, atol=1e-10)

    def test_sym_normalize_scales_by_degree(self):
        a = sp.coo_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        np.testing.assert_allclose(sym_normalize(a).toarray(), [[0, 1], [1, 0]])
