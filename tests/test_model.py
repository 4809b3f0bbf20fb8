"""Forward pass, edge-context update, scoring, and checkpoints vs dense oracles."""
from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from sepgcn.data import Dataset, Interactions, SplitConfig
from sepgcn.errors import ConfigError, InputDataError, NumericalError
from sepgcn.geo import SimilarityParams
from sepgcn.graph import build_adjacency, interaction_matrix, spmv
from sepgcn.model import (
    EmbeddingState,
    ModelConfig,
    SepOperator,
    edge_embed,
    forward,
    init_embeddings,
    load_checkpoint,
    save_checkpoint,
)
from sepgcn.sep_graph import (
    EdgeIndex,
    PruningParams,
    SepMatrix,
    build_sep_matrix,
    normalize_sep,
)

PARAMS = SimilarityParams(alpha_sim=0.5, median_km=2.0)


def make_instance(rng, n_users=10, n_items=10, n_edges=30, slot_pool=6):
    """Dataset + graph + edge index + normalized edge-pair matrix."""
    pairs = sorted({(int(rng.integers(n_users)), int(rng.integers(n_items))) for _ in range(n_edges)})
    inter = Interactions.from_rows(
        (u, i, tuple(rng.choice(slot_pool, size=2, replace=False)), "train") for u, i in pairs
    )
    ds = Dataset(
        user_ids=[f"u{k}" for k in range(n_users)],
        item_ids=[f"p{k}" for k in range(n_items)],
        interactions=inter,
        item_lat=rng.uniform(40.0, 40.1, n_items),
        item_lon=rng.uniform(-74.0, -73.9, n_items),
        split=SplitConfig(),
    )
    graph = build_adjacency(ds)
    index = EdgeIndex.from_dataset(ds)
    sep = normalize_sep(build_sep_matrix(index, PARAMS, PruningParams()))
    return ds, graph, index, sep


def dense_lightgcn_oracle(r: np.ndarray, e0: np.ndarray, layers: int) -> np.ndarray:
    """Independent plain-propagation reference built on dense matrices."""
    n, m = r.shape
    a = np.block([[np.zeros((n, n)), r], [r.T, np.zeros((m, m))]])
    deg = a.sum(axis=1)
    inv = np.array([1.0 / math.sqrt(d) if d > 0 else 0.0 for d in deg])
    a_norm = np.diag(inv) @ a @ np.diag(inv)
    tables = [e0]
    for _ in range(layers):
        tables.append(a_norm @ tables[-1])
    return sum(tables) / (layers + 1)


def update_oracle(table, propagated, users, items, n_users, alpha, beta, active):
    """Literal loop over edges: aggregate active segments, blend per node."""
    d = table.shape[1]
    out = table.copy()
    for u in range(n_users):
        incident = [e for e in range(len(users)) if users[e] == u and active[e]]
        if incident:
            mean = np.mean([propagated[e, :d] for e in incident], axis=0)
            out[u] = alpha * table[u] + (1 - alpha) * mean
    for i in range(table.shape[0] - n_users):
        incident = [e for e in range(len(items)) if items[e] == i and active[e]]
        if incident:
            mean = np.mean([propagated[e, d:] for e in incident], axis=0)
            out[n_users + i] = beta * table[n_users + i] + (1 - beta) * mean
    return out


def dense_forward_oracle(ds, cfg, e0, sep):
    """Straight-line dense re-implementation of the whole forward pass."""
    r = interaction_matrix(ds, "train").toarray()
    n, m = r.shape
    a = np.block([[np.zeros((n, n)), r], [r.T, np.zeros((m, m))]])
    deg = a.sum(axis=1)
    inv = np.array([1.0 / math.sqrt(x) if x > 0 else 0.0 for x in deg])
    a_norm = np.diag(inv) @ a @ np.diag(inv)
    index = EdgeIndex.from_dataset(ds)
    x = sep.to_csr().toarray()
    active = sep.active_edges()
    tables = [e0]
    cur = e0
    for k in range(1, cfg.layers + 1):
        cur = a_norm @ cur
        if cfg.sep_enabled and (cfg.sep_update == "every_layer" or k == 1):
            s = np.concatenate([cur[index.users], cur[n + index.items]], axis=1)
            cur = update_oracle(
                cur, x @ s, index.users, index.items, n, cfg.alpha_user, cfg.beta_item, active
            )
        tables.append(cur)
    return sum(tables) / (cfg.layers + 1)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(dim=0).validate()
        with pytest.raises(ConfigError):
            ModelConfig(layers=0).validate()
        with pytest.raises(ConfigError):
            ModelConfig(alpha_user=1.5).validate()
        with pytest.raises(ConfigError):
            ModelConfig(beta_item=-0.1).validate()
        with pytest.raises(ConfigError):
            ModelConfig(init_std=-1.0).validate()
        with pytest.raises(ConfigError):
            ModelConfig(sep_update="sometimes").validate()
        ModelConfig().validate()


class TestInitEmbeddings:
    def test_seed_determinism(self):
        cfg = ModelConfig(dim=4, seed=11)
        np.testing.assert_array_equal(init_embeddings(cfg, 20), init_embeddings(cfg, 20))

    def test_zero_std_gives_zeros(self):
        np.testing.assert_array_equal(
            init_embeddings(ModelConfig(dim=3, init_std=0.0), 10), np.zeros((10, 3))
        )

    def test_sample_statistics(self):
        """Mean ~0 and std ~init_std over a million entries, within 1%."""
        e0 = init_embeddings(ModelConfig(dim=100, init_std=0.1, seed=5), 10_000)
        assert abs(e0.mean()) < 0.01 * 0.1
        np.testing.assert_allclose(e0.std(), 0.1, rtol=0.01)


class TestEdgeEmbed:
    def test_concat_definition(self):
        table = np.array([[1.0, 2.0], [9.0, 9.0], [3.0, 4.0]])  # user 0, user 1, item 0
        index = EdgeIndex(
            users=np.array([0]), items=np.array([0]),
            lat=np.zeros(1), lon=np.zeros(1), slot_ptr=np.arange(2), slot_vals=np.zeros(1, np.int64),
        )
        np.testing.assert_array_equal(edge_embed(table, index, 2), [[1.0, 2.0, 3.0, 4.0]])

    def test_zero_table(self):
        index = EdgeIndex(
            users=np.array([0, 1]), items=np.array([1, 0]),
            lat=np.zeros(2), lon=np.zeros(2), slot_ptr=np.arange(3), slot_vals=np.zeros(2, np.int64),
        )
        np.testing.assert_array_equal(edge_embed(np.zeros((4, 3)), index, 2), np.zeros((2, 6)))

    def test_matches_gather_oracle(self):
        rng = np.random.default_rng(157)
        ds, graph, index, _ = make_instance(rng)
        table = rng.normal(size=(graph.n_nodes, 5))
        got = edge_embed(table, index, graph.n_users)
        for k in range(index.n_edges):
            np.testing.assert_array_equal(got[k, :5], table[index.users[k]])
            np.testing.assert_array_equal(got[k, 5:], table[graph.n_users + index.items[k]])


def edge_space_step(op, table):
    """Reference: the edge-context step written in edge space.

    Gathers user‖item rows onto every edge, propagates them over the
    edge-pair matrix, mean-aggregates each half back into its nodes over the
    active edges and blends the mean into the node's row.
    """
    d, n = table.shape[1], op.n_users
    rows = np.concatenate([table[op.index.users], table[n + op.index.items]], axis=1)
    propagated = op.x @ rows
    out = op.node_weight[:, None] * table
    out[:n] += (1.0 - op.alpha_user) * (op.pu @ propagated[:, :d])
    out[n:] += (1.0 - op.beta_item) * (op.pi @ propagated[:, d:])
    return out


def edge_space_adjoint(op, grad_out):
    """Reference: the hand-written transpose of edge_space_step."""
    d, n = grad_out.shape[1], op.n_users
    grad_edges = np.zeros((op.x.shape[0], 2 * d))
    grad_edges[:, :d] = op.put @ ((1.0 - op.alpha_user) * grad_out[:n])
    grad_edges[:, d:] = op.pit @ ((1.0 - op.beta_item) * grad_out[n:])
    grad_s = op.xt @ grad_edges
    grad = op.node_weight[:, None] * grad_out
    grad[:n] += op.gu @ grad_s[:, :d]
    grad[n:] += op.gi @ grad_s[:, d:]
    return grad


def edge_space_forward(cfg, graph, op, e0):
    """Reference forward pass that applies the step through edge_space_step."""
    tables, cur = [e0], e0
    for k in range(1, cfg.layers + 1):
        cur = spmv(graph, cur)
        if cfg.sep_update == "every_layer" or k == 1:
            cur = edge_space_step(op, cur)
        tables.append(cur)
    return sum(tables[1:], tables[0].copy()) / (cfg.layers + 1)


def one_edge_per_node(sep, n_edges, alpha=0.5, beta=0.5):
    """Operator over an index where edge k joins user k and item k."""
    index = EdgeIndex(
        users=np.arange(n_edges), items=np.arange(n_edges),
        lat=np.zeros(n_edges), lon=np.zeros(n_edges),
        slot_ptr=np.arange(n_edges + 1), slot_vals=np.zeros(n_edges, np.int64),
    )
    return SepOperator(sep, index, n_edges, n_edges, alpha, beta)


def empty_sep(n_edges):
    return SepMatrix(
        n_edges, np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), "sym_degree"
    )


class TestSepPropagate:
    """Propagation over the edge-pair graph, seen through the node-space step.

    With one edge per node and alpha = beta = 0, a node with an active edge
    takes exactly its edge's propagated row: W restricted to those nodes is X.
    """

    def test_empty_matrix_gives_zeros(self):
        op = one_edge_per_node(empty_sep(3), 3)
        propagated = op.w - sp.diags(op.node_weight)
        assert propagated.count_nonzero() == 0
        np.testing.assert_array_equal(op.node_weight, np.ones(6))

    def test_unit_pair_swaps_rows(self):
        sep = SepMatrix(
            2, np.array([0]), np.array([1]), np.array([1.0]), "sym_degree"
        )
        table = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        out = one_edge_per_node(sep, 2, 0.0, 0.0).update(table)
        np.testing.assert_array_equal(out, [[3.0, 4.0], [1.0, 2.0], [7.0, 8.0], [5.0, 6.0]])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(163)
        _, _, index, sep = make_instance(rng, n_edges=50)
        n = index.n_edges
        op = one_edge_per_node(sep, n, 0.0, 0.0)
        table = rng.normal(size=(2 * n, 8))
        active = sep.active_edges()
        x = sep.to_csr().toarray()
        out = op.update(table)
        for half in (slice(0, n), slice(n, 2 * n)):
            expect = np.where(active[:, None], x @ table[half], table[half])
            np.testing.assert_allclose(out[half], expect, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="edges"):
            one_edge_per_node(empty_sep(3), 4)


def sep_update(graph, index, sep, table, alpha, beta):
    return SepOperator(sep, index, graph.n_users, graph.n_items, alpha, beta).update(table)


def propagated_rows(index, sep, table, n_users):
    """Edge rows user‖item, propagated over the dense edge-pair matrix."""
    rows = np.concatenate([table[index.users], table[n_users + index.items]], axis=1)
    return sep.to_csr().toarray() @ rows


class TestUpdateFromSep:
    """SepOperator.update: the blend of each node with its active edges' mean."""

    def test_weights_one_change_nothing(self):
        rng = np.random.default_rng(167)
        ds, graph, index, sep = make_instance(rng)
        table = rng.normal(size=(graph.n_nodes, 4))
        out = sep_update(graph, index, sep, table, 1.0, 1.0)
        np.testing.assert_array_equal(out, table)

    def test_alpha_zero_single_edge_copies_segment(self):
        """Each node has one active edge, so alpha = beta = 0 copies its segments."""
        index = EdgeIndex(
            users=np.array([0, 1]), items=np.array([0, 1]),
            lat=np.zeros(2), lon=np.zeros(2), slot_ptr=np.arange(3), slot_vals=np.zeros(2, np.int64),
        )
        sep = SepMatrix(
            2, np.array([0]), np.array([1]), np.array([1.0]), "sym_degree"
        )
        op = SepOperator(sep, index, 2, 2, 0.0, 0.0)
        # edge 0 = (user 0, item 0) and edge 1 = (user 1, item 1) swap rows
        table = np.array([[1.0, 2.0], [5.0, 6.0], [3.0, 4.0], [7.0, 8.0]])
        out = op.update(table)
        np.testing.assert_array_equal(out, [[5.0, 6.0], [1.0, 2.0], [7.0, 8.0], [3.0, 4.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(173)
        for _ in range(5):
            ds, graph, index, sep = make_instance(rng)
            table = rng.normal(size=(graph.n_nodes, 4))
            got = sep_update(graph, index, sep, table, 0.3, 0.6)
            expect = update_oracle(
                table, propagated_rows(index, sep, table, graph.n_users),
                index.users, index.items, graph.n_users, 0.3, 0.6, sep.active_edges(),
            )
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_nodes_without_active_edges_are_untouched(self):
        rng = np.random.default_rng(179)
        ds, graph, index, sep = make_instance(rng)
        active = sep.active_edges()
        table = rng.normal(size=(graph.n_nodes, 4))
        out = sep_update(graph, index, sep, table, 0.2, 0.2)
        live_users = set(index.users[active])
        live_items = set(index.items[active])
        for u in range(graph.n_users):
            if u not in live_users:
                np.testing.assert_array_equal(out[u], table[u])
        for i in range(graph.n_items):
            if i not in live_items:
                np.testing.assert_array_equal(out[graph.n_users + i], table[graph.n_users + i])


class TestNodeSpaceOperator:
    """W and its transpose against the edge-space reference above."""

    def instances(self, seed, count=6):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            ds, graph, index, sep = make_instance(
                rng, n_users=int(rng.integers(5, 20)), n_items=int(rng.integers(5, 25)),
                n_edges=int(rng.integers(20, 80)),
            )
            alpha, beta = rng.uniform(0.0, 1.0, size=2)
            op = SepOperator(sep, index, graph.n_users, graph.n_items, alpha, beta)
            yield rng, graph, index, sep, op

    def test_update_matches_edge_space_reference(self):
        for rng, graph, _, _, op in self.instances(401):
            table = rng.normal(size=(graph.n_nodes, 6))
            np.testing.assert_allclose(op.update(table), edge_space_step(op, table), rtol=0, atol=1e-12)

    def test_adjoint_matches_edge_space_reference(self):
        for rng, graph, _, _, op in self.instances(409):
            grad = rng.normal(size=(graph.n_nodes, 6))
            np.testing.assert_allclose(
                op.update_adjoint(grad), edge_space_adjoint(op, grad), rtol=0, atol=1e-12
            )

    def test_adjoint_identity(self):
        for rng, graph, _, _, op in self.instances(419):
            a = rng.normal(size=(graph.n_nodes, 5))
            b = rng.normal(size=(graph.n_nodes, 5))
            lhs = np.sum(op.update(a) * b)
            rhs = np.sum(a * op.update_adjoint(b))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("mode", ["every_layer", "once"])
    def test_forward_matches_edge_space_reference(self, mode):
        for rng, graph, index, sep, op in self.instances(421, count=4):
            cfg = ModelConfig(
                dim=5, layers=3, alpha_user=op.alpha_user, beta_item=op.beta_item,
                sep_update=mode, seed=int(rng.integers(1000)),
            )
            e0 = init_embeddings(cfg, graph.n_nodes)
            state = forward(cfg, graph, sep, index, e0, operator=op)
            np.testing.assert_allclose(
                state.e_star, edge_space_forward(cfg, graph, op, e0), rtol=0, atol=1e-12
            )

    def test_retain_all_is_the_identity(self):
        for rng, graph, index, sep, _ in self.instances(431, count=3):
            op = SepOperator(sep, index, graph.n_users, graph.n_items, 1.0, 1.0)
            table = rng.normal(size=(graph.n_nodes, 4))
            np.testing.assert_array_equal(op.update(table), table)
            np.testing.assert_array_equal(op.update_adjoint(table), table)

    def test_empty_matrix_is_the_identity(self):
        for rng, graph, index, _, _ in self.instances(433, count=3):
            op = SepOperator(empty_sep(index.n_edges), index, graph.n_users, graph.n_items, 0.3, 0.6)
            table = rng.normal(size=(graph.n_nodes, 4))
            np.testing.assert_array_equal(op.update(table), table)
            np.testing.assert_array_equal(op.update_adjoint(table), table)

    def test_isolated_edges_leave_their_nodes_exact(self):
        """Only edges 0 and 1 link; every node off those two keeps its row exactly."""
        rng = np.random.default_rng(439)
        _, graph, index, _ = make_instance(rng)
        sep = SepMatrix(
            index.n_edges, np.array([0]), np.array([1]), np.array([1.0]), "sym_degree"
        )
        op = SepOperator(sep, index, graph.n_users, graph.n_items, 0.3, 0.6)
        live = np.zeros(graph.n_nodes, dtype=bool)
        live[index.users[:2]] = True
        live[graph.n_users + index.items[:2]] = True
        table = rng.normal(size=(graph.n_nodes, 4))
        for out in (op.update(table), op.update_adjoint(table)):
            np.testing.assert_array_equal(out[~live], table[~live])
            assert not np.array_equal(out[live], table[live])
        np.testing.assert_allclose(op.update(table), edge_space_step(op, table), rtol=0, atol=1e-12)


class TestForward:
    def test_sep_disabled_equals_dense_lightgcn(self):
        rng = np.random.default_rng(181)
        ds, graph, index, sep = make_instance(rng, n_users=12, n_items=15, n_edges=40)
        cfg = ModelConfig(dim=6, layers=3, sep_enabled=False, seed=3)
        e0 = init_embeddings(cfg, graph.n_nodes)
        state = forward(cfg, graph, None, None, e0)
        expect = dense_lightgcn_oracle(interaction_matrix(ds, "train").toarray(), e0, 3)
        np.testing.assert_allclose(state.e_star, expect, atol=1e-10)

    def test_unit_weights_equal_dense_lightgcn(self):
        rng = np.random.default_rng(191)
        ds, graph, index, sep = make_instance(rng)
        cfg = ModelConfig(dim=4, layers=2, alpha_user=1.0, beta_item=1.0, seed=5)
        e0 = init_embeddings(cfg, graph.n_nodes)
        state = forward(cfg, graph, sep, index, e0)
        expect = dense_lightgcn_oracle(interaction_matrix(ds, "train").toarray(), e0, 2)
        np.testing.assert_allclose(state.e_star, expect, atol=1e-10)

    def test_empty_sep_matrix_equals_dense_lightgcn(self):
        rng = np.random.default_rng(193)
        ds, graph, index, _ = make_instance(rng)
        empty = SepMatrix(
            index.n_edges, np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), "sym_degree"
        )
        cfg = ModelConfig(dim=4, layers=3, alpha_user=0.3, beta_item=0.3, seed=7)
        e0 = init_embeddings(cfg, graph.n_nodes)
        state = forward(cfg, graph, empty, index, e0)
        expect = dense_lightgcn_oracle(interaction_matrix(ds, "train").toarray(), e0, 3)
        np.testing.assert_allclose(state.e_star, expect, atol=1e-10)

    def test_matches_dense_end_to_end_oracle(self):
        rng = np.random.default_rng(197)
        for _ in range(3):
            ds, graph, index, sep = make_instance(rng)
            cfg = ModelConfig(dim=5, layers=3, alpha_user=0.4, beta_item=0.7, seed=9)
            e0 = init_embeddings(cfg, graph.n_nodes)
            state = forward(cfg, graph, sep, index, e0)
            np.testing.assert_allclose(state.e_star, dense_forward_oracle(ds, cfg, e0, sep), atol=1e-10)

    def test_once_mode_updates_only_the_first_layer(self):
        rng = np.random.default_rng(199)
        ds, graph, index, sep = make_instance(rng)
        cfg = ModelConfig(dim=4, layers=3, sep_update="once", seed=2)
        e0 = init_embeddings(cfg, graph.n_nodes)
        state = forward(cfg, graph, sep, index, e0)
        np.testing.assert_allclose(state.e_star, dense_forward_oracle(ds, cfg, e0, sep), atol=1e-10)
        every = forward(cfg=ModelConfig(dim=4, layers=3, seed=2), graph=graph, sep=sep, index=index, e0=e0)
        assert not np.allclose(state.e_star, every.e_star)

    def test_linear_in_the_initial_table(self):
        rng = np.random.default_rng(211)
        ds, graph, index, sep = make_instance(rng)
        cfg = ModelConfig(dim=4, layers=3, seed=4)
        e0 = init_embeddings(cfg, graph.n_nodes)
        a = forward(cfg, graph, sep, index, 3.5 * e0)
        b = forward(cfg, graph, sep, index, e0)
        np.testing.assert_allclose(a.e_star, 3.5 * b.e_star, atol=1e-10)

    def test_final_table_is_the_exact_layer_mean(self):
        rng = np.random.default_rng(223)
        ds, graph, index, sep = make_instance(rng)
        cfg = ModelConfig(dim=4, layers=3, seed=6)
        e0 = init_embeddings(cfg, graph.n_nodes)
        state = forward(cfg, graph, sep, index, e0)
        stack = [state.e0] + state.layers
        np.testing.assert_array_equal(state.e_star, sum(stack) / len(stack))
        assert len(state.layers) == 3

    def test_shape_and_nan_guards(self):
        rng = np.random.default_rng(227)
        ds, graph, index, sep = make_instance(rng)
        cfg = ModelConfig(dim=4, layers=2, seed=1)
        with pytest.raises(ConfigError, match="embedding table"):
            forward(cfg, graph, sep, index, np.zeros((3, 4)))
        bad = np.zeros((graph.n_nodes, 4))
        bad[0, 0] = np.nan
        with pytest.raises(NumericalError, match="initialization"):
            forward(cfg, graph, sep, index, bad)

    def test_overflowing_layer_mean_raises(self):
        """One edge: propagation swaps the two rows, so every layer stays at
        1e308 and only the sum of the four tables overflows."""
        ds = Dataset(["u"], ["p"], Interactions.from_rows([(0, 0, (0,), "train")]),
                     np.zeros(1), np.zeros(1), SplitConfig())
        cfg = ModelConfig(dim=2, layers=3, sep_enabled=False)
        with pytest.raises(NumericalError, match="after the layer mean"):
            forward(cfg, build_adjacency(ds), None, None, np.full((2, 2), 1e308))

    def test_sep_requires_components(self):
        rng = np.random.default_rng(229)
        ds, graph, index, sep = make_instance(rng)
        cfg = ModelConfig(dim=4, layers=2)
        with pytest.raises(ConfigError, match="sep_enabled"):
            forward(cfg, graph, None, None, np.zeros((graph.n_nodes, 4)))

    def test_raw_matrix_is_rejected(self):
        rng = np.random.default_rng(233)
        ds, graph, index, _ = make_instance(rng)
        raw = build_sep_matrix(index, PARAMS, PruningParams())
        cfg = ModelConfig(dim=4, layers=2)
        with pytest.raises(ConfigError, match="normalize"):
            forward(cfg, graph, raw, index, np.zeros((graph.n_nodes, 4)))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(241)
        e0 = rng.normal(size=(12, 5))
        path = tmp_path / "model.ckpt"
        save_checkpoint(e0, {"variant": "sepgcn", "layers": 3}, path)
        back, meta = load_checkpoint(path)
        np.testing.assert_array_equal(back, e0)
        assert meta["variant"] == "sepgcn"
        assert (meta["n_nodes"], meta["dim"]) == (12, 5)

    def test_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOTCKPT0\n{}\n")
        with pytest.raises(InputDataError, match="magic"):
            load_checkpoint(path)
        good = tmp_path / "y.ckpt"
        save_checkpoint(np.zeros((4, 2)), {}, good)
        good.write_bytes(good.read_bytes()[:-8])
        with pytest.raises(InputDataError, match="bytes"):
            load_checkpoint(good)
        with pytest.raises(InputDataError, match="not found"):
            load_checkpoint(tmp_path / "missing.ckpt")

    @pytest.mark.parametrize(
        "header, match",
        [
            (b"not json", "not JSON"),
            (b"{}", "n_nodes"),
            (b"[12, 5]", "JSON object"),
            (b'{"n_nodes": 0, "dim": 5}', "n_nodes"),
            (b'{"n_nodes": 12, "dim": -5}', "dim"),
            (b'{"n_nodes": -12, "dim": -5}', "n_nodes"),
            (b'{"n_nodes": 12.0, "dim": 5}', "n_nodes"),
            (b'{"n_nodes": 12, "dim": true}', "dim"),
        ],
    )
    def test_header_is_checked(self, tmp_path, header, match):
        path = tmp_path / "x.ckpt"
        save_checkpoint(np.zeros((12, 5)), {}, path)
        magic, _, payload = path.read_bytes().split(b"\n", 2)
        path.write_bytes(magic + b"\n" + header + b"\n" + payload)
        with pytest.raises(InputDataError, match=match):
            load_checkpoint(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        e0 = np.zeros((3, 2))
        e0[1, 1] = np.inf
        path = tmp_path / "x.ckpt"
        save_checkpoint(e0, {}, path)
        with pytest.raises(InputDataError, match="non-finite"):
            load_checkpoint(path)

    def test_mutated_headers_load_or_raise_input_error(self, tmp_path, mutate):
        rng = np.random.default_rng(251)
        path = tmp_path / "good.ckpt"
        save_checkpoint(rng.normal(size=(12, 5)), {"variant": "sepgcn", "layers": 3}, path)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        head = [magic.decode(), header.decode()]
        outcomes = Counter()
        for _ in range(300):
            bad = tmp_path / "bad.ckpt"
            bad.write_bytes("\n".join(mutate(head, rng)).encode() + b"\n" + payload)
            try:
                e0, meta = load_checkpoint(bad)
            except InputDataError:
                outcomes["rejected"] += 1
                continue
            outcomes["loaded"] += 1
            assert e0.shape == (meta["n_nodes"], meta["dim"])
            assert np.all(np.isfinite(e0))
        assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0
