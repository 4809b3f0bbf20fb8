"""Trainer tests: analytic gradients vs central finite differences, sampler
statistics, optimizer algebra, and checkpoint/early-stop behavior."""
from __future__ import annotations

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import expit

from sepgcn import training
from sepgcn.cli import main
from sepgcn.config import ModelConfig, PruningParams, SimilarityParams, SplitConfig, TrainConfig
from sepgcn.data import Dataset
from sepgcn.errors import ConfigError, InputDataError, NumericalError
from sepgcn.graph import build_adjacency
from sepgcn.model import build_operator, forward, init_embeddings
from sepgcn.sep_graph import EdgeIndex, build_sep_matrix, normalize_sep
from sepgcn.training import (
    AdamOptimizer,
    SgdOptimizer,
    TripletBatch,
    TripletSampler,
    expit_minus_one,
    loss_gradient,
    make_optimizer,
    ranking_grad_estar,
    train,
    write_training_log,
)

import peak_rss
from reference import adam_step, bpr_loss, interactions, train_with_copies

PARAMS = SimilarityParams(alpha_sim=0.5, median_km=2.0)


def make_dataset(n_users, n_items, pairs, slots=None):
    inter = interactions(
        (u, i, slots[k] if slots else (k % 168,), "train") for k, (u, i) in enumerate(pairs)
    )
    rng = np.random.default_rng(99)
    return Dataset(
        user_ids=[f"u{k}" for k in range(n_users)],
        item_ids=[f"p{k}" for k in range(n_items)],
        interactions=inter,
        item_lat=rng.uniform(40.0, 40.05, n_items),
        item_lon=rng.uniform(-74.0, -73.95, n_items),
        split=SplitConfig(),
    )


def make_instance(rng, n_users=10, n_items=10, n_edges=30, slot_pool=6):
    """Dataset + graph + operator ingredients, mirroring the model tests."""
    pairs = sorted({(int(rng.integers(n_users)), int(rng.integers(n_items))) for _ in range(n_edges)})
    slots = [tuple(sorted(rng.choice(slot_pool, size=2, replace=False))) for _ in pairs]
    ds = make_dataset(n_users, n_items, pairs, slots)
    graph = build_adjacency(ds)
    index = EdgeIndex.from_dataset(ds)
    sep = normalize_sep(build_sep_matrix(index, PARAMS, PruningParams()))
    return ds, graph, index, sep


def random_batch(rng, n_users, n_items, size):
    return TripletBatch(
        users=rng.integers(0, n_users, size=size),
        positives=rng.integers(0, n_items, size=size),
        negatives=rng.integers(0, n_items, size=size),
    )


def total_loss(e0, batch, cfg, graph, operator, lam):
    """Loss recomputed from scratch; the FD oracle differentiates this."""
    e_star = forward(cfg, graph, None, None, e0, operator=operator).e_star
    n = graph.n_users
    pos = np.einsum("ij,ij->i", e_star[batch.users], e_star[n + batch.positives])
    neg = np.einsum("ij,ij->i", e_star[batch.users], e_star[n + batch.negatives])
    return bpr_loss(pos, neg, e0, lam)


def fd_gradient(fn, e0, h=1e-5):
    """Central finite differences, one coordinate at a time."""
    grad = np.zeros_like(e0)
    for idx in np.ndindex(*e0.shape):
        bumped = e0.copy()
        bumped[idx] += h
        up = fn(bumped)
        bumped[idx] -= 2 * h
        down = fn(bumped)
        grad[idx] = (up - down) / (2 * h)
    return grad


def assert_gradients_close(analytic, numeric, rtol=1e-4):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    worst = float(np.max(np.abs(analytic - numeric) / scale))
    assert worst <= rtol, f"worst relative gradient error {worst:.3e}"


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": 0.0},
            {"lr": -1.0},
            {"l2_lambda": -1e-9},
            {"epochs_max": -1},
            {"batch_size": 0},
            {"neg_per_pos": 0},
            {"eval_every": -1},
            {"early_stop_patience": 0},
            {"optimizer": "adagrad"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs).validate()


def train_pairs(dataset):
    """(user, item) of each train interaction, in edge order."""
    edges = dataset.interactions
    return list(zip(edges.users[~edges.is_test].tolist(), edges.items[~edges.is_test].tolist()))


def set_sample(dataset, batch_size, rng, neg_per_pos=1):
    """Reference sampler: a set of train items per user and per-triple set lookups."""
    item_sets = {}
    for u, i in train_pairs(dataset):
        item_sets.setdefault(u, set()).add(i)
    kept = [(u, i) for u, i in train_pairs(dataset) if len(item_sets[u]) < dataset.n_items]
    idx = rng.integers(0, len(kept), size=batch_size)
    users = np.repeat([kept[j][0] for j in idx], neg_per_pos)
    positives = np.repeat([kept[j][1] for j in idx], neg_per_pos)
    negatives = rng.integers(0, dataset.n_items, size=len(users))
    pending = [k for k in range(len(users)) if int(negatives[k]) in item_sets[int(users[k])]]
    while pending:
        negatives[pending] = rng.integers(0, dataset.n_items, size=len(pending))
        pending = [k for k in pending if int(negatives[k]) in item_sets[int(users[k])]]
    return users, positives, negatives


class TestSampler:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_set_based_reference(self, seed):
        """Same triples as the set-based sampler, draw for draw, over consecutive batches.

        User 0 holds every item (saturated, never sampled) and the others
        hold most of them, so many negatives are redrawn several times.
        """
        rng = np.random.default_rng(seed)
        n_items = 7
        pairs = [(0, i) for i in range(n_items)]
        for u in range(1, 6):
            pairs += [(u, int(i)) for i in rng.choice(n_items, size=rng.integers(1, n_items), replace=False)]
        rng.shuffle(pairs)
        ds = make_dataset(6, n_items, [tuple(p) for p in pairs])
        sampler = TripletSampler(ds)
        ours, ref = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
        for neg_per_pos in (1, 3, 1):
            batch = sampler.sample(200, ours, neg_per_pos)
            users, positives, negatives = set_sample(ds, 200, ref, neg_per_pos)
            assert np.array_equal(batch.users, users)
            assert np.array_equal(batch.positives, positives)
            assert np.array_equal(batch.negatives, negatives)
        assert not np.any(batch.users == 0)

    def test_forced_negative(self):
        ds = make_dataset(1, 2, [(0, 0)])
        batch = TripletSampler(ds).sample(50, np.random.default_rng(0))
        assert np.all(batch.users == 0)
        assert np.all(batch.positives == 0)
        assert np.all(batch.negatives == 1)

    def test_triples_respect_train_sets(self):
        ds, _, _, _ = make_instance(np.random.default_rng(3), n_edges=40)
        sampler = TripletSampler(ds)
        seen = {}
        for u, i in train_pairs(ds):
            seen.setdefault(u, set()).add(i)
        batch = sampler.sample(500, np.random.default_rng(1))
        for u, p, n in zip(batch.users, batch.positives, batch.negatives):
            assert int(p) in seen[int(u)]
            assert int(n) not in seen[int(u)]

    def test_deterministic(self):
        ds, _, _, _ = make_instance(np.random.default_rng(4))
        a = TripletSampler(ds).sample(64, np.random.default_rng(7))
        b = TripletSampler(ds).sample(64, np.random.default_rng(7))
        assert np.array_equal(a.users, b.users)
        assert np.array_equal(a.positives, b.positives)
        assert np.array_equal(a.negatives, b.negatives)

    def test_negatives_uniform_over_complement(self):
        ds = make_dataset(1, 41, [(0, 0)])
        batch = TripletSampler(ds).sample(40_000, np.random.default_rng(11))
        counts = np.bincount(batch.negatives, minlength=41)
        assert counts[0] == 0
        expected = 40_000 / 40
        sigma = math.sqrt(40_000 * (1 / 40) * (39 / 40))
        assert np.all(np.abs(counts[1:] - expected) < 3.5 * sigma)

    def test_neg_per_pos_repeats_anchor(self):
        ds, _, _, _ = make_instance(np.random.default_rng(5))
        batch = TripletSampler(ds).sample(16, np.random.default_rng(2), neg_per_pos=3)
        assert len(batch) == 48
        assert np.array_equal(batch.users[0:3], np.repeat(batch.users[0], 3))
        assert np.array_equal(batch.positives[3:6], np.repeat(batch.positives[3], 3))

    def test_saturated_user_skipped_with_warning(self, caplog):
        pairs = [(0, 0), (0, 1), (0, 2), (1, 0)]
        ds = make_dataset(2, 3, pairs)
        with caplog.at_level("WARNING", logger="sepgcn.training"):
            sampler = TripletSampler(ds)
        assert "every item" in caplog.text
        batch = sampler.sample(100, np.random.default_rng(0))
        assert np.all(batch.users == 1)

    def test_all_saturated_raises(self):
        ds = make_dataset(1, 2, [(0, 0), (0, 1)])
        with pytest.raises(InputDataError):
            TripletSampler(ds)

    def test_no_train_edges_raises(self):
        ds = make_dataset(1, 2, [(0, 0)])
        ds.interactions = interactions([(0, 0, (0,), "test")])
        with pytest.raises(InputDataError):
            TripletSampler(ds)


class TestBprLoss:
    def test_equal_scores_give_ln2_each(self):
        e0 = np.zeros((4, 2))
        s = np.array([0.3, -1.2, 5.0])
        assert bpr_loss(s, s, e0, 0.0) == pytest.approx(3 * math.log(2), rel=1e-12)

    def test_large_margin_vanishes(self):
        e0 = np.full((3, 2), 0.5)
        loss = bpr_loss(np.array([50.0]), np.array([0.0]), e0, 1e-3)
        assert loss == pytest.approx(1e-3 * np.sum(e0 * e0), abs=1e-9)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(8)
        pos = rng.normal(size=30)
        neg = rng.normal(size=30)
        e0 = rng.normal(size=(6, 3))
        with mp.workdps(50):
            oracle = sum(mp.log(1 + mp.e ** (mp.mpf(n) - mp.mpf(p))) for p, n in zip(pos, neg))
            oracle += mp.mpf("1e-4") * sum(mp.mpf(v) ** 2 for v in e0.ravel())
        got = bpr_loss(pos, neg, e0, 1e-4)
        assert got == pytest.approx(float(oracle), rel=1e-10)


class TestOptimizers:
    def test_sgd_step_exact(self):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(5, 3))
        grad = rng.normal(size=(5, 3))
        expected = table - 0.01 * grad
        assert np.array_equal(SgdOptimizer(0.01).step(table, grad), expected)

    def test_adam_first_step_closed_form(self):
        rng = np.random.default_rng(1)
        table = rng.normal(size=(4, 2))
        grad = rng.normal(size=(4, 2))
        expected = table - 0.002 * grad / (np.abs(grad) + 1e-8)
        out = AdamOptimizer(0.002).step(table, grad)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_adam_matches_reference_loop(self):
        """Bit for bit; the table starts at zero, so it holds the sum of the
        steps and a rounding change in any step shows. The reference steps
        first, since the step writes its result over g."""
        rng = np.random.default_rng(2)
        table = np.zeros((6, 8))
        grads = [rng.normal(size=(6, 8)) for _ in range(6)]
        opt = AdamOptimizer(0.01)
        ref, m, v = table.copy(), np.zeros_like(table), np.zeros_like(table)
        for t, g in enumerate(grads, start=1):
            ref, m, v = adam_step(ref, g, m, v, t, 0.01)
            table = opt.step(table, g)
            assert np.array_equal(table, ref)

    @pytest.mark.parametrize("name", ["adam", "sgd"])
    def test_row_blocks_step_like_whole_arrays_into_the_gradient(self, monkeypatch, name):
        """A 1,001-row table in blocks of 64 rows, the last one ragged: each
        step equals the whole-array reference bit for bit, writes its result
        over the gradient and leaves its input table as it was."""
        monkeypatch.setattr(training, "STEP_BLOCK_BYTES", 64 * 8 * 5)
        rng = np.random.default_rng(3)
        table = rng.normal(size=(1001, 5))
        opt = make_optimizer(TrainConfig(optimizer=name, lr=0.01))
        m, v = np.zeros_like(table), np.zeros_like(table)
        for t in range(1, 5):
            grad = rng.normal(size=table.shape) * 10.0 ** rng.uniform(-3, 3, (1001, 1))
            if name == "adam":
                expected, m, v = adam_step(table, grad, m, v, t, 0.01)
            else:
                expected = table - 0.01 * grad
            before = table.copy()
            stepped = opt.step(table, grad)
            assert stepped is grad
            assert np.array_equal(stepped, expected)
            assert np.array_equal(table, before)
            table = stepped
        if name == "adam":
            assert len(opt.scratch) == 64

    def test_factory(self):
        assert isinstance(make_optimizer(TrainConfig(optimizer="adam")), AdamOptimizer)
        assert isinstance(make_optimizer(TrainConfig(optimizer="sgd")), SgdOptimizer)


class TestGradient:
    def check_instance(self, cfg, lam, n_users=8, n_items=8, n_edges=24, triples=12, seed=0):
        rng = np.random.default_rng(seed)
        _, graph, index, sep = make_instance(rng, n_users, n_items, n_edges)
        operator = build_operator(cfg, graph, sep, index)
        e0 = init_embeddings(cfg, graph.n_nodes)
        batch = random_batch(rng, n_users, n_items, triples)
        analytic, loss = loss_gradient(e0, batch, cfg, graph, operator, lam)
        assert loss == pytest.approx(total_loss(e0, batch, cfg, graph, operator, lam), rel=1e-12)
        numeric = fd_gradient(lambda t: total_loss(t, batch, cfg, graph, operator, lam), e0)
        assert_gradients_close(analytic, numeric)

    def test_plain_propagation(self):
        self.check_instance(ModelConfig(dim=3, layers=2, sep_enabled=False, seed=5), lam=0.0)

    def test_with_edge_update_every_layer(self):
        cfg = ModelConfig(dim=4, layers=3, alpha_user=0.4, beta_item=0.7, seed=6)
        self.check_instance(cfg, lam=0.0, n_users=20, n_items=20, n_edges=60, triples=30, seed=1)

    def test_with_edge_update_first_layer_only(self):
        cfg = ModelConfig(dim=3, layers=3, sep_update="once", alpha_user=0.2, seed=7)
        self.check_instance(cfg, lam=0.0, seed=2)

    def test_with_regularization(self):
        cfg = ModelConfig(dim=3, layers=2, seed=8)
        self.check_instance(cfg, lam=1e-3, seed=3)

    def test_duplicate_triples_accumulate(self):
        cfg = ModelConfig(dim=3, layers=2, sep_enabled=False, seed=9)
        rng = np.random.default_rng(4)
        _, graph, _, _ = make_instance(rng)
        e0 = init_embeddings(cfg, graph.n_nodes)
        batch = TripletBatch(
            users=np.array([2, 2, 2, 5]),
            positives=np.array([1, 1, 1, 0]),
            negatives=np.array([4, 4, 4, 3]),
        )
        analytic, _ = loss_gradient(e0, batch, cfg, graph, None, 0.0)
        numeric = fd_gradient(lambda t: total_loss(t, batch, cfg, graph, None, 0.0), e0)
        assert_gradients_close(analytic, numeric)

    def test_sgd_step_descends(self):
        cfg = ModelConfig(dim=4, layers=2, seed=10)
        rng = np.random.default_rng(5)
        _, graph, index, sep = make_instance(rng)
        operator = build_operator(cfg, graph, sep, index)
        e0 = init_embeddings(cfg, graph.n_nodes)
        batch = random_batch(rng, graph.n_users, graph.n_items, 16)
        grad, before = loss_gradient(e0, batch, cfg, graph, operator, 1e-4)
        lr = 1e-4
        after = total_loss(e0 - lr * grad, batch, cfg, graph, operator, 1e-4)
        drop = before - after
        predicted = lr * float(np.sum(grad * grad))
        assert 0.9 < drop / predicted < 1.1

    def test_empty_batch_leaves_regularizer_only(self):
        cfg = ModelConfig(dim=3, layers=2, sep_enabled=False, seed=11)
        rng = np.random.default_rng(6)
        _, graph, _, _ = make_instance(rng)
        e0 = init_embeddings(cfg, graph.n_nodes)
        empty = TripletBatch(np.zeros(0, int), np.zeros(0, int), np.zeros(0, int))
        lam = 1e-2
        grad, loss = loss_gradient(e0, empty, cfg, graph, None, lam)
        np.testing.assert_allclose(grad, 2 * lam * e0, rtol=1e-12)
        assert loss == pytest.approx(lam * float(np.sum(e0 * e0)), rel=1e-12)
        opt = SgdOptimizer(0.5)
        norms = [float(np.linalg.norm(e0))]
        for _ in range(10):
            grad, _ = loss_gradient(e0, empty, cfg, graph, None, lam)
            e0 = opt.step(e0, grad)
            norms.append(float(np.linalg.norm(e0)))
        assert all(b < a for a, b in zip(norms, norms[1:]))


def add_at_gradient(e_star, n_users, batch):
    """The ranking-loss gradient scattered with sequential np.add.at calls."""
    su = e_star[batch.users]
    diff = e_star[n_users + batch.positives] - e_star[n_users + batch.negatives]
    g = expit(np.einsum("ij,ij->i", su, diff)) - 1.0
    grad = np.zeros_like(e_star)
    np.add.at(grad, batch.users, g[:, None] * diff)
    np.add.at(grad, n_users + batch.positives, g[:, None] * su)
    np.add.at(grad, n_users + batch.negatives, -(g[:, None] * su))
    return grad


class TestExpitMinusOne:
    """The ranking gradient's logistic, against scipy.special.expit as the oracle."""

    EDGES = [np.inf, np.nan, 0.0, 709.0, 709.78, 710.0, 745.0, 746.0, 5e-324, 1e308]

    @staticmethod
    def assert_same_bits(s):
        with np.errstate(all="ignore"):
            want = expit(s) - 1.0
        got = expit_minus_one(s)
        assert got.dtype == np.float64 and got.shape == s.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_normal_draws_at_every_scale(self):
        """10^6 draws in all, at 20 scales from 1e-3 to 800."""
        rng = np.random.default_rng(21)
        for scale in np.geomspace(1e-3, 800.0, 20):
            self.assert_same_bits(rng.normal(size=50_000) * scale)

    def test_edge_values(self):
        edges = np.array(self.EDGES)
        self.assert_same_bits(np.concatenate([edges, -edges]))


class TestRankingGradScatter:
    """The one-product scatter sums in np.add.at's order, so it matches bit for bit."""

    def test_score_gaps_beyond_709(self):
        """One user row of ones scores each triple's gap as the difference of two
        item rows' sums; the items sit on both sides of ±709, ±710 and ±746."""
        values = np.array([0.0, 354.6, 354.8, 355.0, 373.0, 600.0, -0.5, -354.6, -355.0, -400.0])
        e_star = np.vstack([np.ones((1, 2)), np.repeat(values[:, None], 2, axis=1)])
        rng = np.random.default_rng(5)
        batch = random_batch(rng, 1, len(values), 400)
        gaps = 2 * (values[batch.positives] - values[batch.negatives])
        assert gaps.max() > 746 and gaps.min() < -746
        assert (np.abs(gaps) > 709).sum() > 50 and (np.abs(gaps) < 709).sum() > 50
        grad, _ = ranking_grad_estar(e_star, 1, batch)
        assert np.array_equal(grad, add_at_gradient(e_star, 1, batch))

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_heavy_batches(self, seed):
        rng = np.random.default_rng(seed)
        n_users, n_items = 3, 4
        e_star = rng.normal(size=(n_users + n_items, 5)) * 10.0 ** rng.uniform(-3, 3, (7, 1))
        batch = random_batch(rng, n_users, n_items, 300)
        grad, _ = ranking_grad_estar(e_star, n_users, batch)
        assert np.array_equal(grad, add_at_gradient(e_star, n_users, batch))

    def test_user_id_that_is_also_an_item_id(self):
        """User 1 and item 1 are rows 1 and n_users + 1, never the same row."""
        rng = np.random.default_rng(9)
        e_star = rng.normal(size=(2 + 3, 4))
        batch = TripletBatch(np.array([1, 1, 0, 1]), np.array([1, 0, 1, 1]), np.array([2, 1, 2, 0]))
        grad, _ = ranking_grad_estar(e_star, 2, batch)
        assert np.array_equal(grad, add_at_gradient(e_star, 2, batch))
        assert grad[1].any() and grad[2 + 1].any()

    def test_working_memory_is_the_gathered_table(self):
        """B = 8192 triples, d = 32, 9,000 nodes: the terms are built inside the
        gathered (3B x d) table (6 MB), so with the 2.2 MB gradient the peak
        stays under 12 MB."""
        rng = np.random.default_rng(11)
        e_star = rng.normal(size=(9000, 32))
        batch = random_batch(rng, 3000, 6000, 8192)
        tracemalloc.start()
        try:
            ranking_grad_estar(e_star, 3000, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_empty_batch(self):
        e_star = np.random.default_rng(10).normal(size=(6, 3))
        empty = TripletBatch(np.zeros(0, int), np.zeros(0, int), np.zeros(0, int))
        grad, loss = ranking_grad_estar(e_star, 2, empty)
        assert np.array_equal(grad, np.zeros_like(e_star))
        assert loss == 0.0


def constant_hook(e_star):
    return {"recall@20": 0.0, "ndcg@20": 0.0}


class TestTrainLoop:
    def test_zero_epochs_returns_initial_table(self):
        ds, graph, index, sep = make_instance(np.random.default_rng(0))
        cfg = ModelConfig(dim=4, layers=2, seed=3)
        result = train(ds, graph, sep, index, cfg, TrainConfig(epochs_max=0), constant_hook)
        assert result.epochs_run == 0
        assert result.log_rows == []
        assert np.array_equal(result.e0, init_embeddings(cfg, graph.n_nodes))

    def test_learns_separable_instance(self):
        ds = make_dataset(2, 2, [(0, 0), (1, 1)])
        graph = build_adjacency(ds)
        cfg = ModelConfig(dim=8, layers=2, sep_enabled=False, seed=1)
        tc = TrainConfig(lr=0.05, l2_lambda=0.0, epochs_max=80, batch_size=8, eval_every=0, seed=2)
        result = train(ds, graph, None, None, cfg, tc, constant_hook)
        assert not result.diverged
        e_star = forward(cfg, graph, None, None, result.e0).e_star
        users, items = e_star[:2], e_star[2:]
        assert users[0] @ items[0] > users[0] @ items[1]
        assert users[1] @ items[1] > users[1] @ items[0]

    def test_best_checkpoint_and_early_stop(self):
        ds, graph, index, sep = make_instance(np.random.default_rng(2), n_edges=40)
        cfg = ModelConfig(dim=4, layers=2, seed=5)
        scripted = iter([0.1, 0.3, 0.2, 0.1, 0.05, 0.0])
        snapshots = []

        def hook(e_star):
            snapshots.append(e_star.copy())
            return {"recall@20": next(scripted), "ndcg@20": 0.0}

        tc = TrainConfig(
            lr=0.01, epochs_max=10, batch_size=16, eval_every=1, early_stop_patience=2, seed=3
        )
        result = train(ds, graph, sep, index, cfg, tc, hook)
        assert result.epochs_run == 4
        assert result.best_epoch == 2
        assert result.best_recall == pytest.approx(0.3)
        operator = build_operator(cfg, graph, sep, index)
        restored = forward(cfg, graph, None, None, result.e0, operator=operator).e_star
        assert np.array_equal(restored, snapshots[1])

    def check_kept_table(self, reason, init_std=0.1, **settings):
        """Training diverges for `reason` and keeps the table that a loop with
        a new array for every table keeps."""
        ds, graph, index, sep = make_instance(np.random.default_rng(3))
        cfg = ModelConfig(dim=4, layers=2, init_std=init_std, seed=6)
        tc = TrainConfig(optimizer="sgd", epochs_max=30, batch_size=8, eval_every=0, seed=4,
                         **settings)
        result = train(ds, graph, sep, index, cfg, tc, constant_hook)
        assert result.diverged
        assert result.divergence_reason == reason
        assert np.isfinite(result.e0).all()
        operator = build_operator(cfg, graph, sep, index)
        assert np.array_equal(result.e0, train_with_copies(ds, graph, operator, cfg, tc))

    def test_divergence_keeps_finite_table(self):
        self.check_kept_table("non-finite gradient at the ranking-loss layer", lr=1e30)

    @pytest.mark.parametrize(
        "init_std, lr, l2",
        [(0.1, 1e308, 1e10),  # the first step overflows
         (1e-12, 1e162, 1.0)],  # the second step overflows
    )
    def test_overflowing_step_keeps_the_last_accepted_input(self, init_std, lr, l2):
        self.check_kept_table(
            "non-finite values after the optimizer step", init_std, lr=lr, l2_lambda=l2
        )

    @pytest.mark.parametrize("failing_call", [1, 3])
    def test_failing_hook_ends_like_a_divergence(self, tmp_path, failing_call):
        """A NumericalError from the ranking hook aborts the run: the log is
        written and the best table, or else the last good one, is kept."""
        ds, graph, index, sep = make_instance(np.random.default_rng(7), n_edges=40)
        cfg = ModelConfig(dim=4, layers=2, seed=12)
        snapshots = []

        def hook(e_star):
            snapshots.append(e_star.copy())
            if len(snapshots) == failing_call:
                raise NumericalError("non-finite values in the ranking scores")
            return {"recall@20": 0.5 - 0.1 * len(snapshots), "ndcg@20": 0.0}

        tc = TrainConfig(lr=0.01, epochs_max=6, batch_size=16, eval_every=1, seed=8)
        path = tmp_path / "train.log"
        result = train(ds, graph, sep, index, cfg, tc, hook, log_path=path)
        assert result.diverged
        assert result.divergence_reason == "non-finite values in the ranking scores"
        assert result.epochs_run == failing_call
        assert [row[0] for row in result.log_rows] == list(range(1, failing_call))
        assert len(path.read_text().splitlines()) == failing_call
        operator = build_operator(cfg, graph, sep, index)
        restored = forward(cfg, graph, None, None, result.e0, operator=operator)
        if failing_call == 1:
            assert np.isfinite(result.e0).all()
            assert not np.array_equal(restored.e_star, snapshots[0])
        else:
            assert result.best_epoch == 1
            assert np.array_equal(restored.e_star, snapshots[0])

    def test_log_rows_and_file(self, tmp_path):
        ds, graph, index, sep = make_instance(np.random.default_rng(4), n_edges=40)
        cfg = ModelConfig(dim=4, layers=2, seed=7)
        tc = TrainConfig(lr=0.01, epochs_max=4, batch_size=16, eval_every=2, seed=5)
        path = tmp_path / "train.log"
        result = train(ds, graph, sep, index, cfg, tc, constant_hook, log_path=path)
        assert [row[0] for row in result.log_rows] == [2, 4]
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch\tloss\trecall@20\tndcg@20\twallclock_s"
        assert len(lines) == 3
        assert all(len(line.split("\t")) == 5 for line in lines)

    def test_same_seed_runs_identical_up_to_wallclock(self):
        def run():
            ds, graph, index, sep = make_instance(np.random.default_rng(5), n_edges=40)
            cfg = ModelConfig(dim=4, layers=2, seed=8)
            tc = TrainConfig(lr=0.01, epochs_max=6, batch_size=16, eval_every=2, seed=6)
            result = train(ds, graph, sep, index, cfg, tc, constant_hook)
            return result

        a, b = run(), run()
        assert np.array_equal(a.e0, b.e0)
        assert [r[:4] for r in a.log_rows] == [r[:4] for r in b.log_rows]

    def test_eval_disabled_returns_final_table(self):
        ds, graph, index, sep = make_instance(np.random.default_rng(6))
        cfg = ModelConfig(dim=4, layers=2, seed=9)
        tc = TrainConfig(lr=0.01, epochs_max=3, batch_size=16, eval_every=0, seed=7)
        result = train(ds, graph, sep, index, cfg, tc, constant_hook)
        assert result.log_rows == []
        assert result.best_epoch == 0
        assert np.isfinite(result.e0).all()


class TestTrainStageMemory:
    """The train stage on a generated 3,000 x 6,000 city with 90,000
    check-ins, as the city3x benchmark trains it: 9,000 node tables of 32
    columns, 2.3 MB each."""

    SETTINGS = ("--seed", "1", "--variant", "lightgcn", "--set", "model.dim=32",
                "--set", "model.layers=3", "--set", "train.batch_size=8192",
                "--set", "train.lr=0.01", "--set", "train.epochs_max=2", "--set", "train.eval_every=1")

    def test_train_stage_peak_over_its_imports(self, tmp_path):
        """Between steps the loop holds e0, the last accepted e0 and Adam's
        two moments; each step's table is made in its gradient's storage. The
        imports alone are subtracted."""
        assert main(["synth", "--out", str(tmp_path / "raw.tsv"), "--seed", "1", "--users", "3000",
                     "--items", "6000", "--checkins", "90000"]) == 0
        assert main(["prepare", "--raw", str(tmp_path / "raw.tsv"),
                     "--out", str(tmp_path / "snap.txt"), *self.SETTINGS]) == 0
        added = peak_rss.peak_over_imports_mb(
            "sepgcn.cli, sepgcn.evaluate, sepgcn.model, sepgcn.training",
            "-m", "sepgcn.cli", "train", "--snapshot", str(tmp_path / "snap.txt"),
            "--out", str(tmp_path / "ck.bin"), *self.SETTINGS,
        )
        assert added <= 42.0
