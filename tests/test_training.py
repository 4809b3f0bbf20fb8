"""Trainer tests: analytic gradients vs central finite differences, sampler
statistics, optimizer algebra, and checkpoint/early-stop behavior."""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import expit

from sepgcn.data import Dataset, Interactions, SplitConfig
from sepgcn.errors import ConfigError, InputDataError
from sepgcn.geo import SimilarityParams
from sepgcn.graph import build_adjacency
from sepgcn.model import ModelConfig, build_operator, forward, init_embeddings
from sepgcn.sep_graph import EdgeIndex, PruningParams, build_sep_matrix, normalize_sep
from sepgcn.training import (
    AdamOptimizer,
    SgdOptimizer,
    TrainConfig,
    TripletBatch,
    TripletSampler,
    bpr_loss,
    grad_step,
    loss_gradient,
    make_optimizer,
    train,
    write_training_log,
)

PARAMS = SimilarityParams(alpha_sim=0.5, median_km=2.0)


def make_dataset(n_users, n_items, pairs, slots=None):
    inter = Interactions.from_rows(
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
        ds.interactions = Interactions.from_rows([(0, 0, (0,), "test")])
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

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            bpr_loss(np.zeros(3), np.zeros(2), np.zeros((2, 2)), 0.0)


class TestOptimizers:
    def test_sgd_step_exact(self):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(5, 3))
        grad = rng.normal(size=(5, 3))
        out = SgdOptimizer(0.01).step(table, grad)
        assert np.array_equal(out, table - 0.01 * grad)

    def test_adam_first_step_closed_form(self):
        rng = np.random.default_rng(1)
        table = rng.normal(size=(4, 2))
        grad = rng.normal(size=(4, 2))
        out = AdamOptimizer(0.002).step(table, grad)
        expected = table - 0.002 * grad / (np.abs(grad) + 1e-8)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_adam_matches_reference_loop(self):
        rng = np.random.default_rng(2)
        table = rng.normal(size=(3, 4))
        grads = [rng.normal(size=(3, 4)) for _ in range(5)]
        opt = AdamOptimizer(0.01)
        ref, m, v = table.copy(), np.zeros_like(table), np.zeros_like(table)
        for t, g in enumerate(grads, start=1):
            table = opt.step(table, g)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref = ref - 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            np.testing.assert_allclose(table, ref, rtol=1e-12)

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
            e0, _ = grad_step(e0, empty, cfg, graph, None, TrainConfig(l2_lambda=lam), opt)
            norms.append(float(np.linalg.norm(e0)))
        assert all(b < a for a, b in zip(norms, norms[1:]))


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

    def test_divergence_keeps_finite_table(self):
        ds, graph, index, sep = make_instance(np.random.default_rng(3))
        cfg = ModelConfig(dim=4, layers=2, seed=6)
        tc = TrainConfig(lr=1e30, optimizer="sgd", epochs_max=30, batch_size=8, eval_every=0, seed=4)
        result = train(ds, graph, sep, index, cfg, tc, constant_hook)
        assert result.diverged
        assert result.divergence_reason
        assert np.isfinite(result.e0).all()

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
