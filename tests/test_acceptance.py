"""Acceptance gate: one test per shipping criterion.

Each test is self-contained, carries its own independent oracle where the
criterion demands one, and enforces the runtime budget it must fit in.
Run with ``pytest tests/test_acceptance.py -v`` to get one verdict line
per criterion.
"""
from __future__ import annotations

import math
import multiprocessing
import os
import time
from collections import Counter
from datetime import datetime, timedelta

import numpy as np
import pytest
import scipy.sparse as sp

from sepgcn.cli import main as cli_main
from sepgcn.config import ModelConfig, PruningParams, SimilarityParams, SplitConfig, TrainConfig
from sepgcn.data import Dataset, build_dataset
from sepgcn.evaluate import evaluate_model
from sepgcn.geo import (
    EARTH_RADIUS_KM,
    haversine_km,
    median_distance,
    sigma,
    to_slot,
)
from sepgcn.graph import build_adjacency
from sepgcn.model import build_operator, forward, init_embeddings
from sepgcn.sep_graph import (
    EdgeIndex,
    SepMatrix,
    build_sep_matrix,
    normalize_sep,
)
from sepgcn.synthetic import SyntheticConfig, generate_city
from sepgcn.training import TripletBatch, loss_gradient, train
from sepgcn.evaluate import make_ranking_hook

from reference import bpr_loss, build_sep_matrix_bruteforce, interactions


def make_dataset(n_users, n_items, pairs, slots, coord_seed=0):
    rng = np.random.default_rng(coord_seed)
    return Dataset(
        user_ids=[f"u{k}" for k in range(n_users)],
        item_ids=[f"p{k}" for k in range(n_items)],
        interactions=interactions(
            (u, i, slots[k], "train") for k, (u, i) in enumerate(pairs)
        ),
        item_lat=rng.uniform(40.0, 40.1, n_items),
        item_lon=rng.uniform(-74.0, -73.9, n_items),
        split=SplitConfig(),
    )


def random_instance(rng, n_users, n_items, n_edges, slot_pool=8):
    pairs = sorted(
        {(int(rng.integers(n_users)), int(rng.integers(n_items))) for _ in range(n_edges)}
    )
    slots = [
        tuple(sorted(rng.choice(slot_pool, size=int(rng.integers(1, 4)), replace=False)))
        for _ in pairs
    ]
    return make_dataset(n_users, n_items, pairs, slots, coord_seed=int(rng.integers(1 << 30)))


# ---------------------------------------------------------------------------
# criterion 1 — plain-backbone reduction


def dense_backbone(ds, e0, layers):
    """Independent dense reference: sym-normalized averaging, layer mean."""
    n, m = ds.n_users, ds.n_items
    adj = np.zeros((n + m, n + m))
    for u, i in zip(ds.interactions.users.tolist(), ds.interactions.items.tolist()):
        adj[u, n + i] = 1.0
        adj[n + i, u] = 1.0
    deg = adj.sum(axis=1)
    with np.errstate(divide="ignore"):
        dinv = 1.0 / np.sqrt(deg)
    dinv[~np.isfinite(dinv)] = 0.0
    a_norm = dinv[:, None] * adj * dinv[None, :]
    acc, e = e0.copy(), e0
    for _ in range(layers):
        e = a_norm @ e
        acc += e
    return acc / (layers + 1)


def test_criterion_1_lightgcn_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ds = random_instance(rng, n_users=50, n_items=80, n_edges=400)
    graph = build_adjacency(ds)
    index = EdgeIndex.from_dataset(ds)
    params = SimilarityParams(alpha_sim=0.5, median_km=3.0)
    sep = normalize_sep(build_sep_matrix(index, params, PruningParams()))
    assert len(sep.values) > 0  # the blended routes must have real pair links

    cfg = ModelConfig(dim=16, layers=3, sep_enabled=False, seed=7)
    e0 = init_embeddings(cfg, graph.n_nodes)
    expected = dense_backbone(ds, e0, cfg.layers)

    # route 1: the edge update switched off
    got = forward(cfg, graph, None, None, e0).e_star
    assert np.max(np.abs(got - expected)) <= 1e-10

    # route 2: the edge update on, but the blend weights keep the node rows
    cfg_blend = ModelConfig(dim=16, layers=3, sep_enabled=True,
                            alpha_user=1.0, beta_item=1.0, seed=7)
    got = forward(cfg_blend, graph, sep, index, e0).e_star
    assert np.max(np.abs(got - expected)) <= 1e-10

    # route 3: the edge update on with an empty pair matrix
    empty = SepMatrix(
        n_edges=index.n_edges,
        rows=np.zeros(0, dtype=np.int64),
        cols=np.zeros(0, dtype=np.int64),
        values=np.zeros(0),
    )
    cfg_sep = ModelConfig(dim=16, layers=3, sep_enabled=True, seed=7)
    got = forward(cfg_sep, graph, empty, index, e0).e_star
    assert np.max(np.abs(got - expected)) <= 1e-10

    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# criterion 2 — analytic gradient vs central finite differences


def test_criterion_2_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    ds = random_instance(rng, n_users=20, n_items=20, n_edges=60, slot_pool=5)
    graph = build_adjacency(ds)
    index = EdgeIndex.from_dataset(ds)
    params = SimilarityParams(alpha_sim=0.5, median_km=3.0)
    sep = normalize_sep(build_sep_matrix(index, params, PruningParams()))
    cfg = ModelConfig(dim=4, layers=3, sep_enabled=True, seed=3)
    operator = build_operator(cfg, graph, sep, index)

    batch = TripletBatch(
        users=rng.integers(0, 20, size=30),
        positives=rng.integers(0, 20, size=30),
        negatives=rng.integers(0, 20, size=30),
    )
    lam = 1e-4
    e0 = init_embeddings(cfg, graph.n_nodes)
    grad, _ = loss_gradient(e0, batch, cfg, graph, operator, lam)

    def loss_at(table):
        e_star = forward(cfg, graph, None, None, table, operator=operator).e_star
        n = graph.n_users
        pos = np.einsum("ij,ij->i", e_star[batch.users], e_star[n + batch.positives])
        neg = np.einsum("ij,ij->i", e_star[batch.users], e_star[n + batch.negatives])
        return bpr_loss(pos, neg, table, lam)

    h = 1e-5
    worst = 0.0
    for node in range(graph.n_nodes):
        for d in range(cfg.dim):
            up, down = e0.copy(), e0.copy()
            up[node, d] += h
            down[node, d] -= h
            fd = (loss_at(up) - loss_at(down)) / (2 * h)
            rel = abs(grad[node, d] - fd) / max(abs(grad[node, d]), abs(fd), 1e-6)
            worst = max(worst, rel)
    assert worst <= 1e-4
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# criterion 3 — optimized pair builder vs the literal double loop


def test_criterion_3_pair_builder_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for case in range(20):
        n_users = int(rng.integers(5, 40))
        n_items = int(rng.integers(5, 60))
        n_edges = int(rng.integers(20, 501))
        ds = random_instance(rng, n_users, n_items, n_edges, slot_pool=int(rng.integers(3, 12)))
        index = EdgeIndex.from_dataset(ds)
        params = SimilarityParams(alpha_sim=0.5, median_km=float(rng.uniform(1.0, 6.0)))
        pruning = PruningParams(
            sigma_floor=float(rng.uniform(0.005, 0.3)),
            max_neighbors=int(rng.integers(2, 64)) if case % 2 else 64,
        )
        fast = build_sep_matrix(index, params, pruning)
        slow = build_sep_matrix_bruteforce(index, params, pruning)
        assert np.array_equal(fast.rows, slow.rows), f"case {case}: support differs"
        assert np.array_equal(fast.cols, slow.cols), f"case {case}: support differs"
        assert len(fast.values) == len(slow.values)
        if len(fast.values):
            assert np.max(np.abs(fast.values - slow.values)) <= 1e-12, f"case {case}"
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 4 — similarity, distance, and slot unit properties


def test_criterion_4_similarity_distance_slot_properties():
    params = SimilarityParams(alpha_sim=0.5, median_km=7.3)
    assert abs(sigma(0.0, params) - 1.0) <= 1e-12
    assert abs(sigma(params.median_km, params) - params.alpha_sim) <= 1e-12

    rng = np.random.default_rng(404)
    for _ in range(200):
        a = (float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
        b = (float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
        assert haversine_km(a, b) == haversine_km(b, a)

    half_circumference = haversine_km((0.0, 0.0), (0.0, 180.0))
    assert abs(half_circumference - 20015.09) <= 0.01
    assert half_circumference == pytest.approx(math.pi * EARTH_RADIUS_KM)

    base = datetime(2024, 1, 1)  # a Monday
    seen = [to_slot(base + timedelta(minutes=m)) for m in range(7 * 24 * 60)]
    assert sorted(set(seen)) == list(range(168))
    assert seen == [m // 60 for m in range(7 * 24 * 60)]


# ---------------------------------------------------------------------------
# criterion 5 — ranking metrics vs the literal-definition loop oracle


def loop_metrics(topk, truth, k):
    """Straight transcription of the metric definitions, one user."""
    hits = sum(1 for item in topk[:k] if item in truth)
    precision = hits / k
    recall = hits / len(truth)
    dcg = sum(
        1.0 / math.log2(pos + 1)
        for pos, item in enumerate(topk[:k], start=1)
        if item in truth
    )
    idcg = sum(1.0 / math.log2(pos + 1) for pos in range(1, min(k, len(truth)) + 1))
    ndcg = dcg / idcg if idcg > 0 else 0.0
    accuracy = 1.0 if hits > 0 else 0.0
    return precision, recall, ndcg, accuracy


def one_user_row(items, n_items):
    """Binary 1-by-n_items matrix with the given items set."""
    cols = sorted(items)
    return sp.csr_matrix((np.ones(len(cols)), ([0] * len(cols), cols)), shape=(1, n_items))


def test_criterion_5_ranking_metrics_match_loop_oracle():
    rng = np.random.default_rng(505)
    for case in range(1000):
        n_items = int(rng.integers(25, 80))
        scores = np.round(rng.normal(size=n_items), 1)  # coarse values force ties
        n_train = int(rng.integers(0, 5))
        n_test = int(rng.integers(1, 8))
        perm = rng.permutation(n_items)
        train_set = set(int(x) for x in perm[:n_train])
        test_set = set(int(x) for x in perm[n_train : n_train + n_test])

        # one-dimensional embeddings reproduce the score vector exactly
        e_star = np.concatenate([[1.0], scores])[:, None]
        report = evaluate_model(
            e_star, one_user_row(train_set, n_items), one_user_row(test_set, n_items), ks=(5, 20)
        )

        order = sorted(
            (i for i in range(n_items) if i not in train_set),
            key=lambda i: (-scores[i], i),
        )
        for k in (5, 20):
            expected = loop_metrics(order, test_set, k)
            block = report.blocks[k]
            got = (block.precision, block.recall, block.ndcg, block.accuracy)
            for name, e, g in zip(("precision", "recall", "ndcg", "accuracy"), expected, got):
                assert abs(e - g) <= 1e-12, f"case {case} {name}@{k}: {e} vs {g}"


# ---------------------------------------------------------------------------
# criterion 6 — the edge-pair update beats the plain backbone at desk scale


def criterion_6_gain(seed: int) -> float:
    """Relative recall@20 gain of the edge-pair update over the plain backbone
    on the desk city of one seed."""
    city = generate_city(SyntheticConfig(seed=seed))
    ds = build_dataset(city.checkins(), SplitConfig(train_ratio=0.7, seed=seed))
    graph = build_adjacency(ds)
    index = EdgeIndex.from_dataset(ds)
    med = median_distance(ds, "global", 1_000_000, seed=seed + 100)
    params = SimilarityParams(alpha_sim=0.5, median_km=float(med))
    sep = normalize_sep(build_sep_matrix(index, params, PruningParams(max_neighbors=16)))
    hook = make_ranking_hook(ds)
    train_cfg = TrainConfig(
        lr=0.01,
        l2_lambda=1e-5,
        epochs_max=200,
        batch_size=8192,
        eval_every=10,
        early_stop_patience=8,
        seed=seed + 200,
    )
    recall = {}
    for enabled in (True, False):
        model_cfg = ModelConfig(dim=32, layers=3, sep_enabled=enabled, seed=seed + 300)
        result = train(
            ds,
            graph,
            sep if enabled else None,
            index if enabled else None,
            model_cfg,
            train_cfg,
            hook,
        )
        recall[enabled] = result.best_recall
    return (recall[True] - recall[False]) / recall[False]


@pytest.mark.slow
def test_criterion_6_edge_pair_updates_beat_plain_backbone(monkeypatch):
    """The seeds are independent, so they run in a pool of spawned processes,
    each with one BLAS thread."""
    t0 = time.perf_counter()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")  # a spawned process reads them when it loads numpy
    with multiprocessing.get_context("spawn").Pool(min(2, os.cpu_count() or 1)) as pool:
        gains = pool.map_async(criterion_6_gain, range(5)).get(timeout=20 * 60)
        pool.close()
        pool.join()

    mean_gain = sum(gains) / len(gains)
    assert mean_gain >= 0.03, f"mean relative recall@20 gain {mean_gain:+.2%}, per seed {gains}"
    assert time.perf_counter() - t0 < 20 * 60


# ---------------------------------------------------------------------------
# criterion 7 — same-seed pipelines are byte-identical


def test_criterion_7_same_seed_pipelines_byte_identical(tmp_path):
    t0 = time.perf_counter()
    settings = [
        "--seed", "42",
        "--set", "pruning.max_neighbors=16",
        "--set", "model.dim=32",
        "--set", "train.epochs_max=5",
        "--set", "train.eval_every=0",
    ]
    for d in ("a", "b"):
        work = tmp_path / d
        work.mkdir()
        assert cli_main(["synth", "--out", str(work / "raw.tsv"), "--seed", "42"]) == 0
        assert cli_main(["prepare", "--raw", str(work / "raw.tsv"),
                         "--out", str(work / "snap.txt"), *settings]) == 0
        assert cli_main(["build-sep", "--snapshot", str(work / "snap.txt"),
                         "--out", str(work / "pairs.sep"), *settings]) == 0
        assert cli_main(["train", "--snapshot", str(work / "snap.txt"),
                         "--sep", str(work / "pairs.sep"),
                         "--out", str(work / "ck.bin"), *settings]) == 0
        assert cli_main(["eval", "--snapshot", str(work / "snap.txt"),
                         "--sep", str(work / "pairs.sep"),
                         "--checkpoint", str(work / "ck.bin"),
                         "--out", str(work / "rep"), *settings]) == 0

    for name in ("rep.tsv", "rep.kv", "ck.bin", "pairs.sep", "snap.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between the two runs"
    assert time.perf_counter() - t0 < 10 * 60


# ---------------------------------------------------------------------------
# criterion 8 — sparsity monotonicity and k-core degrees


def test_criterion_8_sparsity_and_kcore_properties():
    rng = np.random.default_rng(808)
    ds = random_instance(rng, n_users=30, n_items=50, n_edges=300)
    index = EdgeIndex.from_dataset(ds)
    params = SimilarityParams(alpha_sim=0.5, median_km=3.0)
    stored = []
    for floor in (0.005, 0.01, 0.05, 0.2, 0.4):
        sep = build_sep_matrix(index, params, PruningParams(sigma_floor=floor))
        stored.append(len(sep.values))
    assert all(a >= b for a, b in zip(stored, stored[1:])), stored

    city = generate_city(
        SyntheticConfig(
            n_users=200,
            n_items=400,
            n_checkins=6000,
            n_districts=4,
            themes_per_district=3,
            seed=13,
        )
    )
    for threshold in (5, 10):
        filtered = build_dataset(
            city.checkins(),
            SplitConfig(train_ratio=0.7, seed=13, min_interactions=1, kcore=threshold),
        )
        user_deg, item_deg = Counter(), Counter()
        user_deg.update(filtered.interactions.users.tolist())
        item_deg.update(filtered.interactions.items.tolist())
        degrees = list(user_deg.values()) + list(item_deg.values())
        assert min(degrees) == threshold
