"""Ranking-metric tests against a literal straightforward-loop oracle."""
from __future__ import annotations

import math

import numpy as np
import pytest

from sepgcn.errors import ConfigError
from sepgcn.evaluate import (
    MetricsReport,
    evaluate_model,
    make_ranking_hook,
    metrics_at_k,
    rank_all,
    write_report_kv,
    write_report_tsv,
)


def loop_metrics(topk, test_set, k):
    """Straight-from-the-definitions reference for one user."""
    top = [int(x) for x in topk][:k]
    hits = sum(1 for item in top if item in test_set)
    precision = hits / k
    recall = hits / len(test_set)
    dcg = 0.0
    for pos, item in enumerate(top, start=1):
        if item in test_set:
            dcg += 1.0 / math.log2(pos + 1)
    idcg = sum(1.0 / math.log2(pos + 1) for pos in range(1, min(k, len(test_set)) + 1))
    ndcg = dcg / idcg
    accuracy = 1.0 if hits else 0.0
    return precision, recall, ndcg, accuracy


def sort_oracle(scores, exclude, k):
    """Full sort with explicit (score desc, index asc) key."""
    order = sorted(
        (i for i in range(len(scores)) if i not in exclude),
        key=lambda i: (-scores[i], i),
    )
    return order[:k]


def embed_for_scores(scores_by_user):
    """Build a table whose dot products reproduce the given score matrix."""
    scores = np.asarray(scores_by_user, dtype=np.float64)
    n, m = scores.shape
    e_star = np.zeros((n + m, n + 1))
    e_star[:n, :n] = np.eye(n)
    e_star[n:, :n] = scores.T
    e_star[n:, n] = 0.0
    return e_star


def rank_one(e_star, exclude, k):
    """rank_all's list for the single user of an embed_for_scores table."""
    return rank_all(e_star, 1, {0: exclude}, [0], k)[0].tolist()


class TestRankTopk:
    """Top-k lists from rank_all, against a full sort with explicit tie-break."""

    def test_all_equal_scores_take_smallest_indices(self):
        e_star = embed_for_scores([[1.0] * 8])
        assert rank_one(e_star, set(), 3) == [0, 1, 2]

    def test_dominant_item_first(self):
        e_star = embed_for_scores([[0.1, 0.2, 5.0, 0.3]])
        assert rank_one(e_star, set(), 2)[0] == 2

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(1, 200))
        scores[0, rng.choice(200, size=30, replace=False)] = scores[0, 0]  # force ties
        exclude = set(map(int, rng.choice(200, size=25, replace=False)))
        e_star = embed_for_scores(scores)
        assert rank_one(e_star, exclude, 20) == sort_oracle(scores[0], exclude, 20)

    def test_excluded_items_never_returned(self):
        rng = np.random.default_rng(1)
        e_star = embed_for_scores(rng.normal(size=(1, 50)))
        exclude = set(range(0, 50, 2))
        assert not exclude.intersection(rank_one(e_star, exclude, 25))

    def test_too_few_candidates_flagged(self):
        """With fewer than k candidates the short list is the flag: it holds them all."""
        e_star = embed_for_scores([[1.0, 2.0, 3.0]])
        assert rank_one(e_star, {0, 2}, 5) == [1]

    def test_validation(self):
        e_star = embed_for_scores([[1.0, 2.0]])
        with pytest.raises(ConfigError):
            rank_one(e_star, set(), 0)

    def test_rank_all_matches_single_user_path(self):
        """Chunked many-user ranking equals ranking each user alone."""
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(6, 40))
        e_star = embed_for_scores(scores)
        train_sets = {u: set(map(int, rng.choice(40, size=5, replace=False))) for u in range(6)}
        joint = rank_all(e_star, 6, train_sets, range(6), 10, chunk=4)
        for u in range(6):
            single = rank_all(e_star, 6, train_sets, [u], 10)[u]
            assert joint[u].tolist() == single.tolist()
            assert single.tolist() == sort_oracle(scores[u], train_sets[u], 10)


class TestMetricsAtK:
    def test_single_perfect_user(self):
        block = metrics_at_k({0: np.array([7])}, {0: {7}}, k=1)
        assert (block.precision, block.recall, block.ndcg, block.accuracy) == (1, 1, 1, 1)

    def test_zero_hits_everywhere(self):
        topk = {u: np.arange(5) for u in range(4)}
        tests = {u: {99} for u in range(4)}
        block = metrics_at_k(topk, tests, k=5)
        assert block.precision == block.recall == block.ndcg == block.accuracy == 0.0

    @pytest.mark.parametrize("k", [5, 20])
    def test_random_users_match_loop_oracle(self, k):
        rng = np.random.default_rng(3)
        topk, tests = {}, {}
        for u in range(100):
            topk[u] = rng.permutation(50)[:k]
            tests[u] = set(map(int, rng.choice(50, size=rng.integers(1, 8), replace=False)))
        block = metrics_at_k(topk, tests, k=k)
        expect = np.array([loop_metrics(topk[u], tests[u], k) for u in range(100)])
        means = expect.mean(axis=0)
        assert block.precision == pytest.approx(means[0], abs=1e-12)
        assert block.recall == pytest.approx(means[1], abs=1e-12)
        assert block.ndcg == pytest.approx(means[2], abs=1e-12)
        assert block.accuracy == pytest.approx(means[3], abs=1e-12)

    def test_empty_test_sets_excluded_but_counted(self):
        topk = {0: np.array([1]), 1: np.array([1])}
        block = metrics_at_k(topk, {0: {1}, 1: set()}, k=1)
        assert block.n_evaluated_users == 1
        assert block.n_excluded_users == 1
        assert block.precision == 1.0

    def test_hits_consistency_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            test_set = set(map(int, rng.choice(30, size=rng.integers(1, 6), replace=False)))
            topk = rng.permutation(30)[:10]
            precision, recall, _, _ = loop_metrics(topk, test_set, 10)
            assert recall == pytest.approx(precision * 10 / len(test_set), abs=1e-12)

    def test_ndcg_one_iff_ideal_prefix(self):
        test_set = {3, 6, 9}
        perfect = metrics_at_k({0: np.array([3, 6, 9, 0, 1])}, {0: test_set}, k=5)
        assert perfect.ndcg == pytest.approx(1.0, abs=1e-12)
        shifted = metrics_at_k({0: np.array([3, 0, 6, 9, 1])}, {0: test_set}, k=5)
        assert shifted.ndcg < 1.0
        # more test items than k: the ideal prefix is capped at k
        capped = metrics_at_k({0: np.array([0, 1])}, {0: {0, 1, 2, 3}}, k=2)
        assert capped.ndcg == pytest.approx(1.0, abs=1e-12)


class TestEvaluateModel:
    def build(self, rng, n_users=8, n_items=60):
        scores = rng.normal(size=(n_users, n_items))
        e_star = embed_for_scores(scores)
        train_sets = {
            u: set(map(int, rng.choice(n_items, size=6, replace=False))) for u in range(n_users)
        }
        test_sets = {}
        for u in range(n_users):
            pool = [i for i in range(n_items) if i not in train_sets[u]]
            test_sets[u] = set(map(int, rng.choice(pool, size=4, replace=False)))
        return e_star, train_sets, test_sets

    def test_composition_matches_manual_steps(self):
        rng = np.random.default_rng(5)
        e_star, train_sets, test_sets = self.build(rng)
        report = evaluate_model(e_star, 8, train_sets, test_sets, ks=(5, 20), seed=7)
        topk = rank_all(e_star, 8, train_sets, range(8), 20)
        for k in (5, 20):
            manual = metrics_at_k(topk, test_sets, k)
            assert report.blocks[k].as_dict() == manual.as_dict()
        assert report.ks == (5, 20)
        assert report.seed == 7

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=(4, 30))
        train_sets = {u: {0, 1} for u in range(4)}
        test_sets = {u: {5, 9} for u in range(4)}
        base = evaluate_model(embed_for_scores(scores), 4, train_sets, test_sets)
        warped = evaluate_model(
            embed_for_scores(3.0 * scores + 7.0), 4, train_sets, test_sets
        )
        for k in base.ks:
            assert base.blocks[k].as_dict() == warped.blocks[k].as_dict()

    def test_train_items_never_ranked(self):
        rng = np.random.default_rng(7)
        e_star, train_sets, test_sets = self.build(rng)
        topk = rank_all(e_star, 8, train_sets, range(8), 20)
        for u, ranked in topk.items():
            assert not train_sets[u].intersection(ranked.tolist())

    def test_requires_some_cutoff(self):
        with pytest.raises(ConfigError):
            evaluate_model(np.zeros((3, 2)), 1, {}, {0: {1}}, ks=())

    def test_ranking_hook_matches_report(self):
        from sepgcn.data import Dataset, Interaction, SplitConfig

        inter = [
            Interaction(0, 0, (0,), "train"),
            Interaction(0, 1, (1,), "test"),
            Interaction(1, 1, (2,), "train"),
            Interaction(1, 2, (3,), "test"),
        ]
        ds = Dataset(
            user_ids=["a", "b"],
            item_ids=["x", "y", "z"],
            interactions=inter,
            item_lat=np.zeros(3),
            item_lon=np.zeros(3),
            split=SplitConfig(),
        )
        rng = np.random.default_rng(8)
        e_star = rng.normal(size=(5, 4))
        hook = make_ranking_hook(ds, k=20)
        got = hook(e_star)
        report = evaluate_model(
            e_star,
            2,
            {0: {0}, 1: {1}},
            {0: {1}, 1: {2}},
            ks=(20,),
        )
        assert got == {"recall@20": report.blocks[20].recall, "ndcg@20": report.blocks[20].ndcg}


class TestWriters:
    def make_report(self):
        rng = np.random.default_rng(9)
        topk = {u: rng.permutation(30)[:20] for u in range(10)}
        tests = {u: set(map(int, rng.choice(30, 3, replace=False))) for u in range(10)}
        blocks = {k: metrics_at_k(topk, tests, k) for k in (5, 20)}
        return MetricsReport(
            ks=(5, 20),
            blocks=blocks,
            n_evaluated_users=10,
            n_excluded_users=0,
            seed=3,
            config_hash="abc123def4567890",
        )

    def test_tsv_layout_and_determinism(self, tmp_path):
        report = self.make_report()
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_report_tsv(report, a)
        write_report_tsv(report, b)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0].startswith("# config_hash=abc123def4567890  seed=3")
        assert lines[1] == "k\tprecision\trecall\tndcg\taccuracy"
        assert len(lines) == 4
        row5 = lines[2].split("\t")
        assert row5[0] == "5"
        assert float(row5[1]) == report.blocks[5].precision

    def test_kv_round_trips_exact_floats(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.kv"
        write_report_kv(report, path)
        parsed = {}
        for line in path.read_text().splitlines():
            key, _, value = line.partition(" = ")
            parsed[key] = value
        assert parsed["config_hash"] == "abc123def4567890"
        assert parsed["seed"] == "3"
        assert float(parsed["k20.ndcg"]) == report.blocks[20].ndcg
        assert float(parsed["k5.recall"]) == report.blocks[5].recall
