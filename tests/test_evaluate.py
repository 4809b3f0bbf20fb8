"""Ranking-metric tests against a literal straightforward-loop oracle."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from sepgcn import evaluate
from sepgcn.errors import NumericalError
from sepgcn.evaluate import (
    MetricsReport,
    evaluate_model,
    make_ranking_hook,
    metrics_at_k,
    rank_all,
    write_report_kv,
    write_report_tsv,
)

from reference import interactions


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


def as_matrix(sets, n_users, n_items):
    """Binary user-by-item matrix holding item i in row u for each i in sets[u]."""
    pairs = [(u, i) for u, items in sets.items() for i in items]
    rows = [u for u, _ in pairs]
    cols = [i for _, i in pairs]
    return sp.csr_matrix((np.ones(len(pairs)), (rows, cols)), shape=(n_users, n_items))


def rank_one(e_star, exclude, k):
    """rank_all's list for the single user of an embed_for_scores table."""
    train = as_matrix({0: exclude}, 1, e_star.shape[0] - 1)
    return [int(i) for i in rank_all(e_star, train, k)[0] if i >= 0]


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
        """With fewer than k candidates the row holds them all, then -1 to its end."""
        e_star = embed_for_scores([[1.0, 2.0, 3.0]])
        assert rank_all(e_star, as_matrix({0: {0, 2}}, 1, 3), 5).tolist() == [[1, -1, -1]]
        assert rank_one(e_star, {0, 2}, 5) == [1]

    def test_rank_all_matches_single_user_path(self, monkeypatch):
        """Chunked many-user ranking equals ranking each user alone (chunks of one)."""
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(6, 40))
        e_star = embed_for_scores(scores)
        train_sets = {u: set(map(int, rng.choice(40, size=5, replace=False))) for u in range(6)}
        train = as_matrix(train_sets, 6, 40)
        monkeypatch.setattr(evaluate, "RANK_BLOCK_BYTES", 4 * 8 * 40)
        joint = rank_all(e_star, train, 10)
        monkeypatch.setattr(evaluate, "RANK_BLOCK_BYTES", 8 * 40)
        single = rank_all(e_star, train, 10)
        assert len(joint) == 6
        assert joint.base is None  # owns its data: no row is a view into a chunk's argsort
        assert joint.tolist() == single.tolist()
        for u in range(6):
            assert single[u].tolist() == sort_oracle(scores[u], train_sets[u], 10)

    def test_working_memory_stays_within_the_block_budget(self):
        """1,000 users x 20,000 items: all scores would take 160 MB, and the
        default blocks of users keep ranking's peak under 8 MB."""
        rng = np.random.default_rng(12)
        n_users, n_items = 1000, 20_000
        e_star = rng.normal(size=(n_users + n_items, 16))
        train = sp.random(n_users, n_items, density=0.002, format="csr", random_state=13)
        train.data[:] = 1.0
        tracemalloc.start()
        try:
            topk = rank_all(e_star, train, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert topk.shape == (n_users, 20)
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("chunk", [1, 3, 256])
    def test_boundary_ties_match_sort_oracle_on_every_row(self, chunk, monkeypatch):
        """Scores rounded to one decimal tie across the k-th score on many rows.
        Row 0 is all-equal, row 1 has fewer than k candidates, row 2 exactly k
        and row 3 none; k = 40 exceeds the catalogue."""
        rng = np.random.default_rng(11)
        n_users, n_items = 14, 30
        scores = np.round(rng.normal(size=(n_users, n_items)), 1)
        scores[0] = 0.5
        train_sets = {
            u: set(map(int, rng.choice(n_items, size=rng.integers(0, 12), replace=False)))
            for u in range(n_users)
        }
        train_sets[1] = set(range(n_items - 4))
        train_sets[2] = set(range(n_items - 10))
        train_sets[3] = set(range(n_items))
        e_star = embed_for_scores(scores)
        train = as_matrix(train_sets, n_users, n_items)
        straddling = 0
        monkeypatch.setattr(evaluate, "RANK_BLOCK_BYTES", chunk * 8 * n_items)
        for k in (10, 40):
            joint = rank_all(e_star, train, k)
            assert joint.base is None
            width = min(k, n_items)
            for u in range(n_users):
                ranked = sort_oracle(scores[u], train_sets[u], n_items)
                assert joint[u].tolist() == (ranked + [-1] * width)[:width]
                if k < len(ranked):
                    straddling += scores[u, ranked[k - 1]] == scores[u, ranked[k]]
        assert straddling >= 5  # the data really ties across the k-th score

    @pytest.mark.parametrize("user_scale, score", [(1e308, 2.0), (1.0, np.nan)])
    def test_non_finite_scores_raise(self, user_scale, score, recwarn):
        """Scores that overflow from a finite table, and a NaN score: one error, no warning."""
        e_star = embed_for_scores([[1.0, score, 3.0]])
        e_star[0, 0] = user_scale
        with pytest.raises(NumericalError, match="ranking scores"):
            rank_all(e_star, as_matrix({}, 1, 3), 2)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

class TestMetricsAtK:
    def test_single_perfect_user(self):
        block = metrics_at_k(np.array([[7]]), as_matrix({0: {7}}, 1, 8), k=1)
        assert (block.precision, block.recall, block.ndcg, block.accuracy) == (1, 1, 1, 1)

    def test_zero_hits_everywhere(self):
        topk = np.tile(np.arange(5), (4, 1))
        tests = as_matrix({u: {99} for u in range(4)}, 4, 100)
        block = metrics_at_k(topk, tests, k=5)
        assert block.precision == block.recall == block.ndcg == block.accuracy == 0.0

    @pytest.mark.parametrize("k", [5, 20])
    def test_random_users_match_loop_oracle(self, k):
        rng = np.random.default_rng(3)
        topk, tests = {}, {}
        for u in range(100):
            topk[u] = rng.permutation(50)[:k]
            tests[u] = set(map(int, rng.choice(50, size=rng.integers(1, 8), replace=False)))
        block = metrics_at_k(np.array([topk[u] for u in range(100)]), as_matrix(tests, 100, 50), k=k)
        expect = np.array([loop_metrics(topk[u], tests[u], k) for u in range(100)])
        means = expect.mean(axis=0)
        assert block.precision == pytest.approx(means[0], abs=1e-12)
        assert block.recall == pytest.approx(means[1], abs=1e-12)
        assert block.ndcg == pytest.approx(means[2], abs=1e-12)
        assert block.accuracy == pytest.approx(means[3], abs=1e-12)

    @pytest.mark.parametrize("k", [5, 20])
    def test_per_user_values_match_the_loop_exactly(self, k):
        """Each user's four values equal the loop oracle's to the last bit.

        Scored one user at a time (a mean over one user is that user's
        value), then all at once, where each mean must be np.mean over the
        loop's per-user values. Rows that end in -1, users without test
        items and test sets larger than k are all present.
        """
        rng = np.random.default_rng(31)
        n_users, n_items = 300, 40
        topk = np.array([rng.permutation(n_items)[:k] for _ in range(n_users)])
        for u in range(0, n_users, 3):
            topk[u, rng.integers(0, k) :] = -1
        tests = {
            u: set(map(int, rng.choice(n_items, size=rng.integers(0 if u % 7 else 1, 36), replace=False)))
            for u in range(n_users)
        }
        users = [u for u in range(n_users) if tests[u]]
        per_user = {u: loop_metrics([i for i in topk[u] if i >= 0], tests[u], k) for u in users}
        for u in users:
            block = metrics_at_k(topk[u : u + 1], as_matrix({0: tests[u]}, 1, n_items), k=k)
            assert (block.precision, block.recall, block.ndcg, block.accuracy) == per_user[u], u
        block = metrics_at_k(topk, as_matrix(tests, n_users, n_items), k=k)
        for j, name in enumerate(("precision", "recall", "ndcg", "accuracy")):
            assert getattr(block, name) == float(np.mean([per_user[u][j] for u in users])), name
        assert block.n_evaluated_users == len(users)
        assert block.n_excluded_users == n_users - len(users)

    def test_empty_test_sets_excluded_but_counted(self):
        topk = np.array([[1], [1]])
        block = metrics_at_k(topk, as_matrix({0: {1}}, 2, 2), k=1)
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
        perfect = metrics_at_k(np.array([[3, 6, 9, 0, 1]]), as_matrix({0: test_set}, 1, 10), k=5)
        assert perfect.ndcg == pytest.approx(1.0, abs=1e-12)
        shifted = metrics_at_k(np.array([[3, 0, 6, 9, 1]]), as_matrix({0: test_set}, 1, 10), k=5)
        assert shifted.ndcg < 1.0
        # more test items than k: the ideal prefix is capped at k
        capped = metrics_at_k(np.array([[0, 1]]), as_matrix({0: {0, 1, 2, 3}}, 1, 10), k=2)
        assert capped.ndcg == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [41, 10**30])
    def test_cutoff_past_the_item_count(self, k):
        """A row ranks at most n_items items, so every larger k scores recall,
        NDCG and accuracy as k = n_items does; precision still divides by k."""
        rng = np.random.default_rng(37)
        n_users, n_items = 50, 40
        topk = np.array([rng.permutation(n_items) for _ in range(n_users)])
        tests = {u: set(map(int, rng.choice(n_items, size=rng.integers(1, 9), replace=False)))
                 for u in range(n_users)}
        test = as_matrix(tests, n_users, n_items)
        block, full = metrics_at_k(topk, test, k), metrics_at_k(topk, test, n_items)
        assert (block.recall, block.ndcg, block.accuracy) == (full.recall, full.ndcg, full.accuracy)
        expect = np.mean([loop_metrics(topk[u], tests[u], k)[0] for u in range(n_users)])
        assert block.precision == pytest.approx(expect, rel=1e-12)


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
        return e_star, as_matrix(train_sets, n_users, n_items), as_matrix(test_sets, n_users, n_items)

    def test_composition_matches_manual_steps(self):
        rng = np.random.default_rng(5)
        e_star, train, test = self.build(rng)
        report = evaluate_model(e_star, train, test, ks=(5, 20), seed=7)
        topk = rank_all(e_star, train, 20)
        for k in (5, 20):
            assert report.blocks[k] == metrics_at_k(topk, test, k)
        assert report.ks == (5, 20)
        assert report.seed == 7

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=(4, 30))
        train = as_matrix({u: {0, 1} for u in range(4)}, 4, 30)
        test = as_matrix({u: {5, 9} for u in range(4)}, 4, 30)
        base = evaluate_model(embed_for_scores(scores), train, test, ks=(5, 20))
        warped = evaluate_model(embed_for_scores(3.0 * scores + 7.0), train, test, ks=(5, 20))
        for k in base.ks:
            assert base.blocks[k] == warped.blocks[k]

    def test_train_items_never_ranked(self):
        rng = np.random.default_rng(7)
        e_star, train, _ = self.build(rng)
        topk = rank_all(e_star, train, 20)
        for u, ranked in enumerate(topk):
            assert not set(train[u].indices.tolist()).intersection(ranked.tolist())

    def test_user_without_test_items_is_excluded(self):
        rng = np.random.default_rng(10)
        e_star = embed_for_scores(rng.normal(size=(3, 12)))
        train = as_matrix({0: {0}, 1: {1}, 2: {2}}, 3, 12)
        report = evaluate_model(e_star, train, as_matrix({0: {5}, 2: {7, 8}}, 3, 12), ks=(5, 20))
        assert (report.n_evaluated_users, report.n_excluded_users) == (2, 1)

    def test_ranking_hook_matches_report(self):
        from sepgcn.config import SplitConfig
        from sepgcn.data import Dataset

        inter = interactions(
            [
                (0, 0, (0,), "train"),
                (0, 1, (1,), "test"),
                (1, 1, (2,), "train"),
                (1, 2, (3,), "test"),
            ]
        )
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
        hook = make_ranking_hook(ds)
        got = hook(e_star)
        report = evaluate_model(
            e_star,
            as_matrix({0: {0}, 1: {1}}, 2, 3),
            as_matrix({0: {1}, 1: {2}}, 2, 3),
            ks=(20,),
        )
        assert got == {"recall@20": report.blocks[20].recall, "ndcg@20": report.blocks[20].ndcg}


class TestWriters:
    def make_report(self):
        rng = np.random.default_rng(9)
        topk = np.array([rng.permutation(30)[:20] for _ in range(10)])
        tests = {u: set(map(int, rng.choice(30, 3, replace=False))) for u in range(10)}
        blocks = {k: metrics_at_k(topk, as_matrix(tests, 10, 30), k) for k in (5, 20)}
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
