"""Top-k ranking metrics over held-out interactions.

Ranking is score-descending with ties broken by ascending item index, and a
user's train items are removed from candidacy entirely. All four metrics are
rank-based, so any positive monotone transform of the scores leaves them
unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError
from .graph import entry_keys, has_entry, interaction_matrix

METRIC_NAMES = ("precision", "recall", "ndcg", "accuracy")
# bytes of one block of users' scores in rank_all; the partition's copy and the
# mask add about as much again, so ranking's working memory does not grow with
# the user count
RANK_BLOCK_BYTES = 2 * 2**20


@dataclass
class MetricsAtK:
    k: int
    precision: float
    recall: float
    ndcg: float
    accuracy: float
    n_evaluated_users: int
    n_excluded_users: int


@dataclass
class MetricsReport:
    ks: tuple[int, ...]
    blocks: dict[int, MetricsAtK]
    n_evaluated_users: int
    n_excluded_users: int
    seed: int | None = None
    config_hash: str | None = None


def rank_all(e_star: np.ndarray, train: sp.csr_matrix, k: int) -> np.ndarray:
    """Top-k item ids of every user, one row each: row u ranks user u.

    `train` is the binary user-by-item train matrix; a user's train items
    are never ranked. A user with fewer than k candidates gets a row that
    ends in -1. Scores are computed a block of users at a time, as many as
    fit RANK_BLOCK_BYTES (at least one). A partition finds each row's k-th
    largest score; every item scoring at least that much (ties at the
    boundary included) is then sorted by (-score, id), so no row is sorted
    in full. Non-finite scores raise `NumericalError`.
    """
    n_users, n_items = train.shape
    chunk = max(1, RANK_BLOCK_BYTES // (8 * n_items))
    item_table = e_star[n_users:]
    width = min(k, n_items)
    out = np.full((n_users, width), -1, dtype=np.int64)
    for start in range(0, n_users, chunk):
        bounds = train.indptr[start : start + chunk + 1]
        n_seen = np.diff(bounds)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = e_star[start : start + len(n_seen)] @ item_table.T
        if not np.isfinite(scores).all():
            raise NumericalError("non-finite values in the ranking scores")
        seen = train.indices[bounds[0] : bounds[-1]]
        scores[np.repeat(np.arange(len(n_seen)), n_seen), seen] = -np.inf
        kth = np.partition(scores, n_items - width, axis=1)[:, n_items - width]
        rows, items = np.divmod(np.flatnonzero(scores >= kth[:, None]), n_items)
        order = np.lexsort((items, -scores[rows, items], rows))
        rows, items = rows[order], items[order]
        rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
        # a row with fewer than `width` candidates has kth = -inf; its train items sort last
        kept = rank < np.minimum(width, n_items - n_seen)[rows]
        out[start + rows[kept], rank[kept]] = items[kept]
    return out


def metrics_at_k(topk: np.ndarray, test: sp.csr_matrix, k: int) -> MetricsAtK:
    """Mean precision/recall/NDCG/accuracy at one cutoff.

    Row u of `topk` ranks user u (as `rank_all` returns it) and `test` is
    the binary user-by-item test matrix. Users with an empty test row are
    excluded from every average but counted. Accuracy is the hit-rate: 1
    when at least one test item made the top-k, else 0. Each user's DCG
    adds its hits' discounts one rank at a time, so it is the exact sum a
    loop over the ranks gives.
    """
    n_truth = np.diff(test.indptr)
    users = np.flatnonzero(n_truth)
    if not len(users):
        return MetricsAtK(k, 0.0, 0.0, 0.0, 0.0, 0, test.shape[0])
    depth = min(k, test.shape[1])  # a row ranks at most every item once
    ranked = topk[users, :depth]
    hit = (ranked >= 0) & has_entry(entry_keys(test), test.shape[1], users[:, None], ranked)
    discount = np.array([1.0 / math.log2(p + 1) for p in range(1, depth + 1)])
    hits = np.count_nonzero(hit, axis=1)
    dcg = np.cumsum(np.where(hit, discount[: ranked.shape[1]], 0.0), axis=1)[:, -1]
    idcg = np.cumsum(discount)[np.minimum(depth, n_truth[users]) - 1]
    return MetricsAtK(
        k=k,
        precision=float(np.mean(hits / k)),
        recall=float(np.mean(hits / n_truth[users])),
        ndcg=float(np.mean(dcg / idcg)),
        accuracy=float(np.mean((hits > 0).astype(np.float64))),
        n_evaluated_users=len(users),
        n_excluded_users=test.shape[0] - len(users),
    )


def evaluate_model(
    e_star: np.ndarray,
    train: sp.csr_matrix,
    test: sp.csr_matrix,
    ks: tuple[int, ...],
    seed: int | None = None,
    config_hash: str | None = None,
) -> MetricsReport:
    """Rank once at the largest cutoff, then score every requested k.

    `train` and `test` are the binary user-by-item matrices of the split
    (`graph.interaction_matrix`); `ks` holds distinct cutoffs >= 1, as the
    run's `ks` setting checks.
    """
    topk = rank_all(e_star, train, max(ks))
    blocks = {k: metrics_at_k(topk, test, k) for k in sorted(ks)}
    any_block = next(iter(blocks.values()))
    return MetricsReport(
        ks=tuple(sorted(ks)),
        blocks=blocks,
        n_evaluated_users=any_block.n_evaluated_users,
        n_excluded_users=any_block.n_excluded_users,
        seed=seed,
        config_hash=config_hash,
    )


def make_ranking_hook(dataset):
    """Adapter for the trainer: averaged table -> {"recall@20", "ndcg@20"}."""
    train = interaction_matrix(dataset, "train")
    test = interaction_matrix(dataset, "test")

    def hook(e_star: np.ndarray) -> dict[str, float]:
        block = evaluate_model(e_star, train, test, ks=(20,)).blocks[20]
        return {"recall@20": block.recall, "ndcg@20": block.ndcg}

    return hook


def metric_cells(block: MetricsAtK) -> str:
    """The block's metrics in METRIC_NAMES order, as tab-separated reprs."""
    return "\t".join(repr(getattr(block, name)) for name in METRIC_NAMES)


def write_report_tsv(report: MetricsReport, path: str | Path) -> None:
    """One row per cutoff; floats written with full repr precision."""
    config_hash = report.config_hash if report.config_hash is not None else "-"
    seed = report.seed if report.seed is not None else "-"
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        f.write(f"# config_hash={config_hash}  seed={seed}  n_users={report.n_evaluated_users}"
                f"  n_excluded={report.n_excluded_users}\n")
        f.write("k\t" + "\t".join(METRIC_NAMES) + "\n")
        for k in report.ks:
            f.write(f"{k}\t{metric_cells(report.blocks[k])}\n")


def write_report_kv(report: MetricsReport, path: str | Path) -> None:
    """Flat dotted-key rendering of the same report."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        f.write(f"config_hash = {report.config_hash if report.config_hash is not None else '-'}\n")
        f.write(f"seed = {report.seed if report.seed is not None else '-'}\n")
        f.write(f"n_users = {report.n_evaluated_users}\n")
        f.write(f"n_excluded = {report.n_excluded_users}\n")
        for k in report.ks:
            block = report.blocks[k]
            for name in METRIC_NAMES:
                f.write(f"k{k}.{name} = {getattr(block, name)!r}\n")
