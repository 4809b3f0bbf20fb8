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

from .errors import ConfigError

METRIC_NAMES = ("precision", "recall", "ndcg", "accuracy")
DEFAULT_KS = (5, 20)


@dataclass
class MetricsAtK:
    k: int
    precision: float
    recall: float
    ndcg: float
    accuracy: float
    n_evaluated_users: int
    n_excluded_users: int

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


@dataclass
class MetricsReport:
    ks: tuple[int, ...]
    blocks: dict[int, MetricsAtK]
    n_evaluated_users: int
    n_excluded_users: int
    seed: int | None = None
    config_hash: str | None = None


def rank_all(
    e_star: np.ndarray,
    n_users: int,
    train_sets: dict[int, set[int]],
    users,
    k: int,
    chunk: int = 256,
) -> dict[int, np.ndarray]:
    """Vectorized top-k lists for many users at once (chunked over users)."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    n_items = e_star.shape[0] - n_users
    users = np.asarray(sorted(users), dtype=np.int64)
    item_table = e_star[n_users:]
    out: dict[int, np.ndarray] = {}
    for start in range(0, len(users), chunk):
        block = users[start : start + chunk]
        scores = e_star[block] @ item_table.T
        for row, u in enumerate(block):
            banned = train_sets.get(int(u), ())
            if banned:
                scores[row, np.fromiter(banned, dtype=np.int64)] = -np.inf
        order = np.argsort(-scores, axis=1, kind="stable")
        for row, u in enumerate(block):
            n_candidates = n_items - len(train_sets.get(int(u), ()))
            out[int(u)] = order[row, : min(k, n_candidates)]
    return out


def _ideal_dcg(n_hits: int) -> float:
    return sum(1.0 / math.log2(p + 1) for p in range(1, n_hits + 1))


def metrics_at_k(
    topk: dict[int, np.ndarray],
    test_sets: dict[int, set[int]],
    k: int,
) -> MetricsAtK:
    """Mean precision/recall/NDCG/accuracy at one cutoff.

    Users with an empty test set are excluded from every average but
    counted. Accuracy is the hit-rate: 1 when at least one test item made
    the top-k, else 0.
    """
    excluded = 0
    precision, recall, ndcg, accuracy = [], [], [], []
    for user in sorted(test_sets):
        truth = test_sets[user]
        if not truth:
            excluded += 1
            continue
        ranked = np.asarray(topk[user])[:k]
        hit_flags = [int(item) in truth for item in ranked]
        hits = sum(hit_flags)
        dcg = sum(1.0 / math.log2(p + 1) for p, h in enumerate(hit_flags, start=1) if h)
        idcg = _ideal_dcg(min(k, len(truth)))
        precision.append(hits / k)
        recall.append(hits / len(truth))
        ndcg.append(dcg / idcg)
        accuracy.append(1.0 if hits else 0.0)

    def mean(xs):
        return float(np.mean(xs)) if xs else 0.0

    return MetricsAtK(
        k=k,
        precision=mean(precision),
        recall=mean(recall),
        ndcg=mean(ndcg),
        accuracy=mean(accuracy),
        n_evaluated_users=len(precision),
        n_excluded_users=excluded,
    )


def evaluate_model(
    e_star: np.ndarray,
    n_users: int,
    train_sets: dict[int, set[int]],
    test_sets: dict[int, set[int]],
    ks: tuple[int, ...] = DEFAULT_KS,
    seed: int | None = None,
    config_hash: str | None = None,
) -> MetricsReport:
    """Rank once at the largest cutoff, then score every requested k."""
    if not ks:
        raise ConfigError("at least one cutoff k is required")
    users = [u for u, truth in test_sets.items() if truth]
    topk = rank_all(e_star, n_users, train_sets, users, max(ks))
    blocks = {k: metrics_at_k(topk, test_sets, k) for k in sorted(ks)}
    any_block = next(iter(blocks.values()))
    return MetricsReport(
        ks=tuple(sorted(ks)),
        blocks=blocks,
        n_evaluated_users=any_block.n_evaluated_users,
        n_excluded_users=any_block.n_excluded_users,
        seed=seed,
        config_hash=config_hash,
    )


def make_ranking_hook(dataset, k: int = 20):
    """Adapter for the trainer: averaged table -> {"recall@k", "ndcg@k"}."""
    n = dataset.n_users
    train_sets = {u: set(v) for u, v in dataset.items_by_user("train").items()}
    test_sets = {u: set(v) for u, v in dataset.items_by_user("test").items()}

    def hook(e_star: np.ndarray) -> dict[str, float]:
        report = evaluate_model(e_star, n, train_sets, test_sets, ks=(k,))
        block = report.blocks[k]
        return {f"recall@{k}": block.recall, f"ndcg@{k}": block.ndcg}

    return hook


def _header_line(seed, config_hash, **counts) -> str:
    parts = [f"config_hash={config_hash if config_hash is not None else '-'}"]
    parts.append(f"seed={seed if seed is not None else '-'}")
    parts += [f"{key}={value}" for key, value in counts.items()]
    return "# " + "  ".join(parts) + "\n"


def write_report_tsv(report: MetricsReport, path: str | Path) -> None:
    """One row per cutoff; floats written with full repr precision."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        f.write(
            _header_line(
                report.seed,
                report.config_hash,
                n_users=report.n_evaluated_users,
                n_excluded=report.n_excluded_users,
            )
        )
        f.write("k\t" + "\t".join(METRIC_NAMES) + "\n")
        for k in report.ks:
            block = report.blocks[k]
            cells = "\t".join(repr(getattr(block, name)) for name in METRIC_NAMES)
            f.write(f"{k}\t{cells}\n")


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
