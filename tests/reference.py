"""Plain forms the program does not hold, kept for the tests.

`bpr_loss` is the pairwise ranking loss written as its own formula; the
trainer only ever needs its gradient, so the finite-difference tests
differentiate this function and compare against `loss_gradient`.
`interactions` builds interaction columns from readable rows.
`global_median` is the sampled median of pairwise edge distances computed
over whole arrays at once; `median_distance` must return its value exactly.
`per_user_median` is the per-user statistic written as a loop over users and
their venue pairs; `median_distance` in per_user mode must return it exactly.
"""
from __future__ import annotations

from itertools import chain

import numpy as np

from sepgcn.data import Interactions
from sepgcn.errors import NumericalError
from sepgcn.geo import haversine_km


def bpr_loss(scores_pos, scores_neg, e0: np.ndarray, l2_lambda: float) -> float:
    """Sum of -ln logistic(pos - neg) over triples, plus the L2 penalty.

    The logistic log-loss is evaluated as softplus(neg - pos) via logaddexp,
    which stays finite for any finite scores.
    """
    scores_pos = np.asarray(scores_pos, dtype=np.float64)
    scores_neg = np.asarray(scores_neg, dtype=np.float64)
    rank_term = np.logaddexp(0.0, scores_neg - scores_pos).sum()
    return float(rank_term + l2_lambda * np.sum(e0 * e0))


def interactions(rows) -> Interactions:
    """Columns from (user, item, slots, split) rows, split being "train" or "test"."""
    users, items, slots, splits = list(zip(*rows)) or [()] * 4
    return Interactions(
        users=np.array(users, dtype=np.int64),
        items=np.array(items, dtype=np.int64),
        is_test=np.array([split == "test" for split in splits], dtype=bool),
        slot_ptr=np.cumsum([0, *map(len, slots)]),
        slot_vals=np.fromiter(chain.from_iterable(slots), np.int64),
    )


def global_median(lat: np.ndarray, lon: np.ndarray, sample_budget: int, seed: int) -> float:
    """Median distance over every edge pair, or over a seeded sample of
    `sample_budget` ordered pairs when there are more pairs than that."""
    n = len(lat)
    if n < 2:
        raise NumericalError("degenerate median: fewer than two edges")
    n_pairs = n * (n - 1) // 2
    if n_pairs <= sample_budget:
        ii, jj = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, n, size=sample_budget)
        jj = rng.integers(0, n - 1, size=sample_budget)
        jj = np.where(jj >= ii, jj + 1, jj)  # uniform over ordered pairs with i != j
    d = haversine_km((lat[ii], lon[ii]), (lat[jj], lon[jj]))
    med = float(np.median(d))
    if not med > 0:
        raise NumericalError("degenerate median: all sampled edge pairs are co-located")
    return med


def per_user_median(users, lat, lon, global_med: float) -> float:
    """Median over users of the median distance between each user's distinct
    venues, taken pair by pair in visit order; a user with one venue counts
    global_med."""
    venues: dict[int, list[tuple[float, float]]] = {}
    for user, point in zip(users.tolist(), zip(lat.tolist(), lon.tolist())):
        seen = venues.setdefault(user, [])
        if point not in seen:
            seen.append(point)
    medians = []
    for points in venues.values():
        pairs = [(p, q) for k, p in enumerate(points) for q in points[k + 1 :]]
        if not pairs:
            medians.append(global_med)
            continue
        a, b = np.array([p for p, _ in pairs]), np.array([q for _, q in pairs])
        medians.append(float(np.median(haversine_km((a[:, 0], a[:, 1]), (b[:, 0], b[:, 1])))))
    return float(np.median(medians))
