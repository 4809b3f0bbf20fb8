"""Plain forms the program does not hold, kept for the tests.

`bpr_loss` is the pairwise ranking loss written as its own formula; the
trainer only ever needs its gradient, so the finite-difference tests
differentiate this function and compare against `loss_gradient`.
`interactions` builds interaction columns from readable rows.
"""
from __future__ import annotations

from itertools import chain

import numpy as np

from sepgcn.data import Interactions


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
