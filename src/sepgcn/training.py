"""Pairwise-ranking training of the initial embedding table.

The forward pass is a fixed linear map of E0, so gradients are exact
reverse-mode adjoints: each layer's matrices are applied transposed in
reverse order (Wᵀ for the edge-context step, the symmetric A for the
propagation), plus the fan-out of the final mean. No autodiff framework
is involved.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .config import ModelConfig, TrainConfig
from .errors import InputDataError, NumericalError, check_size, written
from .graph import BipartiteGraph, entry_keys, has_entry, interaction_matrix, spmv
from .model import SepOperator, build_operator, edge_step_at, forward, init_embeddings

logger = logging.getLogger(__name__)

# rows of the table an optimizer step works through at a time, as bytes
STEP_BLOCK_BYTES = 256 * 2**10


@dataclass
class TripletBatch:
    users: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


class TripletSampler:
    """Uniform sampling over train interactions with rejection-sampled negatives.

    A negative is redrawn while it lies in its user's row of the train
    matrix, found among the row's sorted `user*n_items+item` keys.
    """

    def __init__(self, dataset):
        seen = interaction_matrix(dataset, "train")
        self.n_items = dataset.n_items
        self.train_keys = entry_keys(seen)
        saturated = np.diff(seen.indptr) == self.n_items
        if saturated.any():
            logger.warning(
                "skipping %d user(s) who interacted with every item; no negatives exist",
                np.count_nonzero(saturated),
            )
        edges = dataset.interactions
        users, positives = edges.users[~edges.is_test], edges.items[~edges.is_test]
        kept = ~saturated[users]
        if not kept.any():
            raise InputDataError("every user has interacted with every item")
        self.users, self.positives = users[kept], positives[kept]

    def sample(self, batch_size: int, rng: np.random.Generator, neg_per_pos: int = 1) -> TripletBatch:
        idx = rng.integers(0, len(self.users), size=batch_size)
        users = np.repeat(self.users[idx], neg_per_pos)
        positives = np.repeat(self.positives[idx], neg_per_pos)
        negatives = rng.integers(0, self.n_items, size=len(users))
        pending = np.flatnonzero(has_entry(self.train_keys, self.n_items, users, negatives))
        while len(pending):
            negatives[pending] = rng.integers(0, self.n_items, size=len(pending))
            pending = pending[
                has_entry(self.train_keys, self.n_items, users[pending], negatives[pending])
            ]
        return TripletBatch(users, positives, negatives)


class SgdOptimizer:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, table: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Write table - lr * grad over grad and return it; table is left unchanged."""
        grad *= self.lr
        return np.subtract(table, grad, out=grad)


class AdamOptimizer:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.scratch: np.ndarray | None = None
        self.t = 0

    def step(self, table: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Write the stepped table over grad and return it; table is left
        unchanged and the moments change in place.

        Works STEP_BLOCK_BYTES of rows at a time through one block of scratch,
        each element in the order of `table - lr * m_hat / (sqrt(v_hat) + eps)`.
        """
        if self.m is None:
            self.m, self.v = np.zeros_like(table), np.zeros_like(table)
            rows = max(1, min(len(table), STEP_BLOCK_BYTES // (table.itemsize * table.shape[1])))
            self.scratch = np.empty((rows, table.shape[1]))
        self.t += 1
        fix1, fix2 = 1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t
        rows = len(self.scratch)
        for r in range(0, len(table), rows):
            g, m, v = grad[r : r + rows], self.m[r : r + rows], self.v[r : r + rows]
            s = self.scratch[: len(g)]
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=s)
            v *= self.beta2
            np.multiply(1.0 - self.beta2, g, out=s)
            v += np.multiply(s, g, out=s)
            np.divide(v, fix2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, fix1, out=g)
            g *= self.lr
            g /= s
            np.subtract(table[r : r + rows], g, out=g)
        return grad


def make_optimizer(cfg: TrainConfig):
    return AdamOptimizer(cfg.lr) if cfg.optimizer == "adam" else SgdOptimizer(cfg.lr)


def _check_finite(arr: np.ndarray, stage: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite gradient at {stage}")


def expit_minus_one(s: np.ndarray) -> np.ndarray:
    """`scipy.special.expit(s) - 1.0` bit for bit, for a 1-d float64 array.

    expit is `1 / (1 + exp(-s))` with libm's exp, which `math.exp` calls;
    numpy's own exp rounds some values differently. -s is clipped at 709,
    where exp is still finite and the result is already -1.0.
    """
    e = np.fromiter(map(math.exp, np.minimum(-s, 709.0).tolist()), np.float64, len(s))
    return 1.0 / (1.0 + e) - 1.0


def ranking_grad_estar(e_star: np.ndarray, n_users: int, batch: TripletBatch) -> tuple[np.ndarray, float]:
    """Gradient of the summed ranking loss with respect to the final table.

    Returns (gradient, loss_rank_term). One sparse product scatters the
    per-triple terms onto their rows; each row sums its terms in batch order
    (users, then positives, then negatives), so repeated indices inside a
    batch combine deterministically. The terms are computed in place in the
    one gathered (3B x d) table, so the working memory is that table, the
    gradient and per-triple vectors.
    """
    n = len(batch)
    targets = np.concatenate([batch.users, n_users + batch.positives, n_users + batch.negatives])
    signs = np.repeat([1.0, 1.0, -1.0], n)
    # one entry per column: column j adds term j to row targets[j], so each row
    # sums its terms in batch order
    scatter = sp.csc_matrix((signs, targets, np.arange(3 * n + 1)), shape=(len(e_star), 3 * n))
    terms = np.take(e_star, targets, axis=0)
    e_user, diff, e_neg = terms[:n], terms[n : 2 * n], terms[2 * n :]
    with np.errstate(over="ignore", invalid="ignore"):
        diff -= e_neg
        s = np.einsum("ij,ij->i", e_user, diff)
        loss = float(np.logaddexp(0.0, -s).sum())
        g_s = expit_minus_one(s)[:, None]
        # user rows take g_s*diff; positive and negative rows take g_s*e_user
        np.multiply(g_s, e_user, out=e_neg)
        np.multiply(g_s, diff, out=e_user)
        diff[...] = e_neg
        grad = scatter @ terms
    _check_finite(grad, "the ranking-loss layer")
    return grad, loss


def backward(
    grad_estar: np.ndarray,
    model_cfg: ModelConfig,
    graph: BipartiteGraph,
    operator: SepOperator | None,
) -> np.ndarray:
    """Pull a gradient at the averaged table back to the initial table.

    Walks the layers in reverse: each layer contributes its share of the
    mean directly, then passes through the edge-context step's transpose
    (Wᵀ @ grad, where the update applies) and the symmetric propagation.
    grad_estar is divided into that share in place.
    """
    grad_estar /= model_cfg.layers + 1
    grad = share = grad_estar
    for k in range(model_cfg.layers, 0, -1):
        if edge_step_at(model_cfg, operator, k):
            grad = operator.update_adjoint(grad)
            _check_finite(grad, f"the edge-update adjoint of layer {k}")
        grad = spmv(graph, grad)
        _check_finite(grad, f"the propagation adjoint of layer {k}")
        grad += share
    return grad


def loss_gradient(
    e0: np.ndarray,
    batch: TripletBatch,
    model_cfg: ModelConfig,
    graph: BipartiteGraph,
    operator: SepOperator | None,
    l2_lambda: float,
) -> tuple[np.ndarray, float]:
    """Exact gradient of the full objective at e0, plus the loss value."""
    # the forward sum lives only while the ranking gradient is taken from it
    g_star, rank_loss = ranking_grad_estar(
        forward(model_cfg, graph, None, None, e0, operator=operator).e_star, graph.n_users, batch
    )
    grad = backward(g_star, model_cfg, graph, operator)
    grad += (2.0 * l2_lambda) * e0
    loss = rank_loss + l2_lambda * float(np.sum(e0 * e0))
    return grad, loss


@dataclass
class TrainResult:
    e0: np.ndarray
    best_recall: float
    best_epoch: int
    epochs_run: int
    log_rows: list[tuple] = field(default_factory=list)
    diverged: bool = False
    divergence_reason: str | None = None


def write_training_log(rows, path: str | Path) -> None:
    """Tab-separated: epoch, loss, recall@20, ndcg@20, wallclock seconds."""
    with written(path, "training log") as f:
        f.write("epoch\tloss\trecall@20\tndcg@20\twallclock_s\n")
        for epoch, loss, recall, ndcg, wallclock in rows:
            f.write(f"{epoch}\t{loss!r}\t{recall!r}\t{ndcg!r}\t{wallclock:.3f}\n")


@np.errstate(all="ignore")  # every non-finite value ends the loop through a check
def train(
    dataset,
    graph: BipartiteGraph,
    sep,
    index,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    eval_hook,
    log_path: str | Path | None = None,
) -> TrainResult:
    """Optimize E0 with periodic evaluation and best-checkpoint tracking.

    eval_hook receives the averaged table and must return a mapping with at
    least "recall@20" (used for model selection) and "ndcg@20" (logged).
    Divergence (a non-finite value in a step, in an evaluation's forward
    pass or in eval_hook's scores) aborts the loop and keeps the best table
    seen so far, or else the input of the last accepted step (the initial
    table if none was): a step is accepted when its forward pass, gradient,
    loss and stepped table are all finite.
    """
    # the largest arrays the settings size: the table, and a batch's gathered rows
    triples = train_cfg.batch_size * train_cfg.neg_per_pos
    check_size((graph.n_nodes, model_cfg.dim), "the embedding table")
    check_size((3 * triples, model_cfg.dim), f"a batch of {triples} triples")
    operator = build_operator(model_cfg, graph, sep, index)
    e0 = init_embeddings(model_cfg, graph.n_nodes)
    optimizer = make_optimizer(train_cfg)
    rng = np.random.default_rng(train_cfg.seed)
    sampler = TripletSampler(dataset)
    batches_per_epoch = max(1, math.ceil(len(sampler.users) / train_cfg.batch_size))

    rows: list[tuple] = []
    best_e0: np.ndarray | None = None
    best_recall = -math.inf
    best_epoch = 0
    stale_evals = 0
    diverged = False
    reason: str | None = None
    epoch = 0
    t0 = time.perf_counter()

    # each step makes a new table in its gradient's storage and no table is
    # written once made, so `good` (the input of the last accepted step) and
    # `best_e0` are references, not copies
    good = e0
    for epoch in range(1, train_cfg.epochs_max + 1):
        epoch_loss = 0.0
        evaluating = train_cfg.eval_every and epoch % train_cfg.eval_every == 0
        try:
            for _ in range(batches_per_epoch):
                batch = sampler.sample(train_cfg.batch_size, rng, train_cfg.neg_per_pos)
                grad, loss = loss_gradient(
                    e0, batch, model_cfg, graph, operator, train_cfg.l2_lambda
                )
                if not math.isfinite(loss):
                    raise NumericalError("non-finite loss")
                stepped = optimizer.step(e0, grad)  # in grad's storage
                if not np.isfinite(stepped).all():
                    raise NumericalError("non-finite values after the optimizer step")
                good, e0 = e0, stepped
                epoch_loss += loss
            if evaluating:
                metrics = eval_hook(
                    forward(model_cfg, graph, None, None, e0, operator=operator).e_star
                )
        except NumericalError as exc:
            diverged, reason, e0 = True, str(exc), good
            break
        if evaluating:
            recall = float(metrics["recall@20"])
            ndcg = float(metrics.get("ndcg@20", math.nan))
            rows.append((epoch, epoch_loss, recall, ndcg, time.perf_counter() - t0))
            if recall > best_recall:
                best_recall, best_epoch, stale_evals, best_e0 = recall, epoch, 0, e0
            else:
                stale_evals += 1
                if stale_evals >= train_cfg.early_stop_patience:
                    break

    result = TrainResult(
        e0=best_e0 if best_e0 is not None else e0,
        best_recall=best_recall,
        best_epoch=best_epoch,
        epochs_run=epoch,
        log_rows=rows,
        diverged=diverged,
        divergence_reason=reason,
    )
    if log_path is not None:
        write_training_log(rows, log_path)
    if diverged:
        logger.warning("training aborted (%s); keeping the last good table", reason)
    return result
