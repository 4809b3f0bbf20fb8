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
from scipy.special import expit

from .config import ModelConfig, TrainConfig
from .errors import ConfigError, InputDataError, NumericalError
from .graph import BipartiteGraph, entry_keys, has_entry, interaction_matrix, spmv
from .model import SepOperator, build_operator, edge_step_at, forward, init_embeddings

logger = logging.getLogger(__name__)


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


def bpr_loss(scores_pos, scores_neg, e0: np.ndarray, l2_lambda: float) -> float:
    """Sum of -ln logistic(pos - neg) over triples, plus the L2 penalty.

    The logistic log-loss is evaluated as softplus(neg - pos) via logaddexp,
    which stays finite for any finite scores.
    """
    scores_pos = np.asarray(scores_pos, dtype=np.float64)
    scores_neg = np.asarray(scores_neg, dtype=np.float64)
    if scores_pos.shape != scores_neg.shape:
        raise ConfigError("positive and negative score lists must have equal length")
    rank_term = np.logaddexp(0.0, scores_neg - scores_pos).sum()
    return float(rank_term + l2_lambda * np.sum(e0 * e0))


class SgdOptimizer:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, table: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return table - self.lr * grad


class AdamOptimizer:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.t = 0

    def step(self, table: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """The updated table, a new array; the moment buffers change in place."""
        if self.m is None:
            self.m = np.zeros_like(table)
            self.v = np.zeros_like(table)
        self.t += 1
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return table - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "adam":
        return AdamOptimizer(cfg.lr)
    if cfg.optimizer == "sgd":
        return SgdOptimizer(cfg.lr)
    raise ConfigError(f"unknown optimizer {cfg.optimizer!r}")


def _check_finite(arr: np.ndarray, stage: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite gradient at {stage}")


def ranking_grad_estar(e_star: np.ndarray, n_users: int, batch: TripletBatch) -> tuple[np.ndarray, float]:
    """Gradient of the summed ranking loss with respect to the final table.

    Returns (gradient, loss_rank_term). One sparse product scatters the
    per-triple terms onto their rows; each row sums its terms in batch order
    (users, then positives, then negatives), so repeated indices inside a
    batch combine deterministically.
    """
    n = len(batch)
    targets = np.concatenate([batch.users, n_users + batch.positives, n_users + batch.negatives])
    signs = np.repeat([1.0, 1.0, -1.0], n)
    # one entry per column: column j adds term j to row targets[j], so each row
    # sums its terms in batch order
    scatter = sp.csc_matrix((signs, targets, np.arange(3 * n + 1)), shape=(len(e_star), 3 * n))
    e_user, e_pos, e_neg = np.split(e_star[targets], 3)
    diff = e_pos - e_neg
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.einsum("ij,ij->i", e_user, diff)
        loss = float(np.logaddexp(0.0, -s).sum())
        g_s = (expit(s) - 1.0)[:, None]
        g_user = g_s * e_user
        grad = scatter @ np.concatenate([g_s * diff, g_user, g_user])
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
    """
    share = grad_estar / (model_cfg.layers + 1)
    grad = share.copy()
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
    state = forward(model_cfg, graph, None, None, e0, operator=operator)
    g_star, rank_loss = ranking_grad_estar(state.e_star, graph.n_users, batch)
    grad = backward(g_star, model_cfg, graph, operator)
    grad += (2.0 * l2_lambda) * e0
    loss = rank_loss + l2_lambda * float(np.sum(e0 * e0))
    return grad, loss


def grad_step(
    e0: np.ndarray,
    batch: TripletBatch,
    model_cfg: ModelConfig,
    graph: BipartiteGraph,
    operator: SepOperator | None,
    train_cfg: TrainConfig,
    optimizer,
) -> tuple[np.ndarray, float]:
    """One optimizer update from one triplet batch; returns (new table, loss)."""
    grad, loss = loss_gradient(e0, batch, model_cfg, graph, operator, train_cfg.l2_lambda)
    return optimizer.step(e0, grad), loss


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
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
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
    seen so far, or else the input of the last step whose forward pass,
    gradient and loss were finite.
    """
    model_cfg.validate()
    train_cfg.validate()
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

    good = e0
    for epoch in range(1, train_cfg.epochs_max + 1):
        epoch_loss = 0.0
        evaluating = train_cfg.eval_every and epoch % train_cfg.eval_every == 0
        try:
            for _ in range(batches_per_epoch):
                batch = sampler.sample(train_cfg.batch_size, rng, train_cfg.neg_per_pos)
                stepped, loss = grad_step(e0, batch, model_cfg, graph, operator, train_cfg, optimizer)
                if not math.isfinite(loss):
                    raise NumericalError("non-finite loss")
                if not np.isfinite(stepped).all():
                    raise NumericalError("non-finite values after the optimizer step")
                good, e0 = e0, stepped
                epoch_loss += loss
            if evaluating:
                e_star = forward(model_cfg, graph, None, None, e0, operator=operator).e_star
                metrics = eval_hook(e_star)
        except NumericalError as exc:
            diverged, reason, e0 = True, str(exc), good
            break
        if evaluating:
            recall = float(metrics["recall@20"])
            ndcg = float(metrics.get("ndcg@20", math.nan))
            rows.append((epoch, epoch_loss, recall, ndcg, time.perf_counter() - t0))
            if recall > best_recall:
                best_recall, best_epoch, stale_evals = recall, epoch, 0
                best_e0 = e0.copy()
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
