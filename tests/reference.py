"""Plain forms the program does not hold, kept for the tests.

`bpr_loss` is the pairwise ranking loss written as its own formula; the
trainer only ever needs its gradient, so the finite-difference tests
differentiate this function and compare against `loss_gradient`.
`interactions` builds interaction columns from readable rows.
`global_median` is the sampled median of pairwise edge distances computed
over whole arrays at once; `median_distance` must return its value exactly.
`per_user_median` is the per-user statistic written as a loop over users and
their venue pairs; `median_distance` in per_user mode must return it exactly.
`update_oracle` is the edge-context step as a literal loop over each node's
active edges, fed by `propagated_rows` over `dense_pairs`, the edge-pair
matrix X built from the stored pairs; `EdgeSpaceStep` holds that step and
its hand-written transpose for one operator's pairs, edge index and
alpha/beta, all built here and not read from the code under test. The
model's node-space matrix W must agree with it.
`adam_step` is one Adam step written as whole-array expressions, each
making a new array; `AdamOptimizer.step` must match it bit for bit.
`train_with_copies` is the trainer's batch loop with a new array for every
table, so no table's storage is reused; `train` must keep the same table.
`build_sep_matrix_bruteforce` is the edge-pair builder as a literal double
loop over every edge pair; `build_sep_matrix` must give the same entries.
`scalar_city` draws a city's homes and check-ins with the Generator's own
`integers` and `random` calls, one per draw; `generate_city` replays them
from raw words and must return the same columns.
`scalar_checkins` is generate_city's former check-in loop, one
`_scalar_draws` call per draw, over any bit generator's state and raw words;
`synthetic._checkin_columns` must draw the same columns from them.
"""
from __future__ import annotations

import math
from collections import defaultdict
from itertools import chain

import numpy as np

from sepgcn.config import PruningParams, SimilarityParams
from sepgcn.data import Interactions
from sepgcn.errors import NumericalError
from sepgcn.geo import SLOTS_PER_WEEK, haversine_km, sigma, sigma_cutoff_km
from sepgcn.model import init_embeddings
from sepgcn.sep_graph import EdgeIndex, SepMatrix
from sepgcn.synthetic import (
    BOX_KM,
    CENTER_LAT,
    CENTER_LON,
    HOME_AFFINITY,
    JITTER_KM,
    KM_PER_DEG_LAT,
    KM_PER_DEG_LON,
    LANDMARK,
    LANDMARK_FRAC,
    LANDMARK_RATE,
    SLOT_AFFINITY,
    SLOTS_PER_SCENE,
    WEEKS,
    _scalar_draws,
)
from sepgcn.training import TripletSampler, loss_gradient


def bpr_loss(scores_pos, scores_neg, e0: np.ndarray, l2_lambda: float) -> float:
    """Sum of -ln logistic(pos - neg) over triples, plus the L2 penalty.

    The logistic log-loss is evaluated as softplus(neg - pos) via logaddexp,
    which stays finite for any finite scores.
    """
    scores_pos = np.asarray(scores_pos, dtype=np.float64)
    scores_neg = np.asarray(scores_neg, dtype=np.float64)
    rank_term = np.logaddexp(0.0, scores_neg - scores_pos).sum()
    return float(rank_term + l2_lambda * np.sum(e0 * e0))


def adam_step(table, grad, m, v, t: int, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
    """Step t (from 1) of Adam; returns the new (table, m, v)."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return table - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


@np.errstate(all="ignore")
def train_with_copies(dataset, graph, operator, model_cfg, train_cfg) -> np.ndarray:
    """The table `train` returns for a run with plain SGD and no evaluation.

    Each step makes a new table. Once a gradient, a loss or a stepped table
    is non-finite, the input of the last step accepted before it is kept
    (the initial table if none was); otherwise the last table.
    """
    e0 = init_embeddings(model_cfg, graph.n_nodes)
    rng = np.random.default_rng(train_cfg.seed)
    sampler = TripletSampler(dataset)
    batches = max(1, math.ceil(len(sampler.users) / train_cfg.batch_size))
    good = e0
    for _ in range(train_cfg.epochs_max * batches):
        batch = sampler.sample(train_cfg.batch_size, rng, train_cfg.neg_per_pos)
        try:
            grad, loss = loss_gradient(e0, batch, model_cfg, graph, operator, train_cfg.l2_lambda)
        except NumericalError:
            return good
        stepped = e0 - train_cfg.lr * grad
        if not (math.isfinite(loss) and np.isfinite(stepped).all()):
            return good
        good, e0 = e0, stepped
    return e0


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


def dense_pairs(sep) -> np.ndarray:
    """The symmetric edge-pair matrix X, dense, from the pairs stored once."""
    x = np.zeros((sep.n_edges, sep.n_edges))
    for i, j, v in zip(sep.rows.tolist(), sep.cols.tolist(), sep.values.tolist()):
        x[i, j] = x[j, i] = v
    return x


def active_edges(sep) -> np.ndarray:
    """Mask of the edges that sit in at least one stored pair."""
    active = np.zeros(sep.n_edges, dtype=bool)
    active[sep.rows] = active[sep.cols] = True
    return active


def propagated_rows(index, x: np.ndarray, table: np.ndarray, n_users: int) -> np.ndarray:
    """Edge rows user‖item, propagated over the dense edge-pair matrix x."""
    rows = np.concatenate([table[index.users], table[n_users + index.items]], axis=1)
    return x @ rows


def update_oracle(table, propagated, users, items, n_users, alpha, beta, active):
    """Literal loop over edges: aggregate active segments, blend per node."""
    d = table.shape[1]
    out = table.copy()
    for u in range(n_users):
        incident = [e for e in range(len(users)) if users[e] == u and active[e]]
        if incident:
            mean = np.mean([propagated[e, :d] for e in incident], axis=0)
            out[u] = alpha * table[u] + (1 - alpha) * mean
    for i in range(table.shape[0] - n_users):
        incident = [e for e in range(len(items)) if items[e] == i and active[e]]
        if incident:
            mean = np.mean([propagated[e, d:] for e in incident], axis=0)
            out[n_users + i] = beta * table[n_users + i] + (1 - beta) * mean
    return out


class EdgeSpaceStep:
    """The edge-context step in edge space, and its hand-written transpose.

    step() gathers user‖item rows onto every edge, propagates them over the
    symmetric edge-pair matrix X, averages each half into its node over the
    node's active edges (those in at least one stored pair), and blends that
    mean into the node's row with weight 1 - alpha (users) or 1 - beta
    (items); a node without an active edge keeps its row. adjoint() is the
    transpose of that step, written map by map over dense gather and mean maps.
    """

    def __init__(self, sep, index, n_users: int, n_items: int, alpha: float, beta: float):
        n_edges = index.n_edges
        self.index, self.n_users, self.alpha, self.beta = index, n_users, alpha, beta
        self.x, self.active = dense_pairs(sep), active_edges(sep)
        self.gu, self.gi = np.zeros((n_users, n_edges)), np.zeros((n_items, n_edges))
        self.pu, self.pi = np.zeros((n_users, n_edges)), np.zeros((n_items, n_edges))
        for gather, mean, nodes in ((self.gu, self.pu, index.users), (self.gi, self.pi, index.items)):
            for node in range(len(gather)):
                edges = [k for k in range(n_edges) if nodes[k] == node]
                gather[node, edges] = 1.0
                linked = [k for k in edges if self.active[k]]
                if linked:
                    mean[node, linked] = 1.0 / len(linked)
        self.keep = np.concatenate([
            np.where(self.pu.any(axis=1), alpha, 1.0), np.where(self.pi.any(axis=1), beta, 1.0)
        ])

    def step(self, table: np.ndarray) -> np.ndarray:
        propagated = propagated_rows(self.index, self.x, table, self.n_users)
        return update_oracle(
            table, propagated, self.index.users, self.index.items, self.n_users,
            self.alpha, self.beta, self.active,
        )

    def adjoint(self, grad_out: np.ndarray) -> np.ndarray:
        """The transpose of step(), written out map by map."""
        d, n = grad_out.shape[1], self.n_users
        grad_edges = np.concatenate(
            [self.pu.T @ ((1.0 - self.alpha) * grad_out[:n]),
             self.pi.T @ ((1.0 - self.beta) * grad_out[n:])], axis=1
        )
        grad_rows = self.x.T @ grad_edges
        grad = self.keep[:, None] * grad_out
        grad[:n] += self.gu @ grad_rows[:, :d]
        grad[n:] += self.gi @ grad_rows[:, d:]
        return grad


def build_sep_matrix_bruteforce(
    index: EdgeIndex,
    params: SimilarityParams,
    pruning: PruningParams | None = None,
) -> SepMatrix:
    """Reference builder: the literal double loop over every edge pair.

    Quadratic and slow by design; exists so the optimized builder has an
    independent implementation to be checked against entrywise. The
    neighbour cap is re-derived here with plain sorting rather than shared
    with the fast path.
    """
    pruning = pruning or PruningParams()
    d_max = sigma_cutoff_km(params, pruning.sigma_floor)
    n = index.n_edges
    slot_sets = [set(s.tolist()) for s in np.split(index.slot_vals, index.slot_ptr[1:-1])]

    weights: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            if not slot_sets[i] & slot_sets[j]:
                continue
            # one-element slices, so the distance and the weight come from the
            # same array kernels as the fast builder's, to the last bit
            d = haversine_km(
                (index.lat[i : i + 1], index.lon[i : i + 1]),
                (index.lat[j : j + 1], index.lon[j : j + 1]),
                params.earth_radius_km,
            )
            if d[0] <= d_max:
                weights[(i, j)] = float(sigma(d, params)[0])

    by_edge: dict[int, list[tuple[float, int]]] = defaultdict(list)
    for (i, j), w in weights.items():
        by_edge[i].append((w, j))
        by_edge[j].append((w, i))
    kept: set[tuple[int, int]] = set()
    for e, links in by_edge.items():
        links.sort(key=lambda t: (-t[0], t[1]))
        for w, other in links[: pruning.max_neighbors]:
            kept.add((e, other))

    survivors = [
        (i, j, w) for (i, j), w in sorted(weights.items()) if (i, j) in kept and (j, i) in kept
    ]
    ii = np.array([i for i, _, _ in survivors], dtype=np.int64)
    jj = np.array([j for _, j, _ in survivors], dtype=np.int64)
    vals = np.array([w for _, _, w in survivors], dtype=np.float64)
    return SepMatrix(n, ii, jj, vals)


def scalar_city(cfg) -> dict:
    """generate_city(cfg)'s user_home and five check-in columns, drawn by one
    Generator call per draw, and whether the bit generator held back a 32-bit
    half when the check-in loop began ("held")."""
    rng = np.random.default_rng(cfg.seed)
    half_lat, half_lon = BOX_KM / 2.0 / KM_PER_DEG_LAT, BOX_KM / 2.0 / KM_PER_DEG_LON
    rng.uniform(CENTER_LAT - half_lat, CENTER_LAT + half_lat, cfg.n_districts)
    rng.uniform(CENTER_LON - half_lon, CENTER_LON + half_lon, cfg.n_districts)
    scene_slots = []
    for _ in range(cfg.n_districts):
        pool = rng.choice(SLOTS_PER_WEEK, cfg.themes_per_district * SLOTS_PER_SCENE, replace=False)
        scene_slots += [
            np.sort(pool[t * SLOTS_PER_SCENE : (t + 1) * SLOTS_PER_SCENE])
            for t in range(cfg.themes_per_district)
        ]
    item_district = np.arange(cfg.n_items) % cfg.n_districts
    position = np.arange(cfg.n_items) // cfg.n_districts
    n_landmarks = math.ceil(cfg.n_items // cfg.n_districts * LANDMARK_FRAC)
    item_scene = np.where(
        position < n_landmarks,
        LANDMARK,
        item_district * cfg.themes_per_district + (position - n_landmarks) % cfg.themes_per_district,
    )
    rng.normal(0.0, JITTER_KM / KM_PER_DEG_LAT, cfg.n_items)
    rng.normal(0.0, JITTER_KM / KM_PER_DEG_LON, cfg.n_items)
    scene_items = [np.flatnonzero(item_scene == s) for s in range(cfg.n_scenes)]
    landmark_items = [
        np.flatnonzero((item_scene == LANDMARK) & (item_district == d))
        for d in range(cfg.n_districts)
    ]
    user_home = rng.integers(0, cfg.n_scenes, size=cfg.n_users)
    held = bool(rng.bit_generator.state["has_uint32"])

    user, item, slot, week, minute = np.empty((5, cfg.n_checkins), dtype=np.int64)
    for r in range(cfg.n_checkins):
        user[r] = rng.integers(cfg.n_users)
        home = user_home[user[r]]
        if rng.random() < HOME_AFFINITY:
            landmarks = landmark_items[home // cfg.themes_per_district]
            pool = landmarks if rng.random() < LANDMARK_RATE else scene_items[home]
        else:
            pool = scene_items[rng.integers(cfg.n_scenes)]
        item[r] = pool[rng.integers(len(pool))]
        if rng.random() < SLOT_AFFINITY:
            slot[r] = scene_slots[home][rng.integers(SLOTS_PER_SCENE)]
        else:
            slot[r] = rng.integers(SLOTS_PER_WEEK)
        week[r] = rng.integers(WEEKS)
        minute[r] = rng.integers(60)
    columns = {"user": user, "item": item, "slot": slot, "week": week, "minute": minute}
    return {**columns, "user_home": user_home, "held": held}


def scalar_checkins(bit_generator, cfg, user_home, item_scene, item_district, scene_slots):
    """The five check-in columns that generate_city's loop drew, one
    _scalar_draws call per draw, from bit_generator's state and raw words."""
    scene_items = [np.flatnonzero(item_scene == s).tolist() for s in range(cfg.n_scenes)]
    landmark_items = [
        np.flatnonzero((item_scene == LANDMARK) & (item_district == d)).tolist()
        for d in range(cfg.n_districts)
    ]
    random, integers = _scalar_draws(bit_generator)
    homes, hours = user_home.tolist(), [h.tolist() for h in scene_slots]
    user, item, slot, week, minute = np.empty((5, cfg.n_checkins), dtype=np.int64)
    for r in range(cfg.n_checkins):
        user[r] = visitor = integers(cfg.n_users)
        home = homes[visitor]
        if random() < HOME_AFFINITY:
            landmarks = landmark_items[home // cfg.themes_per_district]
            pool = landmarks if random() < LANDMARK_RATE else scene_items[home]
        else:
            pool = scene_items[integers(cfg.n_scenes)]
        item[r] = pool[integers(len(pool))]
        # visits happen on the visitor's schedule, whatever the target
        if random() < SLOT_AFFINITY:
            slot[r] = hours[home][integers(SLOTS_PER_SCENE)]
        else:
            slot[r] = integers(SLOTS_PER_WEEK)
        week[r] = integers(WEEKS)
        minute[r] = integers(60)
    return np.stack([user, item, slot, week, minute])
