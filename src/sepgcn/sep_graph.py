"""Edge-pair context graph: two train interactions are linked when their
check-ins share a weekly slot and their venues sit within the similarity
cutoff. Candidate generation joins a uniform spatial grid with a per-slot
inverted index so the quadratic pair scan is never materialized; it makes
each pair once, in blocks of bounded size, and the neighbour cap ranks each
edge's links with one weight sort and a radix grouping. A literal
double-loop builder is kept alongside as the reference implementation.
"""
from __future__ import annotations

import json
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, product
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, InputDataError
from .geo import SimilarityParams, haversine_km, sigma, sigma_cutoff_km

logger = logging.getLogger(__name__)

SEPMAT_MAGIC = "SEPMAT1"

# Cell offsets that visit each unordered cell pair exactly once.
_FORWARD_OFFSETS = [o for o in product((-1, 0, 1), repeat=3) if o > (0, 0, 0)]

# candidate_pairs makes pairs in blocks of at most this many and counts them
# against the budget once about this many are held, so its temporaries stay
# bounded however many edges share a bucket.
_CHUNK = 1 << 19

_WORD = (1 << 64) - 1


@dataclass
class PruningParams:
    """Knobs that keep the edge-pair graph sparse.

    sigma_floor induces the distance cutoff (the radius where the
    similarity decays to the floor); max_neighbors caps each edge's
    retained links at the strongest ones; pair_budget caps the candidate
    pairs, those that share a slot, counted before the distance test. The
    count grows as candidate generation produces pairs, so an over-dense
    instance stops with a ConfigError before it exhausts memory.
    """

    sigma_floor: float = 0.01
    max_neighbors: int = 64
    pair_budget: int = 5_000_000

    def validate(self, alpha_sim: float) -> None:
        if not (0.0 < self.sigma_floor < alpha_sim):
            raise ConfigError(
                f"sigma_floor must lie in (0, alpha_sim={alpha_sim}), got {self.sigma_floor}"
            )
        if self.max_neighbors < 1:
            raise ConfigError(f"max_neighbors must be >= 1, got {self.max_neighbors}")
        if self.pair_budget < 1:
            raise ConfigError(f"pair_budget must be >= 1, got {self.pair_budget}")


@dataclass
class EdgeIndex:
    """Train interactions in a fixed canonical order, ready for pairing.

    Edge k is the k-th train interaction of the dataset; `edge_id` maps
    (user, item) back to k. Locations are the item's coordinates and
    `slots` holds each edge's distinct weekly slots, sorted.
    """

    users: np.ndarray
    items: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    slots: tuple[tuple[int, ...], ...]
    edge_id: dict[tuple[int, int], int]

    @property
    def n_edges(self) -> int:
        return len(self.users)

    @classmethod
    def from_dataset(cls, dataset) -> "EdgeIndex":
        train = dataset.train_interactions()
        users = np.fromiter((it.user for it in train), dtype=np.int64, count=len(train))
        items = np.fromiter((it.item for it in train), dtype=np.int64, count=len(train))
        edge_id: dict[tuple[int, int], int] = {}
        for k, it in enumerate(train):
            key = (it.user, it.item)
            if key in edge_id:
                raise InputDataError(f"duplicate train interaction {key}")
            edge_id[key] = k
        slots = tuple(tuple(sorted(set(it.slots))) for it in train)
        return cls(
            users=users,
            items=items,
            lat=dataset.item_lat[items] if len(items) else np.zeros(0),
            lon=dataset.item_lon[items] if len(items) else np.zeros(0),
            slots=slots,
            edge_id=edge_id,
        )


@dataclass
class SepMatrix:
    """Sparse symmetric matrix of edge-pair similarities.

    rows/cols/values store every entry, both (i,j) and (j,i), sorted by
    (row, col). `raw_degrees` is the row sum of the raw builder output and
    survives normalization so the propagation step can tell live edges from
    isolated ones.
    """

    n_edges: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    normalization: str = "raw"
    raw_degrees: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.raw_degrees is None and self.normalization == "raw":
            self.raw_degrees = np.bincount(
                self.rows.astype(np.int64), weights=self.values, minlength=self.n_edges
            )

    @property
    def nnz(self) -> int:
        return len(self.values)

    def active_edges(self) -> np.ndarray:
        """Boolean mask of edges that carry at least one link."""
        mask = np.zeros(self.n_edges, dtype=bool)
        mask[self.rows] = True
        return mask

    def to_csr(self) -> sp.csr_matrix:
        return sp.coo_matrix(
            (self.values, (self.rows, self.cols)), shape=(self.n_edges, self.n_edges)
        ).tocsr()


def _slot_masks(slots, edges: np.ndarray, n_edges: int) -> np.ndarray:
    """Weekly-slot bit masks of the given edges, one row of uint64 words per edge.

    Rows of edges not listed stay zero; 168 weekly slots take three words.
    """
    words = max((max(slots[e]) for e in edges), default=0) // 64 + 1
    masks = np.zeros((n_edges, words), dtype=np.uint64)
    for e in edges:
        bits = sum(1 << int(s) for s in slots[e])
        masks[e] = [(bits >> (64 * w)) & _WORD for w in range(words)]
    return masks


def _bucket_blocks(members: np.ndarray, other: np.ndarray | None):
    """The pairs of one bucket as (lower id, higher id) blocks of at most _CHUNK pairs.

    With `other` None the pairs are the upper triangle of `members` (sorted
    ascending); otherwise they are the product members x other.
    """
    k = len(members)
    if other is None:
        rows = np.arange(k)
        first = rows * k - rows * (rows + 1) // 2  # pairs listed before row r
        total = k * (k - 1) // 2
    else:
        total = k * len(other)
    for start in range(0, total, _CHUNK):
        t = np.arange(start, min(start + _CHUNK, total))
        if other is None:
            r = np.searchsorted(first, t, side="right") - 1
            yield members[r], members[t - first[r] + r + 1]
        else:
            a = members[t // len(other)]
            b = other[t % len(other)]
            yield np.minimum(a, b), np.maximum(a, b)


def candidate_pairs(index: EdgeIndex, params: SimilarityParams, pruning: PruningParams):
    """All unordered edge pairs with a shared slot and distance <= the cutoff.

    Returns (edge_i, edge_j, d_km) arrays sorted by (edge_i, edge_j) with
    edge_i < edge_j. Edges are bucketed by (grid cell, slot) where the grid
    lives in 3D chord space with cell size equal to the cutoff's chord
    length, so scanning the 27-cell neighbourhood can never miss a pair
    within the cutoff, at any latitude or across the antimeridian.

    A pair is produced once, in the bucket of the lowest slot its two edges
    share, and in blocks of at most _CHUNK pairs. Each block counts against
    pruning.pair_budget before its distances are taken, so an over-dense
    instance stops with a ConfigError while its working memory stays bounded.
    """
    params.validate()
    pruning.validate(params.alpha_sim)
    d_max = sigma_cutoff_km(params, pruning.sigma_floor)
    n = index.n_edges
    empty = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))
    if n < 2:
        return empty

    radius = params.earth_radius_km
    lat = np.radians(index.lat)
    lon = np.radians(index.lon)
    xyz = np.stack(
        [
            radius * np.cos(lat) * np.cos(lon),
            radius * np.cos(lat) * np.sin(lon),
            radius * np.sin(lat),
        ],
        axis=1,
    )
    arc = min(d_max, np.pi * radius)
    chord = 2.0 * radius * np.sin(arc / (2.0 * radius))
    chord = max(chord, 1e-9)  # degenerate cutoffs still group co-located edges
    cells = np.floor(xyz / chord).astype(np.int64)

    # bucket (cell, slot) -> its edges, ascending
    cell_keys, cell_of = np.unique(cells, axis=0, return_inverse=True)
    n_slots = np.fromiter((len(s) for s in index.slots), dtype=np.int64, count=n)
    edge_of = np.repeat(np.arange(n), n_slots)
    slot_of = np.fromiter(chain.from_iterable(index.slots), dtype=np.int64, count=len(edge_of))
    width = int(slot_of.max(initial=0)) + 1
    bucket_of = cell_of.reshape(-1)[edge_of] * width + slot_of
    order = np.argsort(bucket_of, kind="stable")
    bucket_of, edge_of = bucket_of[order], edge_of[order]
    starts = np.flatnonzero(np.diff(bucket_of, prepend=-1))
    ends = np.append(starts[1:], len(bucket_of))
    cell_tuples = [tuple(c) for c in cell_keys.tolist()]
    arrays = {
        (cell_tuples[b // width], b % width): edge_of[lo:hi]
        for b, lo, hi in zip(bucket_of[starts].tolist(), starts.tolist(), ends.tolist())
    }

    # Only two edges that both hold several slots can share one below the
    # bucket's slot; their masks decide whether a lower bucket owns the pair.
    multi = n_slots > 1
    masks = _slot_masks(index.slots, np.flatnonzero(multi), n)

    held: list[tuple[np.ndarray, np.ndarray]] = []
    n_held = 0
    n_candidates = 0
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [empty]

    def drain() -> None:
        """Count the held pairs against the budget and keep those within the cutoff."""
        nonlocal n_held, n_candidates
        if not held:
            return
        ii = np.concatenate([a for a, _ in held])
        jj = np.concatenate([b for _, b in held])
        held.clear()
        n_held = 0
        n_candidates += len(ii)
        if n_candidates > pruning.pair_budget:
            raise ConfigError(
                f"candidate pair count exceeds pair_budget={pruning.pair_budget}; "
                "raise pruning.sigma_floor to shorten the distance cutoff, "
                "or raise pruning.pair_budget"
            )
        dd = haversine_km((index.lat[ii], index.lon[ii]), (index.lat[jj], index.lon[jj]), radius)
        near = dd <= d_max
        found.append((ii[near], jj[near], dd[near]))

    for (cell, slot), members in arrays.items():
        below = np.array(
            [(((1 << int(slot)) - 1) >> (64 * w)) & _WORD for w in range(masks.shape[1])],
            dtype=np.uint64,
        )
        others = [None] if len(members) > 1 else []  # None pairs the bucket with itself
        for off in _FORWARD_OFFSETS:
            other = arrays.get(((cell[0] + off[0], cell[1] + off[1], cell[2] + off[2]), slot))
            if other is not None:
                others.append(other)
        for other in others:
            for a, b in _bucket_blocks(members, other):
                both = np.flatnonzero(multi[a] & multi[b])
                if len(both):
                    earlier = (masks[a[both]] & masks[b[both]] & below).any(axis=1)
                    if earlier.any():
                        first_here = np.ones(len(a), dtype=bool)
                        first_here[both[earlier]] = False
                        a, b = a[first_here], b[first_here]
                held.append((a, b))
                n_held += len(a)
                if n_held >= _CHUNK:
                    drain()
    drain()
    ii, jj, dd = (np.concatenate(part) for part in zip(*found))
    found.clear()
    order = np.argsort(ii * n + jj)
    return ii[order], jj[order], dd[order]


def _stable_argsort_ids(ids: np.ndarray, n: int) -> np.ndarray:
    """Stable argsort of ids in [0, n), as least-significant-digit radix passes.

    numpy sorts 16-bit keys stably with a radix sort, so each pass sorts one
    16-bit digit of the ids, lowest digit first.
    """
    order = np.argsort(ids.astype(np.uint16), kind="stable")  # the cast keeps the low 16 bits
    shift = 16
    while (n - 1) >> shift:
        digit = (ids >> shift).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
        shift += 16
    return order


def _neighbor_cap(ii, jj, vals, n_edges, max_neighbors):
    """Keep the pairs that are among the top max_neighbors links of both ends.

    Each edge ranks its links by weight, descending, and ties break toward
    the smaller neighbour id so the result never depends on input order.
    The pairs arrive sorted by (i, j), so a stable sort by weight lists every
    edge's links in exactly that order; grouping the endpoints stably by
    edge id then gives each link its rank at both of its ends. The kept
    pairs stay in (i, j) order.
    """
    if len(ii) == 0:
        return ii, jj, vals
    by_weight = np.argsort(-vals, kind="stable")
    ends = np.empty(2 * len(ii), dtype=np.int64)
    ends[0::2] = ii[by_weight]
    ends[1::2] = jj[by_weight]
    grouped = _stable_argsort_ids(ends, n_edges)
    counts = np.bincount(ends, minlength=n_edges)
    tails = counts - np.minimum(counts, max_neighbors)  # links each edge ranks too low
    heads = counts - tails
    # positions in `grouped` of each edge's first `heads` links
    firsts = np.arange(heads.sum()) + np.repeat(np.cumsum(tails) - tails, heads)
    top = np.zeros(len(ends), dtype=bool)
    top[grouped[firsts]] = True
    keep = np.zeros(len(ii), dtype=bool)
    keep[by_weight[top[0::2] & top[1::2]]] = True
    return ii[keep], jj[keep], vals[keep]


def build_sep_matrix(
    index: EdgeIndex,
    params: SimilarityParams,
    pruning: PruningParams | None = None,
    unit_values: bool = False,
) -> SepMatrix:
    """Raw edge-pair similarity matrix over the candidate pairs.

    Stores both orientations of every surviving pair. An empty result is
    legal (the model then degrades to plain propagation) and only warns.
    With unit_values every surviving pair weighs 1.0 (time-only ablation);
    the neighbour cap then falls back to its neighbour-id tie-break.
    """
    pruning = pruning or PruningParams()
    ii, jj, dd = candidate_pairs(index, params, pruning)
    vals = sigma(dd, params) if len(dd) else np.zeros(0)
    if unit_values:
        vals = np.ones_like(vals)
    ii, jj, vals = _neighbor_cap(ii, jj, vals, index.n_edges, pruning.max_neighbors)
    if len(ii) == 0:
        logger.warning(
            "edge-pair graph is empty; propagation will behave like the plain baseline"
        )
    rows = np.concatenate([ii, jj])
    cols = np.concatenate([jj, ii])
    values = np.concatenate([vals, vals])
    order = np.lexsort((cols, rows))
    return SepMatrix(
        n_edges=index.n_edges,
        rows=rows[order],
        cols=cols[order],
        values=values[order],
        normalization="raw",
        meta={
            "alpha_sim": params.alpha_sim,
            "median_km": params.median_km,
            "sigma_floor": pruning.sigma_floor,
            "max_neighbors": pruning.max_neighbors,
            "unit_values": bool(unit_values),
        },
    )


def build_sep_matrix_bruteforce(
    index: EdgeIndex,
    params: SimilarityParams,
    pruning: PruningParams | None = None,
    unit_values: bool = False,
) -> SepMatrix:
    """Reference builder: the literal double loop over every edge pair.

    Quadratic and slow by design; exists so the optimized builder has an
    independent implementation to be checked against entrywise. The
    neighbour cap is re-derived here with plain sorting rather than shared
    with the fast path.
    """
    pruning = pruning or PruningParams()
    params.validate()
    pruning.validate(params.alpha_sim)
    d_max = sigma_cutoff_km(params, pruning.sigma_floor)
    n = index.n_edges
    slot_sets = [set(s) for s in index.slots]

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
                weights[(i, j)] = 1.0 if unit_values else float(sigma(d, params)[0])

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
    rows = np.array([p for i, j, _ in survivors for p in (i, j)], dtype=np.int64)
    cols = np.array([p for i, j, _ in survivors for p in (j, i)], dtype=np.int64)
    values = np.array([w for _, _, w in survivors for _ in (0, 1)])
    order = np.lexsort((cols, rows))
    return SepMatrix(
        n_edges=n,
        rows=rows[order],
        cols=cols[order],
        values=values[order],
        normalization="raw",
        meta={
            "alpha_sim": params.alpha_sim,
            "median_km": params.median_km,
            "sigma_floor": pruning.sigma_floor,
            "max_neighbors": pruning.max_neighbors,
            "unit_values": bool(unit_values),
        },
    )


def normalize_sep(matrix: SepMatrix) -> SepMatrix:
    """Scale the raw weights for propagation.

    Divides each entry by sqrt(deg_i * deg_j) with degrees taken from the
    raw row sums. Isolated edges have no entries, so they are untouched.
    """
    if matrix.normalization != "raw":
        raise ConfigError(f"cannot normalize a {matrix.normalization!r} matrix; need raw")
    deg = matrix.raw_degrees
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.sqrt(deg)
    inv[~np.isfinite(inv)] = 0.0
    # group the scale factors so (i,j) and (j,i) round identically
    values = matrix.values * (inv[matrix.rows] * inv[matrix.cols])
    return SepMatrix(
        n_edges=matrix.n_edges,
        rows=matrix.rows.copy(),
        cols=matrix.cols.copy(),
        values=values,
        normalization="sym_degree",
        raw_degrees=deg.copy(),
        meta=dict(matrix.meta),
    )


def save_sep_matrix(matrix: SepMatrix, path: str | Path) -> None:
    """Line-based export of the upper triangle, byte-stable for identical inputs."""
    path = Path(path)
    meta = {
        "n_edges": matrix.n_edges,
        "normalization": matrix.normalization,
        "storage": "upper",
        **matrix.meta,
    }
    keep = matrix.rows < matrix.cols
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.write(f"{SEPMAT_MAGIC} {json.dumps(meta, sort_keys=True)}\n")
        for i, j, v in zip(matrix.rows[keep], matrix.cols[keep], matrix.values[keep]):
            f.write(f"{i}\t{j}\t{float(v)!r}\n")


def _sep_header(path: Path, header: str) -> dict:
    """The JSON header of a matrix file, with the keys load_sep_matrix reads checked."""
    if not header.startswith(SEPMAT_MAGIC + " "):
        raise InputDataError(f"{path}: bad header {header[:40]!r}")
    try:
        meta = json.loads(header[len(SEPMAT_MAGIC) + 1 :])
    except ValueError:
        raise InputDataError(f"{path}: matrix header is not JSON") from None
    if not isinstance(meta, dict):
        raise InputDataError(f"{path}: matrix header must be a JSON object")
    n_edges = meta.get("n_edges")
    if type(n_edges) is not int or n_edges < 0:
        raise InputDataError(f"{path}: n_edges must be a non-negative integer, got {n_edges!r}")
    if meta.get("normalization") not in ("raw", "sym_degree"):
        raise InputDataError(
            f"{path}: normalization must be raw or sym_degree, got {meta.get('normalization')!r}"
        )
    if meta.get("storage") != "upper":
        raise InputDataError(f"{path}: storage must be upper, got {meta.get('storage')!r}")
    return meta


def load_sep_matrix(path: str | Path) -> SepMatrix:
    """Read a matrix file; every malformed line or value is an InputDataError.

    Each stored entry must be an upper-triangle pair i < j < n_edges, listed
    once, with a finite positive weight.
    """
    path = Path(path)
    if not path.exists():
        raise InputDataError(f"matrix file not found: {path}")
    try:
        with path.open("r", encoding="utf-8") as f:
            meta = _sep_header(path, f.readline().rstrip("\n"))
            n_edges = meta["n_edges"]
            ii: list[int] = []
            jj: list[int] = []
            vv: list[float] = []
            for lineno, line in enumerate(f, start=2):
                try:
                    i, j, v = line.rstrip("\n").split("\t")
                    i, j, v = int(i), int(j), float(v)
                except ValueError:
                    raise InputDataError(
                        f"{path}:{lineno}: expected 'row<TAB>col<TAB>value', got {line[:60]!r}"
                    ) from None
                if not 0 <= i < j < n_edges:
                    raise InputDataError(
                        f"{path}:{lineno}: entry ({i}, {j}) is not an upper-triangle "
                        f"pair of the {n_edges} edges"
                    )
                if not (math.isfinite(v) and v > 0.0):
                    raise InputDataError(f"{path}:{lineno}: weight {v!r} is not positive and finite")
                ii.append(i)
                jj.append(j)
                vv.append(v)
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{path}: matrix file is not UTF-8 text ({exc.reason})") from None
    upper_rows = np.array(ii, dtype=np.int64)
    upper_cols = np.array(jj, dtype=np.int64)
    if len(np.unique(upper_rows * n_edges + upper_cols)) != len(upper_rows):
        raise InputDataError(f"{path}: an edge pair is listed twice")
    rows = np.concatenate([upper_rows, upper_cols])
    cols = np.concatenate([upper_cols, upper_rows])
    values = np.concatenate([vv, vv])
    order = np.lexsort((cols, rows))
    extra = {k: v for k, v in meta.items() if k not in ("n_edges", "normalization", "storage")}
    return SepMatrix(
        n_edges=n_edges,
        rows=rows[order],
        cols=cols[order],
        values=values[order],
        normalization=meta["normalization"],
        meta=extra,
    )
