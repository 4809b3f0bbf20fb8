"""Edge-pair context graph: two train interactions are linked when their
check-ins share a weekly slot and their venues sit within the similarity
cutoff, and each edge keeps its max_neighbors strongest links. Candidate
generation queries a k-d tree per weekly slot for each edge's nearest
slot-sharing edges, so it lists a small superset of the kept links rather
than every linked pair; the neighbour cap then ranks each edge's links with
one weight sort and one stable grouping by edge. A literal double-loop
builder is kept alongside as the reference implementation.
"""
from __future__ import annotations

import json
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, InputDataError
from .geo import SimilarityParams, haversine_km, sigma, sigma_cutoff_km

logger = logging.getLogger(__name__)

SEPMAT_MAGIC = "SEPMAT1"

@dataclass
class PruningParams:
    """Knobs that keep the edge-pair graph sparse.

    sigma_floor induces the distance cutoff (the radius where the
    similarity decays to the floor); max_neighbors caps each edge's
    retained links at the strongest ones, and a value of at least the edge
    count keeps every link; pair_budget caps the superset entries, the
    (edge, neighbour) entries that candidate generation's per-slot queries
    return, counted before any pair is listed, so an over-dense instance
    (many edges at one venue in one slot) stops with a ConfigError before
    it exhausts memory.
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

    Edge k is the k-th train interaction of the dataset. Locations are the
    item's coordinates and `slots` holds each edge's distinct weekly slots,
    sorted.
    """

    users: np.ndarray
    items: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    slots: tuple[tuple[int, ...], ...]

    @property
    def n_edges(self) -> int:
        return len(self.users)

    @classmethod
    def from_dataset(cls, dataset) -> "EdgeIndex":
        train = dataset.train_interactions()
        users = np.fromiter((it.user for it in train), dtype=np.int64, count=len(train))
        items = np.fromiter((it.item for it in train), dtype=np.int64, count=len(train))
        _, first = np.unique(users * dataset.n_items + items, return_index=True)
        if len(first) < len(train):
            k = np.setdiff1d(np.arange(len(train)), first)[0]  # the first repeat
            raise InputDataError(f"duplicate train interaction {(int(users[k]), int(items[k]))}")
        slots = tuple(tuple(sorted(set(it.slots))) for it in train)
        return cls(
            users=users,
            items=items,
            lat=dataset.item_lat[items] if len(items) else np.zeros(0),
            lon=dataset.item_lon[items] if len(items) else np.zeros(0),
            slots=slots,
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


def candidate_pairs(
    index: EdgeIndex,
    params: SimilarityParams,
    pruning: PruningParams,
    unit_values: bool = False,
):
    """Slot-sharing edge pairs that include every edge's top max_neighbors links.

    Returns (edge_i, edge_j, d_km) arrays sorted by (edge_i, edge_j) with
    edge_i < edge_j, each pair within the distance cutoff (unit_values skips
    that test). sigma strictly decreases with distance, so an edge's top
    links are its nearest slot-sharing edges, ties going to the smaller id.
    In each weekly slot a k-d tree over the 3-D chord coordinates gives
    every member the distance r to its max_neighbors-th nearest other
    member, and the member pairs with all members within min(r, cutoff),
    padded. Under unit_values links rank by id alone, so each member pairs
    with the slot's max_neighbors + 1 smallest ids. _neighbor_cap keeps the
    same pairs from any set that holds every edge's top links: a top link
    ranks the same at both ends, and any other one ranks too low at one end.

    Each slot's (edge, neighbour) entries are counted against
    pruning.pair_budget before they are listed, so an over-dense instance
    stops with a ConfigError while its working memory stays bounded.
    """
    # imported here: scipy.spatial adds about 10 MB to the peak memory of
    # every stage that imports this module, and only the builder needs it
    from scipy.spatial import cKDTree

    params.validate()
    pruning.validate(params.alpha_sim)
    d_max = sigma_cutoff_km(params, pruning.sigma_floor)
    n = index.n_edges
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
    # The pad covers chord-vs-haversine round-off and the distances whose
    # weights round equal to the k-th's: sigma = exp(-d / L) with decay
    # length L, so those lie within about 1e-16 * L of each other.
    slack = 1e-9 * (1.0 + params.median_km / abs(math.log(params.alpha_sim)))
    arc = min(d_max, np.pi * radius)
    chord_cutoff = 2.0 * radius * np.sin(arc / (2.0 * radius)) * (1.0 + 1e-9) + slack

    n_slots = np.fromiter((len(s) for s in index.slots), dtype=np.int64, count=n)
    slot_of = np.fromiter(chain.from_iterable(index.slots), dtype=np.int64, count=n_slots.sum())
    by_slot = np.argsort(slot_of, kind="stable")
    starts = np.flatnonzero(np.diff(slot_of[by_slot], prepend=-1))
    n_entries = 0
    keys = [np.zeros(0, np.int64)]
    for members in np.split(np.repeat(np.arange(n), n_slots)[by_slot], starts[1:]):
        m = len(members)  # ascending edge ids
        if m < 2:
            continue
        k = min(pruning.max_neighbors + 1, m)  # a member is its own nearest
        if unit_values:
            n_entries += (m - 1) * k
            a, b = np.repeat(members, k), np.tile(members[:k], m)
        else:
            tree = cKDTree(xyz[members])
            r_k = tree.query(xyz[members], k=[k])[0][:, 0]
            balls = np.minimum(r_k * (1.0 + 1e-9) + slack, chord_cutoff)
            n_entries += int(tree.query_ball_point(xyz[members], balls, return_length=True).sum()) - m
        if n_entries > pruning.pair_budget:
            raise ConfigError(
                f"candidate pair count exceeds pair_budget={pruning.pair_budget}; "
                "raise pruning.sigma_floor to shorten the distance cutoff, "
                "or raise pruning.pair_budget"
            )
        if not unit_values:
            hits = tree.query_ball_point(xyz[members], balls)
            a = np.repeat(members, np.fromiter(map(len, hits), dtype=np.int64, count=m))
            b = members[np.fromiter(chain.from_iterable(hits), dtype=np.int64, count=len(a))]
        keys.append(np.minimum(a, b) * n + np.maximum(a, b))
    keys = np.unique(np.concatenate(keys))  # sorted by (i, j)
    ii, jj = keys // n, keys % n
    dd = haversine_km((index.lat[ii], index.lon[ii]), (index.lat[jj], index.lon[jj]), radius)
    keep = (ii != jj) & (unit_values | (dd <= d_max))
    return ii[keep], jj[keep], dd[keep]


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
    grouped = np.argsort(ends, kind="stable")
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
    With unit_values every pair that shares a slot weighs 1.0, whatever its
    distance (time-only ablation); the neighbour cap then falls back to its
    neighbour-id tie-break.
    """
    pruning = pruning or PruningParams()
    ii, jj, dd = candidate_pairs(index, params, pruning, unit_values)
    vals = sigma(dd, params) if len(dd) else np.zeros(0)
    if unit_values:
        vals = np.ones_like(vals)
    cap = min(pruning.max_neighbors, index.n_edges)  # a larger cap keeps every link
    ii, jj, vals = _neighbor_cap(ii, jj, vals, index.n_edges, cap)
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
    with the fast path. With unit_values the distance test is skipped, as
    in build_sep_matrix.
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
            if unit_values or d[0] <= d_max:
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
