"""Edge-pair context graph: two train interactions are linked when their
check-ins share a weekly slot and their venues sit within the similarity
cutoff. Candidate generation joins a uniform spatial grid with a per-slot
inverted index so the quadratic pair scan is never materialized; a literal
double-loop builder is kept alongside as the reference implementation.
"""
from __future__ import annotations

import json
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, InputDataError
from .geo import SimilarityParams, haversine_km, sigma, sigma_cutoff_km

logger = logging.getLogger(__name__)

SEPMAT_MAGIC = "SEPMAT1"

# Cell offsets that visit each unordered cell pair exactly once.
_FORWARD_OFFSETS = [o for o in product((-1, 0, 1), repeat=3) if o > (0, 0, 0)]


@dataclass
class PruningParams:
    """Knobs that keep the edge-pair graph sparse.

    sigma_floor induces the distance cutoff (the radius where the
    similarity decays to the floor); max_neighbors caps each edge's
    retained links at the strongest ones; pair_budget aborts candidate
    generation before an over-dense instance exhausts memory.
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


def candidate_pairs(index: EdgeIndex, params: SimilarityParams, pruning: PruningParams):
    """All unordered edge pairs with a shared slot and distance <= the cutoff.

    Returns (edge_i, edge_j, d_km) arrays sorted by (edge_i, edge_j) with
    edge_i < edge_j. Edges are bucketed by (grid cell, slot) where the grid
    lives in 3D chord space with cell size equal to the cutoff's chord
    length, so scanning the 27-cell neighbourhood can never miss a pair
    within the cutoff, at any latitude or across the antimeridian.
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

    buckets: dict[tuple[tuple[int, int, int], int], list[int]] = defaultdict(list)
    for e in range(n):
        cell = (int(cells[e, 0]), int(cells[e, 1]), int(cells[e, 2]))
        for s in index.slots[e]:
            buckets[(cell, s)].append(e)
    arrays = {key: np.asarray(members, dtype=np.int64) for key, members in buckets.items()}

    merged = np.zeros(0, dtype=np.int64)
    parts: list[np.ndarray] = []
    pending = 0

    def flush() -> np.ndarray:
        nonlocal merged, pending
        if parts:
            merged = np.unique(np.concatenate([merged, *parts]))
            parts.clear()
            pending = 0
        if len(merged) > pruning.pair_budget:
            raise ConfigError(
                f"candidate pair count exceeds pair_budget={pruning.pair_budget}; "
                "raise pruning.sigma_floor to shorten the distance cutoff, "
                "or raise pruning.pair_budget"
            )
        return merged

    for (cell, slot), members in sorted(arrays.items()):
        if len(members) > 1:
            ii, jj = np.triu_indices(len(members), k=1)
            parts.append(members[ii] * n + members[jj])
            pending += len(ii)
        for off in _FORWARD_OFFSETS:
            neighbour = (cell[0] + off[0], cell[1] + off[1], cell[2] + off[2])
            other = arrays.get((neighbour, slot))
            if other is None:
                continue
            a = np.repeat(members, len(other))
            b = np.tile(other, len(members))
            parts.append(np.minimum(a, b) * n + np.maximum(a, b))
            pending += len(a)
        if pending >= 4_000_000:
            flush()
    keys = flush()
    if len(keys) == 0:
        return empty

    ii = keys // n
    jj = keys % n
    dd = haversine_km((index.lat[ii], index.lon[ii]), (index.lat[jj], index.lon[jj]), radius)
    keep = dd <= d_max
    return ii[keep], jj[keep], dd[keep]


def _neighbor_cap(ii, jj, vals, n_edges, max_neighbors):
    """Keep each edge's top links by weight, then drop one-sided leftovers.

    Ties on the weight break toward the smaller neighbour id so the result
    never depends on input order.
    """
    if len(ii) == 0:
        return ii, jj, vals
    rows = np.concatenate([ii, jj])
    cols = np.concatenate([jj, ii])
    v = np.concatenate([vals, vals])
    order = np.lexsort((cols, -v, rows))
    rows, cols, v = rows[order], cols[order], v[order]
    first = np.searchsorted(rows, rows, side="left")
    rank = np.arange(len(rows)) - first
    kept = rank < max_neighbors
    kept_keys = rows[kept] * n_edges + cols[kept]
    mirror_keys = cols[kept] * n_edges + rows[kept]
    mutual = np.intersect1d(kept_keys, mirror_keys, assume_unique=True)
    upper = mutual[(mutual // n_edges) < (mutual % n_edges)]
    ui = upper // n_edges
    uj = upper % n_edges
    # look the values back up from the (sorted) original upper-triangle keys
    base = np.sort(ii * n_edges + jj)
    base_order = np.argsort(ii * n_edges + jj, kind="stable")
    pos = np.searchsorted(base, upper)
    return ui, uj, vals[base_order[pos]]


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
            d = haversine_km(
                (index.lat[i], index.lon[i]),
                (index.lat[j], index.lon[j]),
                params.earth_radius_km,
            )
            if d <= d_max:
                weights[(i, j)] = 1.0 if unit_values else float(sigma(d, params))

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
