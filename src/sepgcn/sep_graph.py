"""Edge-pair context graph: two train interactions are linked when their
check-ins share a weekly slot and their venues sit within the similarity
cutoff, and each edge keeps its max_neighbors strongest links. Candidate
generation queries a k-d tree per weekly slot, over one point per venue, for
each edge's nearest slot-sharing edges, so it lists a small superset of the
kept links, about max_neighbors + 1 per edge and slot, rather than every linked
pair; the neighbour cap then ranks each edge's links with one weight sort and
one stable grouping by edge. A literal double-loop builder is the reference.
"""
from __future__ import annotations

import io
import json
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .config import PruningParams, SimilarityParams
from .errors import ConfigError, InputDataError
from .geo import SLOTS_PER_WEEK, haversine_km, sigma, sigma_cutoff_km

logger = logging.getLogger(__name__)

SEPMAT_MAGIC = "SEPMAT1"


@dataclass
class EdgeIndex:
    """Train interactions in a fixed canonical order, ready for pairing.

    Edge k is the k-th train interaction of the dataset. Locations are the
    item's coordinates, and edge k's distinct weekly slots, sorted, are
    slot_vals[slot_ptr[k]:slot_ptr[k + 1]].
    """

    users: np.ndarray
    items: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    slot_ptr: np.ndarray
    slot_vals: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.users)

    @classmethod
    def from_dataset(cls, dataset) -> "EdgeIndex":
        edges = dataset.interactions
        train = ~edges.is_test
        users, items = edges.users[train], edges.items[train]
        _, first = np.unique(users * dataset.n_items + items, return_index=True)
        if len(first) < len(users):
            k = np.setdiff1d(np.arange(len(users)), first)[0]  # the first repeat
            raise InputDataError(f"duplicate train interaction {(int(users[k]), int(items[k]))}")
        # a key train_edge * SLOTS_PER_WEEK + slot per train check-in, sorted and distinct
        n_slots = np.diff(edges.slot_ptr)
        in_train = np.repeat(train, n_slots)
        edge_of = np.repeat(np.cumsum(train) - 1, n_slots)[in_train]
        keys = np.unique(edge_of * SLOTS_PER_WEEK + edges.slot_vals[in_train])
        per_edge = np.bincount(keys // SLOTS_PER_WEEK, minlength=len(users))
        return cls(
            users=users,
            items=items,
            lat=dataset.item_lat[items],
            lon=dataset.item_lon[items],
            slot_ptr=np.concatenate([[0], np.cumsum(per_edge)]),
            slot_vals=keys % SLOTS_PER_WEEK,
        )


@dataclass
class SepMatrix:
    """Sparse symmetric matrix of edge-pair similarities, each pair stored once.

    rows/cols/values hold the linked pairs i < j, sorted by (i, j); the
    symmetric matrix, with both (i,j) and (j,i), exists only in to_csr().
    normalization is "raw" for builder output and "sym_degree" once
    normalize_sep has scaled it.
    """

    n_edges: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    normalization: str = "raw"
    meta: dict = field(default_factory=dict)

    @property
    def nnz(self) -> int:
        """Entries of the symmetric matrix: two per pair."""
        return 2 * len(self.values)

    def active_edges(self) -> np.ndarray:
        """Boolean mask of edges that carry at least one link."""
        mask = np.zeros(self.n_edges, dtype=bool)
        mask[self.rows] = True
        mask[self.cols] = True
        return mask

    def to_csr(self) -> sp.csr_matrix:
        """The symmetric matrix, with its column indices sorted within each row."""
        return sp.csr_matrix(
            (
                np.concatenate([self.values, self.values]),
                (np.concatenate([self.rows, self.cols]), np.concatenate([self.cols, self.rows])),
            ),
            shape=(self.n_edges, self.n_edges),
        )


def candidate_pairs(index: EdgeIndex, params: SimilarityParams, pruning: PruningParams):
    """Slot-sharing edge pairs that include every edge's top max_neighbors links.

    Returns (edge_i, edge_j, d_km) arrays sorted by (edge_i, edge_j) with
    edge_i < edge_j, each pair within the distance cutoff. sigma strictly
    decreases with distance, so an edge's top links are its nearest
    slot-sharing edges, ties going to the smaller id. Each weekly slot groups
    its members by venue (exact coordinates), and a k-d tree over one 3-D
    chord point per venue gives every venue the distance r at which the
    members, counted nearest first, reach max_neighbors + 1 (a member is its
    own nearest). Each member then pairs with the venues within min(r,
    cutoff), padded; from each such venue it takes only the max_neighbors + 1
    smallest ids, since members of one venue are equally far from any edge
    and rank by id alone. _neighbor_cap keeps the same pairs from any set that
    holds every edge's top links: a top link ranks the same at both ends, and
    any other one ranks too low at one end.

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
    lat, lon = np.radians(index.lat), np.radians(index.lon)
    xyz = np.stack(
        [radius * np.cos(lat) * np.cos(lon), radius * np.cos(lat) * np.sin(lon), radius * np.sin(lat)],
        axis=1,
    )
    # The pad covers chord-vs-haversine round-off and the distances whose
    # weights round equal to the k-th's: sigma = exp(-d / L) with decay
    # length L, so those lie within about 1e-16 * L of each other.
    slack = 1e-9 * (1.0 + params.median_km / abs(math.log(params.alpha_sim)))
    arc = min(d_max, np.pi * radius)
    chord_cutoff = 2.0 * radius * np.sin(arc / (2.0 * radius)) * (1.0 + 1e-9) + slack

    by_slot = np.argsort(index.slot_vals, kind="stable")
    starts = np.flatnonzero(np.diff(index.slot_vals[by_slot], prepend=-1))
    n_entries = 0
    keys = [np.zeros(0, np.int64)]
    for members in np.split(np.repeat(np.arange(n), np.diff(index.slot_ptr))[by_slot], starts[1:]):
        m = len(members)  # ascending edge ids
        if m < 2:
            continue
        k = min(pruning.max_neighbors + 1, m)  # a member is its own nearest
        # one tree point per venue; each venue lists its members in ascending id order
        _, venue, sizes = np.unique(
            index.lat[members] + 1j * index.lon[members], return_inverse=True, return_counts=True
        )
        grouped = members[np.argsort(venue, kind="stable")]
        first = np.cumsum(sizes) - sizes
        pts = xyz[grouped[first]]
        tree = cKDTree(pts)
        dist, near = tree.query(pts, k=np.arange(1, min(k, len(pts)) + 1))
        # r_k: the nearest distance at which the venues' members add up to k
        r_k = np.where(np.cumsum(sizes[near], axis=1) >= k, dist, np.inf).min(axis=1)
        balls = np.minimum(r_k * (1.0 + 1e-9) + slack, chord_cutoff)
        hits = tree.query_ball_point(pts, balls)
        p = np.repeat(np.arange(len(pts)), np.fromiter(map(len, hits), dtype=np.int64, count=len(pts)))
        q = np.fromiter(chain.from_iterable(hits), dtype=np.int64, count=len(p))
        taken = np.minimum(sizes, k)  # the smallest ids a member takes from each venue
        n_entries += int(sizes[p] @ taken[q]) - int(taken.sum())  # less each member's own entry
        if n_entries > pruning.pair_budget:
            raise ConfigError(
                f"candidate pair count exceeds pair_budget={pruning.pair_budget}; each edge "
                "lists about max_neighbors + 1 slot mates per slot: lower "
                "pruning.max_neighbors or raise pruning.pair_budget"
            )
        # every member of venue p against the smallest ids of venue q
        a = grouped[_ranges(first[p], sizes[p])]
        q = np.repeat(q, sizes[p])  # the venue q of each (member, q) entry
        b = grouped[_ranges(first[q], taken[q])]
        a = np.repeat(a, taken[q])
        keys.append(np.minimum(a, b) * n + np.maximum(a, b))
    keys = np.unique(np.concatenate(keys))  # sorted by (i, j)
    ii, jj = keys // n, keys % n
    dd = haversine_km((index.lat[ii], index.lon[ii]), (index.lat[jj], index.lon[jj]), radius)
    keep = (ii != jj) & (dd <= d_max)
    return ii[keep], jj[keep], dd[keep]


def _ranges(starts, lengths):
    """The concatenated ranges starts[t] .. starts[t] + lengths[t] - 1."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


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


def _sep_matrix(n_edges, ii, jj, vals, params, pruning) -> SepMatrix:
    """The raw matrix of a builder's pairs, sorted by (i, j), with its build settings."""
    return SepMatrix(
        n_edges=n_edges,
        rows=ii,
        cols=jj,
        values=vals,
        normalization="raw",
        meta={
            "alpha_sim": params.alpha_sim,
            "median_km": params.median_km,
            "sigma_floor": pruning.sigma_floor,
            "max_neighbors": pruning.max_neighbors,
        },
    )


def build_sep_matrix(
    index: EdgeIndex,
    params: SimilarityParams,
    pruning: PruningParams | None = None,
) -> SepMatrix:
    """Raw edge-pair similarity matrix over the candidate pairs.

    An empty result is legal (the model then degrades to plain propagation)
    and only warns. An index whose edges all sit at one point weighs every
    slot-sharing pair sigma(0) = 1.0 (the time-only ablation); the neighbour
    cap then keeps links by neighbour id alone.
    """
    pruning = pruning or PruningParams()
    ii, jj, dd = candidate_pairs(index, params, pruning)
    vals = sigma(dd, params) if len(dd) else np.zeros(0)
    cap = min(pruning.max_neighbors, index.n_edges)  # a larger cap keeps every link
    ii, jj, vals = _neighbor_cap(ii, jj, vals, index.n_edges, cap)
    if len(ii) == 0:
        logger.warning(
            "edge-pair graph is empty; propagation will behave like the plain baseline"
        )
    return _sep_matrix(index.n_edges, ii, jj, vals, params, pruning)


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
    params.validate()
    pruning.validate(params.alpha_sim)
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
    return _sep_matrix(n, ii, jj, vals, params, pruning)


def normalize_sep(matrix: SepMatrix) -> SepMatrix:
    """Scale the raw weights for propagation.

    Divides each entry by sqrt(deg_i * deg_j), with deg the row sums of the
    symmetric matrix. Isolated edges have no entries, so they are untouched.
    """
    if matrix.normalization != "raw":
        raise ConfigError(f"cannot normalize a {matrix.normalization!r} matrix; need raw")
    # each row summed in column order, which fixes the rounding of the saved weights
    deg = matrix.to_csr() @ np.ones(matrix.n_edges)
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.sqrt(deg)
    inv[~np.isfinite(inv)] = 0.0
    return SepMatrix(
        n_edges=matrix.n_edges,
        rows=matrix.rows.copy(),
        cols=matrix.cols.copy(),
        values=matrix.values * (inv[matrix.rows] * inv[matrix.cols]),
        normalization="sym_degree",
        meta=dict(matrix.meta),
    )


_SAVE_BLOCK = 4096  # rows formatted per write


def save_sep_matrix(matrix: SepMatrix, path: str | Path) -> None:
    """Line-based export of the normalized pairs, byte-stable for identical inputs.

    Each pair is one i<TAB>j<TAB>repr(value) line, formatted a block of rows
    at a time.
    """
    if matrix.normalization != "sym_degree":
        raise ConfigError(f"only a normalized matrix is saved; this one is {matrix.normalization!r}")
    path = Path(path)
    meta = {
        "n_edges": matrix.n_edges,
        "normalization": matrix.normalization,
        "storage": "upper",
        **matrix.meta,
    }
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.write(f"{SEPMAT_MAGIC} {json.dumps(meta, sort_keys=True)}\n")
        for at in range(0, len(matrix.values), _SAVE_BLOCK):
            block = slice(at, at + _SAVE_BLOCK)
            rows = zip(*(a[block].tolist() for a in (matrix.rows, matrix.cols, matrix.values)))
            f.write("".join(map("%d\t%d\t%r\n".__mod__, rows)))


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
    if type(n_edges) is not int or not 0 <= n_edges <= np.iinfo(np.int64).max:
        raise InputDataError(f"{path}: n_edges must be an integer in [0, 2**63), got {n_edges!r}")
    if meta.get("normalization") != "sym_degree":
        raise InputDataError(
            f"{path}: normalization must be sym_degree, got {meta.get('normalization')!r}"
        )
    if meta.get("storage") != "upper":
        raise InputDataError(f"{path}: storage must be upper, got {meta.get('storage')!r}")
    return meta


def load_sep_matrix(path: str | Path) -> SepMatrix:
    """Read a matrix file; every malformed line or value is an InputDataError.

    Each stored entry must be a pair i < j < n_edges, listed once, with a
    finite positive weight. The pairs come back sorted by (i, j).
    save_sep_matrix's own layout is parsed as whole columns. Any other form,
    or a failed check, goes to the line-by-line reader, whose result or
    error (naming path:lineno) stands.
    """
    path = Path(path)
    if not path.exists():
        raise InputDataError(f"matrix file not found: {path}")
    try:
        meta, rows, cols, values = _sep_columns(path)
    except (ValueError, InputDataError):
        meta, rows, cols, values = _sep_lines(path)
    step_rows, step_cols = np.diff(rows), np.diff(cols)
    if np.any((step_rows < 0) | ((step_rows == 0) & (step_cols < 0))):
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        step_rows, step_cols = np.diff(rows), np.diff(cols)
    if np.any((step_rows == 0) & (step_cols == 0)):
        raise InputDataError(f"{path}: an edge pair is listed twice")
    extra = {k: v for k, v in meta.items() if k not in ("n_edges", "normalization", "storage")}
    return SepMatrix(
        n_edges=meta["n_edges"],
        rows=rows,
        cols=cols,
        values=values,
        normalization="sym_degree",
        meta=extra,
    )


_SEP_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
# every byte save_sep_matrix writes in a body of weights in (0, 1]; on a token
# spelled with these alone np.loadtxt and the line reader agree, or loadtxt
# rejects it
_SEP_BODY_BYTES = b"0123456789\t\n.e-"


def _sep_columns(path: Path):
    """(meta, rows, cols, values) of a body in the writer's layout, each line
    i<TAB>j<TAB>v, parsed in one call; ValueError on any other form,
    including ones the line reader accepts."""
    with path.open("rb") as f:
        header, body = f.readline(), f.read()
    if b"\r" in header or body.translate(None, _SEP_BODY_BYTES):
        raise ValueError("not the writer's bytes")
    if body.startswith(b"\n") or b"\n\n" in body or body[-1:] not in (b"", b"\n"):
        raise ValueError("a blank or unterminated line")  # loadtxt would skip a blank one
    meta = _sep_header(path, header.rstrip(b"\n").decode("utf-8"))
    table = np.empty(0, _SEP_ROW)
    if body:
        table = np.loadtxt(io.BytesIO(body), dtype=_SEP_ROW, delimiter="\t", comments=None, ndmin=1)
    i, j, v = (table[name].copy() for name in _SEP_ROW.names)
    if not (np.all((0 <= i) & (i < j) & (j < meta["n_edges"])) and np.all(np.isfinite(v) & (v > 0))):
        raise ValueError("an entry fails its checks")
    return meta, i, j, v


def _sep_lines(path: Path):
    """The reference reader: (meta, rows, cols, values) one line at a time,
    each error naming path:lineno."""
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
    return (
        meta,
        np.array(ii, dtype=np.int64),
        np.array(jj, dtype=np.int64),
        np.array(vv, dtype=np.float64),
    )
