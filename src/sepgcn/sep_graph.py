"""Edge-pair context graph: two train interactions are linked when their
check-ins share a weekly slot and their venues sit within the similarity
cutoff, and each edge keeps its max_neighbors strongest links. Candidate
generation queries a k-d tree per weekly slot, over one point per venue, for
each edge's nearest slot-sharing edges, so it lists a small superset of the
kept links, about max_neighbors + 1 per edge and slot, rather than every linked
pair. Each slot's ball sizes are counted against the pair budget before its
ball lists are built, so what the builder holds stays within the budget. The
neighbour cap then sorts the links by weight once and ranks them in one pass
in that order, with a running count per edge of the links it has ranked.
At its peak the builder holds about 28 bytes per candidate pair: two int32
edge ids, a float64 weight, the int64 weight order and a keep flag. The tests
check it against a literal double-loop builder,
`tests/reference.py::build_sep_matrix_bruteforce`.
"""
from __future__ import annotations

import io
import json
import logging
import math
import mmap
import re
import sys
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .config import PruningParams, SimilarityParams
from .errors import COUNT, ConfigError, InputDataError, check_text, is_index, read_head, read_input, written
from .geo import SLOTS_PER_WEEK, haversine_km, sigma, sigma_cutoff_km

logger = logging.getLogger(__name__)

SEPMAT_MAGIC = "SEPMAT1 "
# candidate pairs per step of the distance pass and of the ranking pass; the
# temporaries of a step come to about half a megabyte
_PAIR_CHUNK = 4096
# the header keys a matrix file's reader needs; the rest is SepMatrix.meta
SEP_FIELDS = {
    "n_edges": COUNT,
    "n_pairs": COUNT,
    "normalization": (lambda v: v == "sym_degree", "must be sym_degree"),
    "storage": (lambda v: v == "upper", "must be upper"),
}


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
    The builders give raw weights; the file and the operator take the ones
    normalize_sep scales.
    """

    n_edges: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
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
    stops with a ConfigError while its working memory stays bounded. A
    slot's ball sizes are counted first and bound its count from below, so
    distinct venues crowded within the pad stop before any ball is listed.

    It holds 16 bytes per candidate, besides chunk-sized temporaries. Each
    slot keeps its keys i * n + j once each, 8 bytes a pair, and the slots'
    keys are joined (16 bytes a pair for that moment) and sorted in place.
    They are then read _PAIR_CHUNK at a time: a key that an earlier slot
    also listed is skipped, the rest are measured, and the pairs within the
    cutoff are written back over the keys already read, as two int32 ids in
    the place of one key, with their distances in one float64 array. The
    int32 ids returned are views into the keys' buffer.
    """
    d_max = sigma_cutoff_km(params, pruning.sigma_floor)
    n = index.n_edges
    keys = np.concatenate(_slot_keys(index, params, pruning, d_max))
    keys.sort()  # by (i, j)
    pairs = keys.view(np.int32).reshape(-1, 2)  # pair t takes the place of key t, once read
    dd = np.empty(len(keys))
    kept, last = 0, -1  # -1: below every key
    for s in range(0, len(keys), _PAIR_CHUNK):
        block = keys[s : s + _PAIR_CHUNK]
        ii, jj = np.divmod(block[np.diff(block, prepend=last) > 0], n)
        last = int(block[-1])
        d = haversine_km(
            (index.lat[ii], index.lon[ii]), (index.lat[jj], index.lon[jj]), params.earth_radius_km
        )
        near = d <= d_max
        end = kept + np.count_nonzero(near)
        pairs[kept:end, 0], pairs[kept:end, 1], dd[kept:end] = ii[near], jj[near], d[near]
        kept = end
    return pairs[:kept, 0], pairs[:kept, 1], dd[:kept]


def _slot_keys(index: EdgeIndex, params: SimilarityParams, pruning: PruningParams, d_max: float):
    """candidate_pairs' keys i * n_edges + j, i < j, one sorted array of
    distinct keys per slot; a function of its own, so that the trees' inputs
    are freed before the keys are joined."""
    cKDTree = _kd_tree()
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
    slots = np.split(np.repeat(np.arange(n), np.diff(index.slot_ptr))[by_slot], starts[1:])
    n_entries = 0
    keys = [np.empty(0, np.int64)]  # fixes the dtype when no slot has two members
    for counted, members in enumerate(slots, start=1):  # counted: slots reached, this one included
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
        lengths = tree.query_ball_point(pts, balls, return_length=True)
        taken = np.minimum(sizes, k)  # the smallest ids a member takes from each venue
        # a lower bound: each venue in a ball gives each member at least one entry
        bound = n_entries + int(sizes @ lengths) - int(taken.sum())
        _check_budget(bound, pruning.pair_budget, counted, len(slots))
        hits = tree.query_ball_point(pts, balls)
        p = np.repeat(np.arange(len(pts)), lengths)
        q = np.fromiter(chain.from_iterable(hits), dtype=np.int64, count=len(p))
        n_entries += int(sizes[p] @ taken[q]) - int(taken.sum())  # less each member's own entry
        _check_budget(n_entries, pruning.pair_budget, counted, len(slots))
        # every member of venue p against the smallest ids of venue q
        a = grouped[_ranges(first[p], sizes[p])]
        q = np.repeat(q, sizes[p])  # the venue q of each (member, q) entry
        b = grouped[_ranges(first[q], taken[q])]
        a = np.repeat(a, taken[q])
        key = (np.minimum(a, b) * n + np.maximum(a, b))[a != b]
        key.sort()
        keys.append(key[np.diff(key, prepend=-1) > 0])  # each once
    return keys


# what importing scipy.spatial maps into the address space, with room to
# spare: 82 MB with scipy 1.17.1, whose OpenBLAS maps a work buffer as it
# loads and, when that fails, retries without end
_KD_TREE_IMPORT_BYTES = 96 << 20


def _kd_tree():
    """scipy.spatial's cKDTree, imported on first use: scipy.spatial adds
    about 16 MB to the peak memory of every stage that imports this module,
    and only the builder needs it. Under a memory limit with no room for
    what the import maps, a MemoryError first, where the import would hang."""
    if "scipy.spatial" not in sys.modules:
        # a read-only mapping: charged to the address space, never filled
        flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
        try:
            mmap.mmap(-1, _KD_TREE_IMPORT_BYTES, flags=flags, prot=mmap.PROT_READ).close()
        except OSError:
            raise MemoryError("the pair builder's modules do not fit in the memory it may use") from None
    from scipy.spatial import cKDTree

    return cKDTree


def _check_budget(n_entries: int, pair_budget: int, counted: int, n_slots: int) -> None:
    """ConfigError when n_entries, the count or a lower bound of it over the
    first `counted` of the n_slots weekly slots with train check-ins, is past
    the budget; the message gives how far the count got."""
    if n_entries > pair_budget:
        raise ConfigError(
            f"candidate pair count exceeds pair_budget={pair_budget}: it reached at least "
            f"{n_entries} in {counted} of the {n_slots} weekly slots with train check-ins; each "
            "edge lists about max_neighbors + 1 slot mates per slot: lower pruning.max_neighbors "
            "or raise pruning.pair_budget"
        )


def _ranges(starts, lengths):
    """The concatenated ranges starts[t] .. starts[t] + lengths[t] - 1."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def _neighbor_cap(ii, jj, vals, n_edges, max_neighbors):
    """Keep the pairs that are among the top max_neighbors links of both ends.

    Each edge ranks its links by weight, descending, and ties break toward
    the smaller neighbour id so the result never depends on input order.
    The pairs arrive sorted by (i, j), so a stable sort by weight lists every
    edge's links in exactly that order. One pass over the pairs in that
    order, _PAIR_CHUNK at a time, keeps a running count per edge of the
    links ranked so far: a link's rank at an end is that end's count before
    the chunk plus its earlier links within the chunk. Besides the pairs (8
    bytes of ids and 8 of weight each) it holds the weight order (8 bytes a
    pair), a keep flag (1 byte a pair), the counts (4 bytes an edge) and
    chunk-sized temporaries; the kept pairs are then copied out, in (i, j)
    order.
    """
    keep = _top_at_both_ends(ii, jj, vals, n_edges, max_neighbors)
    return ii[keep], jj[keep], vals[keep]


def _top_at_both_ends(ii, jj, vals, n_edges, max_neighbors):
    """_neighbor_cap's keep flags, one per pair, from one pass in weight
    order; a function of its own, so that the weight order is freed before
    the kept pairs are copied."""
    np.negative(vals, out=vals)  # exact, and undone below
    by_weight = np.argsort(vals, kind="stable")
    np.negative(vals, out=vals)
    ranked = np.zeros(n_edges, dtype=np.int32)  # each edge's links ranked so far
    keep = np.zeros(len(vals), dtype=bool)
    for s in range(0, len(by_weight), _PAIR_CHUNK):
        chunk = by_weight[s : s + _PAIR_CHUNK]
        # (edge << 32) | place of each end, in weight order: a pair's two
        # ends are two edges, so sorting these groups each edge's ends in order
        ends = np.empty(2 * len(chunk), dtype=np.int64)
        ends[0::2], ends[1::2] = ii[chunk], jj[chunk]
        ends <<= 32
        ends |= np.arange(len(ends))
        ends.sort()
        edge, at = ends >> 32, ends & 0xFFFFFFFF
        first = np.flatnonzero(np.diff(edge, prepend=-1))
        sizes = np.diff(first, append=len(edge))
        rank = np.empty(len(ends), dtype=np.int64)
        rank[at] = ranked[edge] + (np.arange(len(edge)) - np.repeat(first, sizes))
        ranked[edge[first]] += sizes
        top = rank < max_neighbors
        keep[chunk[top[0::2] & top[1::2]]] = True
    return keep


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
    ii, jj, vals = candidate_pairs(index, params, pruning)
    sigma(vals, params, out=vals)  # the distances become weights in place
    cap = min(pruning.max_neighbors, index.n_edges)  # a larger cap keeps every link
    ii, jj, vals = _neighbor_cap(ii, jj, vals, index.n_edges, cap)
    if len(ii) == 0:
        logger.warning(
            "edge-pair graph is empty; propagation will behave like the plain baseline"
        )
    return SepMatrix(index.n_edges, ii, jj, vals)


def normalize_sep(matrix: SepMatrix) -> SepMatrix:
    """Scale the raw weights for propagation; the pairs are shared, not copied.

    Divides each entry by sqrt(deg_i * deg_j), with deg the row sums of the
    symmetric matrix: one bincount over (cols, rows) adds each row's entries
    in column order, as to_csr() @ ones would. Isolated edges have no
    entries, so they are untouched.
    """
    ends = np.concatenate([matrix.cols, matrix.rows], dtype=np.intp)  # bincount would copy other ids to intp
    deg = np.bincount(ends, np.tile(matrix.values, 2), minlength=matrix.n_edges)
    del ends
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.sqrt(deg)
    inv[~np.isfinite(inv)] = 0.0
    return SepMatrix(
        n_edges=matrix.n_edges,
        rows=matrix.rows,
        cols=matrix.cols,
        values=matrix.values * (inv[matrix.rows] * inv[matrix.cols]),
        meta=dict(matrix.meta),
    )


_SAVE_BLOCK = 4096  # rows formatted per write


def save_sep_matrix(matrix: SepMatrix, path: str | Path) -> None:
    """Line-based export of the normalized pairs, byte-stable for identical inputs.

    Each pair is one i<TAB>j<TAB>repr(value) line, formatted a block of rows
    at a time.
    """
    meta = {
        "n_edges": matrix.n_edges,
        "n_pairs": len(matrix.values),
        "normalization": "sym_degree",
        "storage": "upper",
        **matrix.meta,
    }
    with written(path, "edge-pair matrix") as f:
        f.write(SEPMAT_MAGIC + json.dumps(meta, sort_keys=True) + "\n")
        for at in range(0, len(matrix.values), _SAVE_BLOCK):
            block = slice(at, at + _SAVE_BLOCK)
            rows = zip(*(a[block].tolist() for a in (matrix.rows, matrix.cols, matrix.values)))
            f.write("".join(map("%d\t%d\t%r\n".__mod__, rows)))


def load_sep_matrix(path: str | Path) -> SepMatrix:
    """Read a matrix file that save_sep_matrix wrote.

    The writer's layout is the only form read: the SEPMAT1 header line, then
    one i<TAB>j<TAB>weight line per entry, in plain decimal, every line
    ending in a newline. The pairs must be i < j < n_edges, strictly
    ascending by (i, j), each with a finite positive weight, and as many as
    the header's n_pairs. Any other file is an InputDataError that names the
    path; a fault in one line names it, the first line off the layout or
    else the first entry that fails a check.
    """
    path = Path(path)
    data = read_input(path, "edge-pair matrix")
    header = data.partition(b"\n")[0]
    check_text(path, data[: len(header) + 1], "matrix file")
    meta, start = read_head(path, data, SEPMAT_MAGIC, "matrix", SEP_FIELDS)
    n_edges, n_pairs = meta["n_edges"], meta["n_pairs"]
    table = _entry_table(data[start:])
    if table is None:
        check_text(path, data, "matrix file")  # a carriage return or non-UTF-8 byte first
        off = re.compile(_OFF_ENTRY_LAYOUT, re.M).search(data, start, len(data) - 1)
        raise _entry_error(path, data, off.start(), n_edges)
    rows, cols, values = (table[name].copy() for name in _SEP_ROW.names)
    bad = ~((0 <= rows) & (rows < cols) & (cols < n_edges) & np.isfinite(values) & (values > 0))
    if bad.any():
        at = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))[np.argmax(bad)] + 1
        raise _entry_error(path, data, at, n_edges)
    step_rows = np.diff(rows)
    unsorted = (step_rows < 0) | ((step_rows == 0) & (np.diff(cols) <= 0))
    if unsorted.any():
        k = np.argmax(unsorted) + 1
        pair = f"{path}:{k + 2}: edge pair ({rows[k]}, {cols[k]})"
        if np.any((rows[:k] == rows[k]) & (cols[:k] == cols[k])):
            raise InputDataError(f"{pair} is listed twice")
        raise InputDataError(f"{pair} follows ({rows[k - 1]}, {cols[k - 1]}); pairs must ascend")
    if len(values) != n_pairs:
        raise InputDataError(f"{path}: matrix body holds {len(values)} pairs, header promises {n_pairs}")
    extra = {k: v for k, v in meta.items() if k not in SEP_FIELDS}
    return SepMatrix(n_edges, rows, cols, values, extra)


_SEP_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
# every byte save_sep_matrix writes in a body of weights in (0, 1]
_SEP_BODY_BYTES = b"0123456789\t\n.e-"
# matches (with re.M) the start of a line off the entry layout: every line
# _entry_table refuses, and the lines whose negative or 19-digit numbers it
# reads but the checks then refuse; compiled only for a file with one
_OFF_ENTRY_LAYOUT = rb"^(?!\d{1,18}\t\d{1,18}\t(?:\d+\.?\d*|\.\d+)(?:e-?\d+)?$)"


def _entry_table(body: bytes):
    """The i, j and v columns of the entry lines in body, parsed in one call,
    or None when a line is off the layout."""
    if not body:
        return np.empty(0, _SEP_ROW)
    if body.translate(None, _SEP_BODY_BYTES) or not body.endswith(b"\n") or body.startswith(b"\n"):
        return None  # loadtxt would take a line the writer never writes
    try:
        table = np.loadtxt(io.BytesIO(body), dtype=_SEP_ROW, delimiter="\t", comments=None, ndmin=1)
    except ValueError:
        return None
    return table if len(table) == body.count(b"\n") else None  # loadtxt skips a blank line


def _entry_error(path: Path, data: bytes, at: int, n_edges: int) -> InputDataError:
    """The error for the entry line that starts at byte `at` of data."""
    lineno, line = data.count(b"\n", 0, at) + 1, data[at : data.index(b"\n", at)].decode("utf-8")
    fields = line.split("\t")
    if len(fields) != 3:
        reason = f"expected 'row<TAB>col<TAB>value', got {line[:60]!r}"
    elif not (is_index(fields[1], n_edges) and is_index(fields[0], int(fields[1]))):
        reason = (
            f"entry ({fields[0]}, {fields[1]}) is not an upper-triangle pair of the {n_edges} edges"
        )
    else:
        reason = f"weight {fields[2]!r} is not positive and finite"
    return InputDataError(f"{path}:{lineno}: {reason}")
