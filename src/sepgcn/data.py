"""Check-in ingestion: parsing, k-core filtering, indexing, and train/test splits.

Everything in this module is deliberately single-threaded and seeded so the
same raw feed always produces the same Dataset.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from datetime import datetime
from pathlib import Path

import numpy as np

from .config import SplitConfig
from .errors import InputDataError, read_input, written
from .geo import to_slot

SNAPSHOT_MAGIC = "SEPDATA1\n"


@dataclass(frozen=True, eq=False)
class Checkins:
    """A raw check-in log as columns, one row per check-in in feed order.

    Check-in r is by user user_ids[users[r]] at item item_ids[items[r]], in
    weekly slot slots[r], at (lat[r], lon[r]). Ids are numbered in order of
    first appearance.
    """

    users: np.ndarray  # int64
    items: np.ndarray  # int64
    slots: np.ndarray  # int64
    lat: np.ndarray  # float64
    lon: np.ndarray  # float64
    user_ids: list[str]
    item_ids: list[str]

    def __len__(self) -> int:
        return len(self.users)

    def __eq__(self, other) -> bool:
        columns = ("users", "items", "slots", "lat", "lon")
        return (self.user_ids, self.item_ids) == (other.user_ids, other.item_ids) and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in columns
        )

    @classmethod
    def from_rows(cls, rows) -> "Checkins":
        """Columns from (user id, item id, slot, lat, lon) rows."""
        users, items, slots, lat, lon = list(zip(*rows)) or [()] * 5
        user_ids, item_ids = list(dict.fromkeys(users)), list(dict.fromkeys(items))

        def codes(ids, names):
            code = {name: k for k, name in enumerate(names)}
            return np.fromiter(map(code.__getitem__, ids), np.int64, len(ids))

        return cls(
            users=codes(users, user_ids),
            items=codes(items, item_ids),
            slots=np.array(slots, dtype=np.int64),
            lat=np.array(lat, dtype=np.float64),
            lon=np.array(lon, dtype=np.float64),
            user_ids=user_ids,
            item_ids=item_ids,
        )


@dataclass(frozen=True, eq=False)
class Interactions:
    """A dataset's user-item edges as columns, one row per distinct pair.

    Edge k joins user users[k] and item items[k] and belongs to the test
    split when is_test[k]. Its check-in slots, one per raw check-in in feed
    order, are slot_vals[slot_ptr[k]:slot_ptr[k + 1]].
    """

    users: np.ndarray  # int64
    items: np.ndarray  # int64
    is_test: np.ndarray  # bool
    slot_ptr: np.ndarray  # int64, one more entry than there are edges
    slot_vals: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.users)

    def __eq__(self, other) -> bool:
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass
class Dataset:
    """Users and items by index, each item's coordinates, and the
    user-item interactions as columns (see Interactions)."""

    user_ids: list[str]
    item_ids: list[str]
    interactions: Interactions
    item_lat: np.ndarray
    item_lon: np.ndarray
    split: SplitConfig

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_checkins(self) -> int:
        return len(self.interactions.slot_vals)


def parse_checkins(path: str | Path) -> tuple[Checkins, list[tuple[int, str]]]:
    """Parse a raw check-in log into columns.

    Each line holds user, item, ISO-8601 civil time without a zone suffix,
    latitude and longitude, split on tabs when the line has one and on
    commas otherwise; further columns are ignored, and so is one leading
    byte-order mark. Returns (checkins, rejects) where rejects is a list of
    (line_number, reason). Raises when more than 10% of non-empty lines are
    rejected, which almost always means the file has another layout.

    The layout synth writes is parsed as whole columns. Any other form, or a
    file with a line to reject, goes to the line-by-line reader, whose
    result, rejects or error stand.
    """
    path = Path(path)
    data = read_input(path, "raw check-in file")
    # imported here: synth, which imports this module, never compiles it
    from .checkin_columns import read_columns

    try:
        return read_columns(data), []
    except ValueError:
        return _checkin_lines(path, data)


def _checkin_lines(path: Path, data: bytes) -> tuple[Checkins, list[tuple[int, str]]]:
    """The reference reader: one line at a time, accepting every form
    parse_checkins documents."""
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{path}: raw check-in file is not UTF-8 text ({exc.reason})") from None
    rows: list[tuple] = []
    rejects: list[tuple[int, str]] = []
    n_seen = 0
    # universal newlines, as a file opened in text mode reads them
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        n_seen += 1
        reason = _parse_line(line, rows)
        if reason is not None:
            rejects.append((lineno, reason))
    if n_seen and len(rejects) > 0.10 * n_seen:
        raise InputDataError(
            f"{len(rejects)}/{n_seen} lines rejected (>10%); check the column layout "
            f"(first reject: line {rejects[0][0]}: {rejects[0][1]})"
        )
    return Checkins.from_rows(rows), rejects


def _parse_line(line: str, out: list[tuple]) -> str | None:
    parts = line.split("\t") if "\t" in line else line.split(",")
    if len(parts) < 5:
        return f"expected at least 5 columns, got {len(parts)}"
    user, item = parts[0].strip(), parts[1].strip()
    if not user or not item:
        return "empty user or item id"
    try:
        lat, lon = float(parts[3]), float(parts[4])
    except ValueError:
        return "unparseable coordinate"
    if not (math.isfinite(lat) and -90.0 <= lat <= 90.0):
        return "latitude out of range"
    if not (math.isfinite(lon) and -180.0 <= lon <= 180.0):
        return "longitude out of range"
    try:
        ts = datetime.fromisoformat(parts[2].strip())
    except ValueError:
        return "unparseable timestamp"
    if ts.tzinfo is not None:
        return "timestamp carries a zone suffix; give local civil time without one"
    out.append((user, item, to_slot(ts), lat, lon))
    return None


def _pairs(users: np.ndarray, items: np.ndarray):
    """(user, item) of each distinct pair of codes, and each record's pair."""
    n_items = np.max(items, initial=0) + 1
    pairs, pair_of = np.unique(users * n_items + items, return_inverse=True)
    return pairs // n_items, pairs % n_items, pair_of


def kcore_filter(users: np.ndarray, items: np.ndarray, k: int) -> np.ndarray:
    """Mask of the records left once users and items with fewer than k
    distinct interactions have been dropped, again until none remains.

    users and items are integer codes of the records' ids. Degrees count
    distinct (user, item) pairs; the loop runs to the fixpoint, which is the
    unique maximal subgraph satisfying the constraint.
    """
    if k <= 0:
        return np.ones(len(users), dtype=bool)
    pair_users, pair_items, pair_of = _pairs(users, items)
    alive, kept = None, np.ones(len(pair_users), dtype=bool)
    while not np.array_equal(kept, alive):
        alive = kept
        user_deg = np.bincount(pair_users, weights=alive)
        item_deg = np.bincount(pair_items, weights=alive)
        kept = alive & (user_deg[pair_users] >= k) & (item_deg[pair_items] >= k)
    if not alive.any():
        raise InputDataError(f"k-core eliminated all data at k={k}")
    return alive[pair_of]


def _index(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, first): codes[r] numbers values[r] among the distinct values in
    order of first appearance, and first[c] is where value c first appears."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


def build_dataset(checkins: Checkins, cfg: SplitConfig) -> Dataset:
    """Index entities, collapse repeat check-ins, and split per user.

    Users, items and edges are numbered in order of first appearance.
    Duplicate (user, item) check-ins collapse into a single interaction
    carrying one slot per raw check-in. Each user's distinct items are
    split train/test by cfg.train_ratio with cfg.seed; a user whose split
    would leave it without train items keeps everything in train. Items
    that would only appear in test get one edge promoted to train so no
    test item is unseen at training time.
    """
    users, items = checkins.users, checkins.items
    # users with enough distinct items, then the k-core of what they leave
    keep = np.bincount(_pairs(users, items)[0])[users] >= cfg.min_interactions
    keep[keep] = kcore_filter(users[keep], items[keep], cfg.kcore)
    rows = np.flatnonzero(keep)
    if not len(rows):
        raise InputDataError("no records left after filtering")

    users, user_first = _index(users[rows])
    items, item_first = _index(items[rows])
    edges, edge_first = _index(users * len(item_first) + items)
    edge_users, edge_items = users[edge_first], items[edge_first]

    # one permutation per user, users in index order, over its edges in edge order
    rng = np.random.default_rng(cfg.seed)
    by_user = np.argsort(edge_users, kind="stable")
    counts = np.bincount(edge_users)
    held_out = [
        start + rng.permutation(count)[max(1, math.floor(cfg.train_ratio * count)) :]
        for start, count in zip((np.cumsum(counts) - counts).tolist(), counts.tolist())
    ]
    is_test = np.zeros(len(edge_first), dtype=bool)
    is_test[by_user[np.concatenate(held_out)]] = True
    # Promote the first edge of each train-absent item so every item the
    # evaluator can score has been seen during training.
    untrained = np.bincount(edge_items[~is_test], minlength=len(item_first)) == 0
    is_test[edges[item_first[untrained]]] = False

    slot_ptr = np.concatenate([[0], np.cumsum(np.bincount(edges))])
    slot_vals = checkins.slots[rows][np.argsort(edges, kind="stable")]
    interactions = Interactions(edge_users, edge_items, is_test, slot_ptr, slot_vals)
    item_lat, item_lon = _canonical_coords(items, checkins.lat[rows], checkins.lon[rows])
    user_ids = [checkins.user_ids[u] for u in checkins.users[rows[user_first]].tolist()]
    item_ids = [checkins.item_ids[i] for i in checkins.items[rows[item_first]].tolist()]
    return Dataset(user_ids, item_ids, interactions, item_lat, item_lon, cfg)


def _canonical_coords(items: np.ndarray, lat: np.ndarray, lon: np.ndarray):
    """Most frequent observed (lat, lon) per item; the first record seen wins ties.

    items numbers the records' items 0..n-1. Equal coordinates count as one
    location (so -0.0 joins 0.0), spelled as first seen.
    """
    # complex numbers sort and compare as (lat, lon) pairs
    loc = np.unique(lat + 1j * lon, return_inverse=True)[1]
    _, first, count = np.unique(items * len(loc) + loc, return_index=True, return_counts=True)
    ranked = first[np.lexsort((first, -count, items[first]))]
    best = ranked[np.flatnonzero(np.diff(items[ranked], prepend=-1))]
    return lat[best], lon[best]


def dataset_stats(ds: Dataset) -> dict:
    """Summary row: entity counts, raw check-ins, and interaction density.

    Density is the fraction of the user-item grid covered by distinct
    interactions, reported as a percentage.
    """
    n_inter = len(ds.interactions)
    return {
        "n_users": ds.n_users,
        "n_items": ds.n_items,
        "n_checkins": ds.n_checkins,
        "n_interactions": n_inter,
        "density_pct": 100.0 * n_inter / (ds.n_users * ds.n_items),
    }


_SAVE_BLOCK = 1 << 16  # E rows formatted per write


def save_snapshot(ds: Dataset, path: str | Path) -> None:
    """Write the dataset as a line-based snapshot (header SEPDATA1), the E
    rows a block at a time."""
    with written(path, "snapshot") as f:
        meta = {
            "n_users": ds.n_users,
            "n_items": ds.n_items,
            "n_interactions": len(ds.interactions),
            "n_checkins": ds.n_checkins,
            **asdict(ds.split),
        }
        f.write(SNAPSHOT_MAGIC + json.dumps(meta, sort_keys=True) + "\n")
        f.write("".join(f"U\t{uid}\n" for uid in ds.user_ids))
        items = zip(ds.item_ids, ds.item_lat.tolist(), ds.item_lon.tolist())
        f.write("".join(map("I\t%s\t%r\t%r\n".__mod__, items)))
        edges = ds.interactions
        for at in range(0, len(edges), _SAVE_BLOCK):
            f.write(_edge_rows(edges, at, at + _SAVE_BLOCK))


def _edge_rows(edges: Interactions, start: int, stop: int) -> str:
    """Snapshot lines E<TAB>user<TAB>item<TAB>split<TAB>slot,...,slot of edges
    start to stop, each distinct number formatted once."""
    ptr = edges.slot_ptr[start : stop + 1]
    slots, ptr = edges.slot_vals[ptr[0] : ptr[-1]], ptr - ptr[0]
    n, counts = len(ptr) - 1, np.diff(ptr)
    # row k is tokens[first[k] : first[k] + counts[k] + 4]: user, item,
    # split, its slots and a newline
    first = 4 * np.arange(n) + ptr[:-1]
    tokens = np.full(4 * n + ptr[-1], "\n", dtype=object)
    tokens[first] = _texts(edges.users[start:stop], "E\t%d\t")
    tokens[first + 1] = _texts(edges.items[start:stop], "%d\t")
    tokens[first + 2] = np.where(edges.is_test[start:stop], "test\t", "train\t")
    tokens[np.repeat(first + 3 - ptr[:-1], counts) + np.arange(ptr[-1])] = _texts(slots, "%d,")
    filled = counts > 0  # a row's last slot takes no comma
    tokens[(first + 2 + counts)[filled]] = _texts(slots[ptr[1:][filled] - 1], "%d")
    return "".join(tokens.tolist())


def _texts(values: np.ndarray, form: str) -> np.ndarray:
    """form % v for each value v, as an object array; each distinct value is formatted once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([form % v for v in distinct.tolist()], dtype=object)[inverse]


def load_snapshot(path: str | Path) -> Dataset:
    """Read a snapshot that save_snapshot wrote.

    The writer's layout is the only form read (see sepgcn.snapshot_columns).
    Any other file is an InputDataError that names the path, and for a fault
    in one row the row's line.
    """
    # imported here: the stages that only write snapshots never compile it
    from .snapshot_columns import read_columns

    return read_columns(Path(path))
