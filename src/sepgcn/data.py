"""Check-in ingestion: parsing, k-core filtering, indexing, and train/test splits.

Everything in this module is deliberately single-threaded and seeded so the
same raw feed always produces the same Dataset.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from datetime import datetime
from itertools import chain
from pathlib import Path

import numpy as np

from .config import SplitConfig
from .errors import InputDataError
from .geo import SLOTS_PER_WEEK, to_slot

SNAPSHOT_MAGIC = "SEPDATA1"


@dataclass(frozen=True)
class CheckinRecord:
    user_id: str
    item_id: str
    timestamp: datetime  # naive local civil time
    latitude: float
    longitude: float


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

    @classmethod
    def from_rows(cls, rows) -> "Interactions":
        """Columns from (user, item, slots, split) rows, split being "train" or "test"."""
        users, items, slots, splits = list(zip(*rows)) or [()] * 4
        return cls(
            users=np.array(users, dtype=np.int64),
            items=np.array(items, dtype=np.int64),
            is_test=np.array([split == "test" for split in splits], dtype=bool),
            slot_ptr=np.cumsum([0, *map(len, slots)]),
            slot_vals=np.fromiter(chain.from_iterable(slots), np.int64),
        )


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


def parse_checkins(lines):
    """Parse a line stream into check-in records.

    Each line holds user, item, ISO-8601 civil time without a zone suffix,
    latitude and longitude, split on tabs when the line has one and on
    commas otherwise; further columns are ignored. Returns (records,
    rejects) where rejects is a list of (line_number, reason). Raises when
    more than 10% of non-empty lines are rejected, which almost always
    means the file has another layout.
    """
    records: list[CheckinRecord] = []
    rejects: list[tuple[int, str]] = []
    n_seen = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        n_seen += 1
        reason = _parse_line(line, records)
        if reason is not None:
            rejects.append((lineno, reason))
    if n_seen and len(rejects) > 0.10 * n_seen:
        raise InputDataError(
            f"{len(rejects)}/{n_seen} lines rejected (>10%); check the column layout "
            f"(first reject: line {rejects[0][0]}: {rejects[0][1]})"
        )
    return records, rejects


def _parse_line(line: str, out: list[CheckinRecord]) -> str | None:
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
    out.append(CheckinRecord(user, item, ts, lat, lon))
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


def build_dataset(records: list[CheckinRecord], cfg: SplitConfig) -> Dataset:
    """Index entities, collapse repeat check-ins, and split per user.

    Users, items and edges are numbered in order of first appearance.
    Duplicate (user, item) check-ins collapse into a single interaction
    carrying one slot per raw check-in. Each user's distinct items are
    split train/test by cfg.train_ratio with cfg.seed; a user whose split
    would leave it without train items keeps everything in train. Items
    that would only appear in test get one edge promoted to train so no
    test item is unseen at training time.
    """
    cfg.validate()
    # object arrays: fixed-width numpy strings drop trailing NULs, merging ids
    users = _index(np.array([r.user_id for r in records], dtype=object))[0]
    items = _index(np.array([r.item_id for r in records], dtype=object))[0]
    # users with enough distinct items, then the k-core of what they leave
    keep = np.bincount(_pairs(users, items)[0])[users] >= cfg.min_interactions
    keep[keep] = kcore_filter(users[keep], items[keep], cfg.kcore)
    records = [records[r] for r in np.flatnonzero(keep)]
    if not records:
        raise InputDataError("no records left after filtering")

    users, user_first = _index(users[keep])
    items, item_first = _index(items[keep])
    edges, edge_first = _index(users * len(item_first) + items)
    edge_users, edge_items = users[edge_first], items[edge_first]

    # one permutation per user, users in index order, over its edges in edge order
    rng = np.random.default_rng(cfg.seed)
    is_test = np.zeros(len(edge_first), dtype=bool)
    by_user = np.argsort(edge_users, kind="stable")
    for own in np.split(by_user, np.cumsum(np.bincount(edge_users))[:-1]):
        n_train = max(1, math.floor(cfg.train_ratio * len(own)))
        is_test[own[rng.permutation(len(own))[n_train:]]] = True
    # Promote the first edge of each train-absent item so every item the
    # evaluator can score has been seen during training.
    untrained = np.bincount(edge_items[~is_test], minlength=len(item_first)) == 0
    is_test[edges[item_first[untrained]]] = False

    slots = np.fromiter((to_slot(r.timestamp) for r in records), np.int64, len(records))
    slot_ptr = np.cumsum([0, *np.bincount(edges)])
    interactions = Interactions(
        edge_users, edge_items, is_test, slot_ptr, slots[np.argsort(edges, kind="stable")]
    )
    item_lat, item_lon = _canonical_coords(
        items, np.array([r.latitude for r in records]), np.array([r.longitude for r in records])
    )
    user_ids = [records[r].user_id for r in user_first]
    item_ids = [records[r].item_id for r in item_first]
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


def save_snapshot(ds: Dataset, path: str | Path) -> None:
    """Write the dataset as a line-based snapshot (header SEPDATA1)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.write(SNAPSHOT_MAGIC + "\n")
        meta = {
            "n_users": ds.n_users,
            "n_items": ds.n_items,
            "n_interactions": len(ds.interactions),
            "n_checkins": ds.n_checkins,
            "train_ratio": ds.split.train_ratio,
            "seed": ds.split.seed,
            "min_interactions": ds.split.min_interactions,
            "kcore": ds.split.kcore,
        }
        f.write(json.dumps(meta, sort_keys=True) + "\n")
        for uid in ds.user_ids:
            f.write(f"U\t{uid}\n")
        for idx, iid in enumerate(ds.item_ids):
            f.write(f"I\t{iid}\t{float(ds.item_lat[idx])!r}\t{float(ds.item_lon[idx])!r}\n")
        edges = ds.interactions
        ptr, slots = edges.slot_ptr.tolist(), edges.slot_vals.astype(str).tolist()
        splits = np.where(edges.is_test, "test", "train").tolist()
        for k, row in enumerate(zip(edges.users.tolist(), edges.items.tolist(), splits)):
            f.write("E\t%d\t%d\t%s\t" % row + ",".join(slots[ptr[k] : ptr[k + 1]]) + "\n")


_SNAPSHOT_COUNTS = ("n_users", "n_items", "n_interactions", "n_checkins")
_SNAPSHOT_INTS = ("seed", "min_interactions", "kcore")


def _snapshot_meta(path: Path, line: str) -> dict:
    """The JSON header line, with every key load_snapshot reads type-checked."""
    try:
        meta = json.loads(line)
    except ValueError:
        raise InputDataError(f"{path}: snapshot header is not JSON: {line[:60]!r}") from None
    if not isinstance(meta, dict):
        raise InputDataError(f"{path}: snapshot header must be a JSON object")
    for key in _SNAPSHOT_COUNTS + _SNAPSHOT_INTS + ("train_ratio",):
        if key not in meta:
            raise InputDataError(f"{path}: snapshot header lacks {key!r}")
    bad = [k for k in _SNAPSHOT_COUNTS if type(meta[k]) is not int or meta[k] < 0]
    bad += [k for k in _SNAPSHOT_INTS if type(meta[k]) is not int]
    if type(meta["train_ratio"]) not in (int, float):
        bad.append("train_ratio")
    if bad:
        raise InputDataError(f"{path}: snapshot header holds a bad value for {bad[0]!r}")
    return meta


def _snapshot_row(parts: list[str]):
    """(row type, value) of one body row; ValueError says what is wrong with it."""
    if parts[0] == "U" and len(parts) == 2:
        return "U", parts[1]
    if parts[0] == "I" and len(parts) == 4:
        lat, lon = float(parts[2]), float(parts[3])
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            raise ValueError("coordinates out of range")
        return "I", (parts[1], lat, lon)
    if parts[0] == "E" and len(parts) == 5:
        slots = [int(s) for s in parts[4].split(",")] if parts[4] else []
        if not all(0 <= s < SLOTS_PER_WEEK for s in slots):
            raise ValueError(f"weekly slot outside [0, {SLOTS_PER_WEEK})")
        if parts[3] not in ("train", "test"):
            raise ValueError(f"split {parts[3]!r} is neither train nor test")
        return "E", (int(parts[1]), int(parts[2]), slots, parts[3])
    raise ValueError(f"unknown row type {parts[0]!r} with {len(parts)} fields")


def load_snapshot(path: str | Path) -> Dataset:
    """Read a snapshot; every malformed row or value is an InputDataError.

    save_snapshot's own layout is parsed as whole columns. Any other form,
    or a failed check, goes to the line-by-line reader, whose result or
    error (naming path:lineno) stands.
    """
    path = Path(path)
    if not path.exists():
        raise InputDataError(f"snapshot not found: {path}")
    # imported here: the stages that only write snapshots never compile it
    from .snapshot_columns import read_columns

    try:
        return read_columns(path)
    except (ValueError, InputDataError):
        return _snapshot_lines(path)


def _split_config(meta: dict) -> SplitConfig:
    return SplitConfig(
        train_ratio=meta["train_ratio"],
        seed=meta["seed"],
        min_interactions=meta["min_interactions"],
        kcore=meta["kcore"],
    )


def _snapshot_lines(path: Path) -> Dataset:
    """The reference reader: one row at a time, accepting every form
    load_snapshot documents, with each error naming path:lineno."""
    rows: dict[str, list] = {"U": [], "I": [], "E": []}
    try:
        with path.open("r", encoding="utf-8") as f:
            magic = f.readline().rstrip("\n")
            if magic != SNAPSHOT_MAGIC:
                raise InputDataError(f"{path}: bad snapshot header {magic!r}")
            meta = _snapshot_meta(path, f.readline())
            for lineno, line in enumerate(f, start=3):
                try:
                    kind, value = _snapshot_row(line.rstrip("\n").split("\t"))
                except ValueError as exc:
                    raise InputDataError(f"{path}:{lineno}: bad snapshot row: {exc}") from None
                rows[kind].append(value)
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{path}: snapshot is not UTF-8 text ({exc.reason})") from None
    cfg = _split_config(meta)
    users, items, edges = rows["U"], rows["I"], rows["E"]
    counts = (len(users), len(items), len(edges), sum(len(slots) for _, _, slots, _ in edges))
    if counts != tuple(meta[k] for k in _SNAPSHOT_COUNTS):
        raise InputDataError(f"{path}: snapshot body does not match its header counts")
    # checked before the int64 columns are made, where a huge index would overflow
    for user, item, _, _ in edges:
        if not (0 <= user < len(users) and 0 <= item < len(items)):
            raise InputDataError(
                f"{path}: interaction ({user}, {item}) indexes past "
                f"{len(users)} users or {len(items)} items"
            )
    item_ids, lat, lon = list(zip(*items)) or [(), (), ()]
    return Dataset(
        users, list(item_ids), Interactions.from_rows(edges), np.array(lat), np.array(lon), cfg
    )
