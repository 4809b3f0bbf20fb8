"""Check-in ingestion: parsing, k-core filtering, indexing, and train/test splits.

Everything in this module is deliberately single-threaded and seeded so the
same raw feed always produces the same Dataset.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputDataError
from .geo import SLOTS_PER_WEEK, to_slot

SNAPSHOT_MAGIC = "SEPDATA1"


@dataclass(frozen=True)
class CheckinRecord:
    user_id: str
    item_id: str
    timestamp: datetime  # naive local civil time
    latitude: float
    longitude: float


@dataclass(frozen=True)
class Interaction:
    user: int
    item: int
    slots: tuple[int, ...]  # one entry per raw check-in on this edge
    split: str  # "train" | "test"


@dataclass
class SplitConfig:
    train_ratio: float = 0.70
    seed: int = 0
    min_interactions: int = 5
    kcore: int = 0

    def validate(self) -> None:
        if not (0.0 < self.train_ratio < 1.0):
            raise ConfigError(f"train_ratio must lie in (0,1), got {self.train_ratio}")


@dataclass
class Dataset:
    user_ids: list[str]
    item_ids: list[str]
    interactions: list[Interaction]
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
        return sum(len(it.slots) for it in self.interactions)

    def train_interactions(self) -> list[Interaction]:
        return [it for it in self.interactions if it.split == "train"]


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


def kcore_filter(records: list[CheckinRecord], k: int) -> list[CheckinRecord]:
    """Iteratively drop users and items with fewer than k distinct interactions.

    Degrees count distinct (user, item) pairs; the loop runs to the fixpoint,
    which is the unique maximal subgraph satisfying the constraint.
    """
    if k <= 0:
        return list(records)
    pairs = {(r.user_id, r.item_id) for r in records}
    user_items: dict[str, set[str]] = {}
    item_users: dict[str, set[str]] = {}
    for u, i in pairs:
        user_items.setdefault(u, set()).add(i)
        item_users.setdefault(i, set()).add(u)
    changed = True
    while changed:
        changed = False
        for u in [u for u, its in user_items.items() if len(its) < k]:
            for i in user_items.pop(u):
                item_users[i].discard(u)
            changed = True
        for i in [i for i, us in item_users.items() if len(us) < k]:
            for u in item_users.pop(i):
                user_items[u].discard(i)
            changed = True
    if not user_items:
        raise InputDataError(f"k-core eliminated all data at k={k}")
    keep = {(u, i) for u, its in user_items.items() for i in its}
    return [r for r in records if (r.user_id, r.item_id) in keep]


def build_dataset(records: list[CheckinRecord], cfg: SplitConfig) -> Dataset:
    """Index entities, collapse repeat check-ins, and split per user.

    Duplicate (user, item) check-ins collapse into a single interaction
    carrying one slot per raw check-in. Each user's distinct items are
    split train/test by cfg.train_ratio with cfg.seed; a user whose split
    would leave it without train items keeps everything in train. Items
    that would only appear in test get one edge promoted to train so no
    test item is unseen at training time.
    """
    cfg.validate()
    if cfg.min_interactions > 0:
        records = _drop_sparse_users(records, cfg.min_interactions)
    if cfg.kcore > 0:
        records = kcore_filter(records, cfg.kcore)
    if not records:
        raise InputDataError("no records left after filtering")

    edge_slots: dict[tuple[str, str], list[int]] = {}
    edge_order: list[tuple[str, str]] = []
    user_order: list[str] = []
    user_edges: dict[str, list[str]] = {}
    for r in records:
        key = (r.user_id, r.item_id)
        if key not in edge_slots:
            edge_slots[key] = []
            edge_order.append(key)
            if r.user_id not in user_edges:
                user_order.append(r.user_id)
                user_edges[r.user_id] = []
            user_edges[r.user_id].append(r.item_id)
        edge_slots[key].append(to_slot(r.timestamp))

    rng = np.random.default_rng(cfg.seed)
    test_pairs: set[tuple[str, str]] = set()
    for u in user_order:
        items = user_edges[u]
        n_train = max(1, int(math.floor(cfg.train_ratio * len(items))))
        perm = rng.permutation(len(items))
        for pos in perm[n_train:]:
            test_pairs.add((u, items[pos]))

    # Promote one test edge per train-absent item (first by edge order) so
    # every item the evaluator can score has been seen during training.
    train_items = {i for (u, i) in edge_order if (u, i) not in test_pairs}
    for u, i in edge_order:
        if i not in train_items:
            test_pairs.discard((u, i))
            train_items.add(i)

    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    user_ids: list[str] = []
    item_ids: list[str] = []
    interactions: list[Interaction] = []
    for u, i in edge_order:
        if u not in user_index:
            user_index[u] = len(user_ids)
            user_ids.append(u)
        if i not in item_index:
            item_index[i] = len(item_ids)
            item_ids.append(i)
        interactions.append(
            Interaction(
                user=user_index[u],
                item=item_index[i],
                slots=tuple(edge_slots[(u, i)]),
                split="test" if (u, i) in test_pairs else "train",
            )
        )

    item_lat, item_lon = _canonical_coords(records, item_index)
    return Dataset(user_ids, item_ids, interactions, item_lat, item_lon, cfg)


def _drop_sparse_users(records: list[CheckinRecord], min_interactions: int) -> list[CheckinRecord]:
    seen: dict[str, set[str]] = {}
    for r in records:
        seen.setdefault(r.user_id, set()).add(r.item_id)
    keep = {u for u, items in seen.items() if len(items) >= min_interactions}
    return [r for r in records if r.user_id in keep]


def _canonical_coords(records, item_index: dict[str, int]):
    """Most frequent observed (lat, lon) per item; first observed wins ties."""
    counts: dict[str, Counter] = {}
    first_seen: dict[tuple[str, float, float], int] = {}
    for pos, r in enumerate(records):
        if r.item_id not in item_index:
            continue
        counts.setdefault(r.item_id, Counter())[(r.latitude, r.longitude)] += 1
        first_seen.setdefault((r.item_id, r.latitude, r.longitude), pos)
    lat = np.zeros(len(item_index))
    lon = np.zeros(len(item_index))
    for item, idx in item_index.items():
        best = max(
            counts[item].items(),
            key=lambda kv: (kv[1], -first_seen[(item, kv[0][0], kv[0][1])]),
        )[0]
        lat[idx], lon[idx] = best
    return lat, lon


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
    with path.open("w", encoding="utf-8") as f:
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
        for it in ds.interactions:
            slots = ",".join(str(s) for s in it.slots)
            f.write(f"E\t{it.user}\t{it.item}\t{it.split}\t{slots}\n")


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
        slots = tuple(int(s) for s in parts[4].split(",")) if parts[4] else ()
        if not all(0 <= s < SLOTS_PER_WEEK for s in slots):
            raise ValueError(f"weekly slot outside [0, {SLOTS_PER_WEEK})")
        if parts[3] not in ("train", "test"):
            raise ValueError(f"split {parts[3]!r} is neither train nor test")
        return "E", Interaction(int(parts[1]), int(parts[2]), slots, parts[3])
    raise ValueError(f"unknown row type {parts[0]!r} with {len(parts)} fields")


def load_snapshot(path: str | Path) -> Dataset:
    path = Path(path)
    if not path.exists():
        raise InputDataError(f"snapshot not found: {path}")
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
    cfg = SplitConfig(
        train_ratio=meta["train_ratio"],
        seed=meta["seed"],
        min_interactions=meta["min_interactions"],
        kcore=meta["kcore"],
    )
    items = rows["I"]
    ds = Dataset(
        user_ids=rows["U"],
        item_ids=[item_id for item_id, _, _ in items],
        interactions=rows["E"],
        item_lat=np.array([lat for _, lat, _ in items]),
        item_lon=np.array([lon for _, _, lon in items]),
        split=cfg,
    )
    counts = (ds.n_users, ds.n_items, len(ds.interactions), ds.n_checkins)
    if counts != tuple(meta[k] for k in _SNAPSHOT_COUNTS):
        raise InputDataError(f"{path}: snapshot body does not match its header counts")
    for it in ds.interactions:
        if not (0 <= it.user < ds.n_users and 0 <= it.item < ds.n_items):
            raise InputDataError(
                f"{path}: interaction ({it.user}, {it.item}) indexes past "
                f"{ds.n_users} users or {ds.n_items} items"
            )
    return ds
