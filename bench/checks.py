"""Output checks made apart from the program.

Every check here reads the files a stage wrote with its own parser and
recomputes what it can with its own code: the raw-log recount, the
haversine distance, the LightGCN layer mean and the ranking loop. None of
them imports ``sepgcn``; the one check that needs the program's forward
pass gets the embeddings passed in. A failed check raises ``CheckError``.
"""
from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np
import scipy.sparse as sp

EARTH_RADIUS_KM = 6371.0
METRICS = ("precision", "recall", "ndcg", "accuracy")
REPORT_TOL = 1e-12


class CheckError(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Snapshot:
    meta: dict
    user_ids: list[str]
    item_ids: list[str]
    lat: np.ndarray
    lon: np.ndarray
    users: np.ndarray  # per interaction, snapshot order
    items: np.ndarray
    train: np.ndarray  # bool per interaction
    slots: list[tuple[int, ...]]

    def sets(self, train: bool) -> dict[int, set[int]]:
        out: dict[int, set[int]] = defaultdict(set)
        for u, i, t in zip(self.users, self.items, self.train):
            if t == train:
                out[int(u)].add(int(i))
        return dict(out)


def read_snapshot(path: Path) -> Snapshot:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    require(lines and lines[0] == "SEPDATA1", f"{path}: bad snapshot magic")
    meta = json.loads(lines[1])
    user_ids, item_ids, lat, lon = [], [], [], []
    users, items, train, slots = [], [], [], []
    for line in lines[2:]:
        parts = line.split("\t")
        if parts[0] == "U":
            user_ids.append(parts[1])
        elif parts[0] == "I":
            item_ids.append(parts[1])
            lat.append(float(parts[2]))
            lon.append(float(parts[3]))
        elif parts[0] == "E":
            users.append(int(parts[1]))
            items.append(int(parts[2]))
            require(parts[3] in ("train", "test"), f"{path}: bad split {parts[3]!r}")
            train.append(parts[3] == "train")
            slots.append(tuple(int(s) for s in parts[4].split(",")))
        else:
            raise CheckError(f"{path}: unknown row type {parts[0]!r}")
    return Snapshot(
        meta, user_ids, item_ids, np.array(lat), np.array(lon),
        np.array(users, dtype=np.int64), np.array(items, dtype=np.int64),
        np.array(train, dtype=bool), slots,
    )


def weekly_slot(iso: str) -> int:
    when = datetime.fromisoformat(iso)
    return when.weekday() * 24 + when.hour


def check_snapshot(raw: Path, snap: Snapshot, min_interactions: int) -> None:
    """The snapshot agrees with a recount of the raw log (no k-core)."""
    visits: dict[tuple[str, str], list[int]] = defaultdict(list)
    items_of: dict[str, set[str]] = defaultdict(set)
    with Path(raw).open(encoding="utf-8") as f:
        for line in f:
            user, item, when, _, _ = line.rstrip("\n").split("\t")
            visits[(user, item)].append(weekly_slot(when))
            items_of[user].add(item)
    kept = {u for u, its in items_of.items() if len(its) >= min_interactions}
    expected = {key: Counter(s) for key, s in visits.items() if key[0] in kept}
    n_checkins = sum(sum(c.values()) for c in expected.values())

    require(set(snap.user_ids) == kept, "snapshot users differ from the raw recount")
    require(len(snap.user_ids) == len(kept) == snap.meta["n_users"], "user count differs")
    got = {
        (snap.user_ids[u], snap.item_ids[i]): Counter(s)
        for u, i, s in zip(snap.users, snap.items, snap.slots)
    }
    require(len(got) == len(snap.users), "snapshot repeats an interaction")
    require(got == expected, "snapshot interactions or their slots differ from the raw recount")
    require(len(snap.users) == snap.meta["n_interactions"], "interaction count differs")
    require(
        sum(len(s) for s in snap.slots) == n_checkins == snap.meta["n_checkins"],
        "check-in count differs from the raw recount",
    )
    train_items = set(snap.items[snap.train].tolist())
    test_items = set(snap.items[~snap.train].tolist())
    require(test_items <= train_items, "a test item never occurs in train")


def haversine_km(lat1, lon1, lat2, lon2):
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dlat, dlon = p2 - p1, np.radians(lon2) - np.radians(lon1)
    h = np.sin(dlat / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(h, 1.0)))


def check_sep(path: Path, snap: Snapshot, max_neighbors: int, entries_printed: int) -> int:
    """The pair file against the snapshot's train edges; returns the pair count."""
    with Path(path).open(encoding="utf-8") as f:
        magic, _, header = f.readline().rstrip("\n").partition(" ")
        require(magic == "SEPMAT1", f"{path}: bad magic {magic!r}")
        meta = json.loads(header)
        rows = [line.rstrip("\n").split("\t") for line in f]
    require(all(len(r) == 3 for r in rows), f"{path}: a line does not hold three fields")
    i = np.array([int(r[0]) for r in rows], dtype=np.int64)
    j = np.array([int(r[1]) for r in rows], dtype=np.int64)
    v = np.array([float(r[2]) for r in rows])

    edge = np.flatnonzero(snap.train)
    n = len(edge)
    require(meta["n_edges"] == n, f"pair file covers {meta['n_edges']} edges, snapshot has {n}")
    require(bool(np.all((0 <= i) & (i < j) & (j < n))), "a pair is not stored as i < j < n_edges")
    require(len(np.unique(i * n + j)) == len(i), "a pair is stored twice")
    # w / sqrt(w * w) can round one ulp above 1 for a pair linked only to itself
    require(bool(np.all(np.isfinite(v) & (v > 0) & (v <= 1 + 1e-12))), "a value lies outside (0, 1]")

    slot_sets = [frozenset(snap.slots[e]) for e in edge]
    require(
        all(slot_sets[a] & slot_sets[b] for a, b in zip(i.tolist(), j.tolist())),
        "a pair shares no weekly slot",
    )
    cutoff = meta["median_km"] * math.log(meta["sigma_floor"]) / math.log(meta["alpha_sim"])
    item = snap.items[edge]
    d = haversine_km(snap.lat[item[i]], snap.lon[item[i]], snap.lat[item[j]], snap.lon[item[j]])
    require(bool(np.all(d <= cutoff * (1 + 1e-12))), f"a pair lies beyond the {cutoff:.3f} km cutoff")
    degree = np.bincount(np.concatenate([i, j]), minlength=n)
    require(int(degree.max(initial=0)) <= max_neighbors, "an edge has more than max_neighbors links")
    require(2 * len(i) == entries_printed, f"{len(i)} pairs but build-sep printed {entries_printed} entries")
    return len(i)


def read_checkpoint(path: Path, n_nodes: int, dim: int) -> np.ndarray:
    blob = Path(path).read_bytes()
    magic, _, rest = blob.partition(b"\n")
    require(magic == b"SEPCKPT1", f"{path}: bad magic")
    meta_line, _, payload = rest.partition(b"\n")
    meta = json.loads(meta_line)
    require((meta["n_nodes"], meta["dim"]) == (n_nodes, dim), f"{path}: wrong table shape")
    require(len(payload) == n_nodes * dim * 8, f"{path}: payload is not n_nodes*dim*8 bytes")
    table = np.frombuffer(payload, dtype="<f8").reshape(n_nodes, dim)
    require(bool(np.isfinite(table).all()), f"{path}: non-finite embedding")
    return table


def check_train_log(path: Path) -> None:
    rows = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    losses = [float(r.split("\t")[1]) for r in rows]
    require(len(losses) >= 2, "training log holds fewer than two evaluations")
    require(losses[-1] < losses[0], f"training loss rose from {losses[0]} to {losses[-1]}")


def read_kv(path: Path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in Path(path).read_text(encoding="utf-8").splitlines())
    return {key: value for key, value in pairs}


def lightgcn_table(snap: Snapshot, e0: np.ndarray, layers: int) -> np.ndarray:
    """Mean of layers 0..K of symmetric-normalised bipartite propagation."""
    n, m = len(snap.user_ids), len(snap.item_ids)
    u, i = snap.users[snap.train], snap.items[snap.train]
    w = 1.0 / np.sqrt(np.bincount(u, minlength=n)[u] * np.bincount(i, minlength=m)[i])
    r = sp.csr_matrix((w, (u, i)), shape=(n, m))
    rt = r.T.tocsr()
    total, current = e0.copy(), e0
    for _ in range(layers):
        current = np.vstack([r @ current[n:], rt @ current[:n]])
        total += current
    return total / (layers + 1)


def loop_metrics(table: np.ndarray, snap: Snapshot, ks) -> dict[int, dict[str, float]]:
    """Rank every item per user in a plain loop and average the four metrics.

    Train items are masked; ties go to the lower item id.
    """
    n_users = len(snap.user_ids)
    items = table[n_users:]
    ids = np.arange(len(items))
    train, test = snap.sets(True), snap.sets(False)
    sums = {k: dict.fromkeys(METRICS, 0.0) for k in ks}
    users = sorted(u for u, truth in test.items() if truth)
    for u in users:
        candidates = np.delete(ids, sorted(train.get(u, ())))
        scores = items[candidates] @ table[u]
        ranked = candidates[np.lexsort((candidates, -scores))][: max(ks)].tolist()
        truth = test[u]
        for k in ks:
            hits = [p for p, item in enumerate(ranked[:k]) if item in truth]
            ideal = sum(1 / math.log2(p + 2) for p in range(min(k, len(truth))))
            sums[k]["precision"] += len(hits) / k
            sums[k]["recall"] += len(hits) / len(truth)
            sums[k]["ndcg"] += sum(1 / math.log2(p + 2) for p in hits) / ideal
            sums[k]["accuracy"] += 1.0 if hits else 0.0
    return {k: {name: s / len(users) for name, s in sums[k].items()} for k in ks}


def check_report(kv: dict[str, str], expected: dict[int, dict[str, float]]) -> None:
    for k, block in expected.items():
        for name, value in block.items():
            got = float(kv[f"k{k}.{name}"])
            require(abs(got - value) <= REPORT_TOL, f"report k{k}.{name} = {got}, recomputed {value}")


def random_recall(snap: Snapshot, k: int) -> float:
    """Mean recall@k of a uniformly random ranking of each user's candidates."""
    n_items = len(snap.item_ids)
    train, test = snap.sets(True), snap.sets(False)
    values = [min(1.0, k / (n_items - len(train.get(u, ())))) for u, t in test.items() if t]
    return sum(values) / len(values)


def check_sweep(path: Path, row_value: str, kv: dict[str, str], ks) -> None:
    """Every sweep row lies in [0, 1]; the row for row_value equals the report."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    require(lines[0].split("\t") == ["value", "k", *METRICS], f"{path}: bad table header")
    rows = {}
    for line in lines[1:]:
        value, k, *cells = line.split("\t")
        require(all(0.0 <= float(c) <= 1.0 for c in cells), f"sweep row {value}/{k} leaves [0, 1]")
        rows[(value, int(k))] = cells
    for k in ks:
        require(
            rows.get((row_value, k)) == [kv[f"k{k}.{name}"] for name in METRICS],
            f"sweep row {row_value}/k={k} differs from the eval report",
        )


def self_times(spans: list[list], root: str) -> dict[int, float]:
    """Self time of every span in one stage's tree, after checking its shape.

    Each span must lie inside its parent, children must not overlap, and
    the self times must add up to the root span's duration.
    """
    by_id = {s[0]: s for s in spans}
    roots = [s for s in spans if s[2] == -1]
    require(len(roots) == 1 and roots[0][1] == root, f"trace has no single {root} root")
    child_sum: dict[int, float] = defaultdict(float)
    last_end: dict[int, float] = {}
    for span_id, _, parent, start, end in spans:
        require(end is not None and end >= start, f"span {span_id} never closed")
        if parent == -1:
            continue
        p = by_id.get(parent)
        require(p is not None and p[3] <= start and end <= p[4], f"span {span_id} leaves its parent")
        require(start >= last_end.get(parent, start), f"span {span_id} overlaps a sibling")
        last_end[parent] = end
        child_sum[parent] += end - start
    selfs = {s[0]: (s[4] - s[3]) - child_sum[s[0]] for s in spans}
    total = roots[0][4] - roots[0][3]
    require(abs(sum(selfs.values()) - total) <= 1e-6 * max(1.0, total), "self times do not add up")
    return selfs
