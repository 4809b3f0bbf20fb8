"""The line-by-line snapshot and matrix readers the program once had, kept
as the independent reference of the reader tests. They check each file's
head with the program's read_head and field tables; the bodies they read
on their own.

Each reads one line at a time and accepts more forms than the writers
write (no final newline, CRLF, numbers that int() and float() take, rows or
entries in any order); the program's readers take the writer's layout only.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from sepgcn.config import SplitConfig
from sepgcn.data import SNAPSHOT_MAGIC, Dataset
from sepgcn.errors import InputDataError, read_head
from sepgcn.geo import SLOTS_PER_WEEK
from sepgcn.sep_graph import SEP_FIELDS, SEPMAT_MAGIC
from sepgcn.snapshot_columns import _SNAPSHOT_COUNTS, SNAPSHOT_FIELDS

from reference import interactions


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
            head = (f.readline() + f.readline()).encode()
            meta, _ = read_head(path, head, SNAPSHOT_MAGIC, "snapshot", SNAPSHOT_FIELDS)
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
        users, list(item_ids), interactions(edges), np.array(lat), np.array(lon), cfg
    )


def _sep_lines(path: Path):
    """The reference reader: (meta, rows, cols, values) one line at a time,
    each error naming path:lineno."""
    try:
        with path.open("r", encoding="utf-8") as f:
            meta, _ = read_head(path, f.readline().encode(), SEPMAT_MAGIC, "matrix", SEP_FIELDS)
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


def reference_sep(path: Path):
    """(meta, rows, cols, values) as the program's loader gave them with this
    reader: pairs sorted by (i, j), a pair listed twice or a count other than
    the header's n_pairs an error."""
    meta, rows, cols, values = _sep_lines(path)
    if len(rows) != meta["n_pairs"]:
        raise InputDataError(f"{path}: {len(rows)} pairs where the header counts {meta['n_pairs']}")
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    if np.any((np.diff(rows) == 0) & (np.diff(cols) == 0)):
        raise InputDataError(f"{path}: an edge pair is listed twice")
    return meta, rows, cols, values
