"""Whole-file reader of save_snapshot's own layout.

load_snapshot tries it first and hands every other form to its line-by-line
reader. It lives apart from sepgcn.data so that the stages that only write a
snapshot (synth, prepare) do not compile it.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import (
    SNAPSHOT_MAGIC,
    Dataset,
    Interactions,
    _SNAPSHOT_COUNTS,
    _snapshot_meta,
    _snapshot_row,
    _split_config,
)
from .geo import SLOTS_PER_WEEK


def read_columns(path: Path) -> Dataset:
    """The snapshot at path, when it has the writer's layout: the U, I and E
    blocks in order, sized by the header counts, every line ending in a
    newline. ValueError on any other form, including ones the line reader
    accepts."""
    data = path.read_bytes()
    if b"\r" in data:  # the line reader's universal newlines would break lines there
        raise ValueError("carriage return")
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    if len(ends) < 2 or data[: ends[0]] != SNAPSHOT_MAGIC.encode():
        raise ValueError("not a snapshot header")
    meta = _snapshot_meta(path, data[ends[0] + 1 : ends[1]].decode("utf-8"))
    n_users, n_items, n_edges, n_checkins = (meta[k] for k in _SNAPSHOT_COUNTS)
    if len(ends) != 2 + n_users + n_items + n_edges or ends[-1] != len(data) - 1:
        raise ValueError("line count")
    starts = np.concatenate([[0], ends[:-1] + 1])
    user_ids = _text_block(data, starts, ends, 2, n_users, "U")
    items = _text_block(data, starts, ends, 2 + n_users, n_items, "I")
    edges = _edge_block(data, starts[2 + n_users + n_items :], ends[2 + n_users + n_items :])
    if (
        len(edges.slot_vals) != n_checkins
        or np.any(edges.users >= n_users)
        or np.any(edges.items >= n_items)
    ):
        raise ValueError("counts or indexes")
    item_ids, lat, lon = list(zip(*items)) or [(), (), ()]
    return Dataset(user_ids, list(item_ids), edges, np.array(lat), np.array(lon), _split_config(meta))


def _text_block(data: bytes, starts, ends, first: int, n: int, kind: str) -> list:
    """Values of the n lines from line `first` on, each a `kind` row, read as
    the line reader reads them; line k is data[starts[k]:ends[k]]."""
    if not n:
        return []
    lines = data[starts[first] : ends[first + n - 1]].decode("utf-8").split("\n")
    rows = [_snapshot_row(line.split("\t")) for line in lines]
    if any(k != kind for k, _ in rows):
        raise ValueError(f"a row in the {kind} block is of another type")
    return [value for _, value in rows]


_TEST, _TRAIN = np.frombuffer(b"test\t", np.uint8), np.frombuffer(b"train", np.uint8)


def _edge_block(data: bytes, starts: np.ndarray, ends: np.ndarray) -> Interactions:
    """The lines data[starts[k]:ends[k]], each E<TAB>user<TAB>item<TAB>split<TAB>
    slot,slot,... spelled in plain digits, as columns; ValueError otherwise."""
    a = np.frombuffer(data, np.uint8)
    n = len(starts)
    lo, hi = (starts[0], ends[-1]) if n else (0, 0)
    # reshape raises ValueError unless there are 4n tabs in all; with each
    # line's first one right after its E, each line then holds exactly four
    tabs = (np.flatnonzero(a[lo:hi] == ord("\t")) + lo).reshape(n, 4)
    if np.any(a[starts] != ord("E")) or np.any(tabs[:, 0] != starts + 1):
        raise ValueError("not an E row of five fields")
    width = tabs[:, 3] - tabs[:, 2] - 1
    is_test = width == 4
    if np.any(~is_test & (width != 5)):
        raise ValueError("split")
    word = a[tabs[:, 2, None] + np.arange(1, 6)]
    if not np.all(np.where(is_test[:, None], word == _TEST, word == _TRAIN)):
        raise ValueError("split")
    # slot tokens: each non-empty slot field split at its commas; a comma in
    # another field leaves that field no number
    commas = np.flatnonzero(a[lo:hi] == ord(",")) + lo
    row = np.searchsorted(ends, commas)
    filled = ends > tabs[:, 3] + 1
    slot_vals = _digit_runs(
        a,
        np.sort(np.concatenate([tabs[filled, 3] + 1, commas + 1])),
        np.sort(np.concatenate([commas, ends[filled]])),
    )
    if np.any(slot_vals >= SLOTS_PER_WEEK):
        raise ValueError("slot")
    return Interactions(
        users=_digit_runs(a, tabs[:, 0] + 1, tabs[:, 1]),
        items=_digit_runs(a, tabs[:, 1] + 1, tabs[:, 2]),
        is_test=is_test,
        slot_ptr=np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n) + filled)]),
        slot_vals=slot_vals,
    )


def _digit_runs(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The integers a[lo[k]:hi[k]] spells, each 1 to 18 ASCII digits; ValueError otherwise."""
    width = hi - lo
    if len(width) and (width.min() < 1 or width.max() > 18):
        raise ValueError("not a number of 1 to 18 digits")
    out = np.zeros(len(lo), dtype=np.int64)
    for d in range(width.max(initial=0)):
        at = np.flatnonzero(width > d)
        digit = a[lo[at] + d] - np.uint8(ord("0"))  # other bytes wrap past 9
        if np.any(digit > 9):
            raise ValueError("not a digit")
        out[at] = out[at] * 10 + digit
    return out
