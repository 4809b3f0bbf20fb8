"""The snapshot reader: save_snapshot's layout, parsed as whole columns.

A snapshot is the SEPDATA1 line, a JSON header, then the U, I and E blocks in
that order, sized by the header counts, every line ending in a newline:

    U<TAB>user id
    I<TAB>item id<TAB>lat<TAB>lon                   coordinates as float() reads them
    E<TAB>user<TAB>item<TAB>train|test<TAB>slot,...,slot   numbers in plain digits

The reader accepts that layout alone, with each (user, item) pair on one E
row at most, so every later stage can count one interaction per pair. It lives
apart from sepgcn.data so that the stages that only write a snapshot (synth,
prepare) do not compile it.
"""
from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import SplitConfig
from .data import SNAPSHOT_MAGIC, Dataset, Interactions
from .errors import COUNT, INTEGER, NUMBER, InputDataError, check_text, is_index, read_head, read_input
from .geo import SLOTS_PER_WEEK

_SNAPSHOT_COUNTS = ("n_users", "n_items", "n_interactions", "n_checkins")
# the header: the four counts and the SplitConfig the snapshot was made with
SNAPSHOT_FIELDS = {
    **dict.fromkeys(_SNAPSHOT_COUNTS, COUNT),
    **{f.name: NUMBER if type(f.default) is float else INTEGER for f in fields(SplitConfig)},
}
# matches (with re.M) the start of a line off the E row layout, which are
# exactly the lines _edge_block refuses; compiled only for a file with one
_OFF_EDGE_LAYOUT = rb"^(?!E\t\d{1,18}\t\d{1,18}\t(?:train|test)\t(?:\d{1,18}(?:,\d{1,18})*)?$)"


def read_columns(path: Path) -> Dataset:
    """The snapshot at path, in the layout above. Anything else is an
    InputDataError naming the path; a fault in one row names its line too:
    the first line off the layout, or else the first row holding a value out
    of range, or else the first row that repeats an earlier row's pair."""
    data = read_input(path, "snapshot")
    check_text(path, data, "snapshot")
    meta, _ = read_head(path, data, SNAPSHOT_MAGIC, "snapshot", SNAPSHOT_FIELDS)
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    n_users, n_items, n_edges, n_checkins = (meta[k] for k in _SNAPSHOT_COUNTS)
    if len(ends) != 2 + n_users + n_items + n_edges:
        raise InputDataError(f"{path}: snapshot body does not match its header counts")
    starts = np.concatenate([[0], ends[:-1] + 1])
    user_ids = _text_block(path, data, starts, ends, 2, n_users, "U")
    items = _text_block(path, data, starts, ends, 2 + n_users, n_items, "I")
    first = 2 + n_users + n_items
    try:
        edges = _edge_block(data, starts[first:], ends[first:])
    except ValueError:
        off = re.compile(_OFF_EDGE_LAYOUT, re.M).search(data, starts[first], ends[-1])
        k = np.searchsorted(starts, off.start())
        raise _edge_error(path, data, starts, ends, k, meta) from None
    bad = (edges.users >= n_users) | (edges.items >= n_items)
    bad_slots = np.flatnonzero(edges.slot_vals >= SLOTS_PER_WEEK)
    if len(bad_slots) or bad.any():
        bad[np.searchsorted(edges.slot_ptr, bad_slots, "right") - 1] = True
        raise _edge_error(path, data, starts, ends, first + np.argmax(bad), meta)
    keys = edges.users * n_items + edges.items
    if np.any(np.diff(np.sort(keys)) == 0):
        order = np.argsort(keys, kind="stable")  # a repeat sorts right after the row it repeats
        k = order[1:][np.diff(keys[order]) == 0].min()
        pair = (int(edges.users[k]), int(edges.items[k]))
        raise InputDataError(f"{path}:{first + k + 1}: bad snapshot row: interaction {pair} is listed twice")
    if len(edges.slot_vals) != n_checkins:
        raise InputDataError(f"{path}: snapshot body does not match its header counts")
    item_ids, lat, lon = list(zip(*items)) or [(), (), ()]
    split = SplitConfig(**{f.name: meta[f.name] for f in fields(SplitConfig)})
    return Dataset(user_ids, list(item_ids), edges, np.array(lat), np.array(lon), split)


def _snapshot_row(parts: list[str]):
    """The value of one U or I row; ValueError says what is wrong with it."""
    if parts[0] == "U" and len(parts) == 2:
        return parts[1]
    if parts[0] == "I" and len(parts) == 4:
        lat, lon = float(parts[2]), float(parts[3])
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            raise ValueError("coordinates out of range")
        return parts[1], lat, lon
    raise ValueError(f"unknown row type {parts[0]!r} with {len(parts)} fields")


def _text_block(path: Path, data: bytes, starts, ends, first: int, n: int, kind: str) -> list:
    """Values of the n lines from line index `first` on, each a `kind` row;
    line k is data[starts[k]:ends[k]]."""
    if not n:
        return []
    lines = data[starts[first] : ends[first + n - 1]].decode("utf-8").split("\n")
    values = []
    try:
        for lineno, line in enumerate(lines, start=first + 1):
            parts = line.split("\t")
            if parts[0] != kind and parts[0] in ("U", "I", "E"):
                raise ValueError(f"{parts[0]} row among the {kind} rows")
            values.append(_snapshot_row(parts))
    except ValueError as exc:
        raise InputDataError(f"{path}:{lineno}: bad snapshot row: {exc}") from None
    return values


def _edge_error(path: Path, data: bytes, starts, ends, k: int, meta: dict) -> InputDataError:
    """The error for line index k, an E row that is off the layout or holds a
    value out of range."""
    parts = data[starts[k] : ends[k]].decode("utf-8").split("\t")
    n_users, n_items = meta["n_users"], meta["n_items"]
    if parts[0] != "E" or len(parts) != 5:
        reason = f"expected an E row of 5 fields, got {parts[0]!r} with {len(parts)}"
    elif not (is_index(parts[1], n_users) and is_index(parts[2], n_items)):
        reason = (
            f"interaction ({parts[1]!r}, {parts[2]!r}) indexes past {n_users} users "
            f"or {n_items} items, or is not in plain digits"
        )
    elif parts[3] not in ("train", "test"):
        reason = f"split {parts[3]!r} is neither train nor test"
    else:
        reason = f"{parts[4]!r} is not weekly slots in [0, {SLOTS_PER_WEEK}) joined by commas"
    return InputDataError(f"{path}:{k + 1}: bad snapshot row: {reason}")


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
    # each bound list is two sorted runs, which a stable sort merges in one pass
    slot_vals = _digit_runs(
        a,
        np.sort(np.concatenate([tabs[filled, 3] + 1, commas + 1]), kind="stable"),
        np.sort(np.concatenate([commas, ends[filled]]), kind="stable"),
    )
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
        at = np.flatnonzero(width > d) if d else slice(None)  # every run has a first digit
        digit = a[lo[at] + d] - np.uint8(ord("0"))  # other bytes wrap past 9
        if np.any(digit > 9):
            raise ValueError("not a digit")
        out[at] = out[at] * 10 + digit
    return out
