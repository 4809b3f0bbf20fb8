"""Reader of the raw check-in layout synth writes, a block of lines at a time.

parse_checkins streams a log through read_blocks and hands the first block
read_columns refuses, and the blocks after it, to its line-by-line reader,
which reads every other form and every line to reject. It lives apart from
sepgcn.data so that synth, which imports that module, does not compile it.
"""
from __future__ import annotations

import io

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Checkins, _index

_READ_BLOCK = 1 << 20  # bytes read per block, then up to the end of that line
_BOM = b"\xef\xbb\xbf"
# every byte the layout may hold: graphic ASCII, tab and newline
_LAYOUT_BYTES = bytes(range(0x21, 0x7F)) + b"\t\n"
# a timestamp's bytes, 0 standing for any digit, and where each number lies
_TIME_PATTERN = np.frombuffer(b"0000-00-00T00:00:00", np.uint8)
_TIME_FIELDS = ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19))


def line_blocks(f):
    """The rest of the binary stream f in blocks of whole lines: _READ_BLOCK
    bytes, then up to the end of that line. Only the stream's last block may
    end without a newline."""
    while block := f.read(_READ_BLOCK):
        if not block.endswith(b"\n"):
            block += f.readline()
        yield block


def read_blocks(f) -> tuple[Checkins, bytes | None]:
    """(checkins, refused): the check-ins of the line_blocks that
    read_columns reads from the binary stream f, and the first block it
    refuses, or None when it refuses none. After a refused block f is left
    open at the block after it. One byte-order mark is dropped from the
    stream's start and nowhere else.

    Ids are kept as their bytes until the end, then numbered in order of
    first appearance."""
    # each column's parts; the empty first part fixes its dtype
    columns = [[np.empty(0, t)] for t in ("S1", "S1", np.int64, np.float64, np.float64)]
    refused = None
    for k, block in enumerate(line_blocks(f)):
        if k == 0:
            block = block.removeprefix(_BOM)
        try:
            parts = read_columns(block)
        except ValueError:
            refused = block
            break
        for column, part in zip(columns, parts):
            column.append(part)
    users, user_ids = _ids(np.concatenate(columns.pop(0)))
    items, item_ids = _ids(np.concatenate(columns.pop(0)))
    slots, lat, lon = map(np.concatenate, columns)
    return Checkins(users, items, slots, lat, lon, user_ids, item_ids), refused


def read_columns(data: bytes) -> tuple[np.ndarray, ...]:
    """(users, items, slots, lat, lon) of the lines in data, the ids as
    fixed-width bytes, when every line is
    user<TAB>item<TAB>YYYY-MM-DDTHH:MM:SS<TAB>lat<TAB>lon<LF> with ASCII
    graphic ids, plain-decimal coordinates in range and a valid civil time.
    ValueError on any other form, including ones the line reader accepts or
    rejects line by line."""
    if not data.endswith(b"\n") or data.translate(None, _LAYOUT_BYTES):
        raise ValueError("not tab-separated ASCII lines")
    a = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(a == ord("\n"))
    starts = np.concatenate([[0], ends[:-1] + 1])
    # reshape raises ValueError unless there are 4n tabs in all; with each
    # line's first one past its start and its last one before its end, each
    # line then holds exactly four, and no field but the last can be empty
    tabs = np.flatnonzero(a == ord("\t")).reshape(len(ends), 4)
    if np.any(tabs[:, 0] <= starts) or np.any(np.diff(tabs, axis=1) < 2) or np.any(tabs[:, 3] >= ends):
        raise ValueError("not five non-empty fields")
    slots = _slots(a, tabs[:, 1] + 1, tabs[:, 2])
    _check_plain_decimal(a, tabs[:, 2] + 1, tabs[:, 3])
    _check_plain_decimal(a, tabs[:, 3] + 1, ends)

    widths = (tabs[:, 0] - starts).max(), (tabs[:, 1] - tabs[:, 0] - 1).max()
    dtype = [("user", f"S{widths[0]}"), ("item", f"S{widths[1]}"), ("lat", "f8"), ("lon", "f8")]
    table = np.loadtxt(
        io.BytesIO(data), dtype=dtype, delimiter="\t", comments=None, usecols=(0, 1, 3, 4), ndmin=1
    )
    lat, lon = table["lat"], table["lon"]
    if len(table) != len(ends) or not (np.all(np.abs(lat) <= 90.0) and np.all(np.abs(lon) <= 180.0)):
        raise ValueError("coordinates out of range")
    return table["user"], table["item"], slots, lat, lon


def _ids(column: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """First-appearance codes of a column of ids, and the ids in that order."""
    # no id holds a NUL, so ids of up to 8 bytes are told apart as integers,
    # which sort faster than strings
    keys = column.astype("S8").view(np.uint64) if column.dtype.itemsize <= 8 else column
    codes, first = _index(keys)
    return codes, [b.decode("ascii") for b in column[first].tolist()]


def _slots(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Weekly slots of the timestamps a[lo[k]:hi[k]], each YYYY-MM-DDTHH:MM:SS
    naming a valid proleptic Gregorian time; ValueError otherwise."""
    if np.any(hi - lo != len(_TIME_PATTERN)):
        raise ValueError("not YYYY-MM-DDTHH:MM:SS")
    text = sliding_window_view(a, len(_TIME_PATTERN))[lo]
    digits = text - np.uint8(ord("0"))  # other bytes wrap past 9
    if not np.all(np.where(_TIME_PATTERN == ord("0"), digits <= 9, text == _TIME_PATTERN)):
        raise ValueError("not YYYY-MM-DDTHH:MM:SS")
    year, month, day, hour, minute, second = (
        digits[:, i:j].astype(np.int64) @ 10 ** np.arange(j - i - 1, -1, -1) for i, j in _TIME_FIELDS
    )
    month_start = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    first_day = month_start.astype("datetime64[D]")
    month_days = ((month_start + 1).astype("datetime64[D]") - first_day).astype(np.int64)
    if np.any(
        (year < 1) | (month < 1) | (month > 12) | (day < 1) | (day > month_days)
        | (hour > 23) | (minute > 59) | (second > 59)
    ):
        raise ValueError("not a civil time")
    days = first_day.astype(np.int64) + day - 1  # since 1970-01-01, a Thursday
    return (days + 3) % 7 * 24 + hour


def _check_plain_decimal(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """ValueError unless each a[lo[k]:hi[k]] is an optional minus sign, then
    digits with at most one decimal point among them. a[hi[k]] must be a tab
    or a newline."""
    digits = np.zeros(len(lo), dtype=np.int64)
    points = np.zeros(len(lo), dtype=np.int64)
    for d in range((hi - lo).max(initial=0)):
        c = a[np.minimum(lo + d, hi)]  # past its end, a field reads its separator
        is_digit = c - np.uint8(ord("0")) <= 9  # other bytes wrap past 9
        is_point = c == ord(".")
        ok = is_digit | is_point | (c < 0x21) | ((c == ord("-")) & (d == 0))
        if not np.all(ok):
            raise ValueError("not a plain decimal")
        digits += is_digit
        points += is_point
    if np.any(digits < 1) or np.any(points > 1):
        raise ValueError("not a plain decimal")
