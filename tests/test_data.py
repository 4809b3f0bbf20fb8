"""Parsing, filtering, splitting, and snapshot round-trips for check-in data."""
from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import threading
from collections import Counter
from datetime import datetime

import numpy as np
import pytest

from sepgcn import checkin_columns, data
from sepgcn.config import SplitConfig
from sepgcn.data import (
    SNAPSHOT_MAGIC,
    Checkins,
    Interactions,
    build_dataset,
    dataset_stats,
    kcore_filter,
    load_snapshot,
    parse_checkins,
    save_snapshot,
)
from sepgcn.errors import InputDataError
from sepgcn.geo import to_slot
from sepgcn.synthetic import SyntheticConfig, generate_city, write_raw

import line_readers
import peak_rss


def rec(u, i, ts="2024-01-01T10:00:00", lat=40.0, lon=-74.0):
    """One check-in row: user, item, weekly slot, latitude, longitude."""
    return (u, i, to_slot(datetime.fromisoformat(ts)), lat, lon)


def dataset_of(records, cfg):
    return build_dataset(Checkins.from_rows(records), cfg)


def kcore_records(records, k):
    """The records kcore_filter keeps, the ids numbered by np.unique."""
    users = np.unique([r[0] for r in records], return_inverse=True)[1]
    items = np.unique([r[1] for r in records], return_inverse=True)[1]
    return [r for r, kept in zip(records, kcore_filter(users, items, k)) if kept]


def kcore_oracle(pairs, k):
    """Reference fixpoint by literal re-filtering until nothing changes."""
    pairs = set(pairs)
    while True:
        uc = Counter(u for u, _ in pairs)
        ic = Counter(i for _, i in pairs)
        keep = {(u, i) for u, i in pairs if uc[u] >= k and ic[i] >= k}
        if keep == pairs:
            return pairs
        pairs = keep


def reference_snapshot(records, cfg):
    """Snapshot text from the dict-based build_dataset that the array version replaced."""
    if cfg.min_interactions > 0:
        seen = {}
        for user, item, *_ in records:
            seen.setdefault(user, set()).add(item)
        records = [r for r in records if len(seen[r[0]]) >= cfg.min_interactions]
    if cfg.kcore > 0:
        keep = kcore_oracle({(r[0], r[1]) for r in records}, cfg.kcore)
        if not keep:
            raise InputDataError(f"k-core eliminated all data at k={cfg.kcore}")
        records = [r for r in records if (r[0], r[1]) in keep]
    if not records:
        raise InputDataError("no records left after filtering")

    edge_slots = {}  # (user, item) -> slots, edges and users in order of first appearance
    user_edges = {}
    for user, item, slot, _, _ in records:
        key = (user, item)
        if key not in edge_slots:
            edge_slots[key] = []
            user_edges.setdefault(user, []).append(item)
        edge_slots[key].append(slot)
    rng = np.random.default_rng(cfg.seed)
    test = set()
    for u, items in user_edges.items():
        n_train = max(1, int(math.floor(cfg.train_ratio * len(items))))
        test.update((u, items[pos]) for pos in rng.permutation(len(items))[n_train:])
    train_items = {i for u, i in edge_slots if (u, i) not in test}
    for u, i in edge_slots:
        if i not in train_items:
            test.discard((u, i))
            train_items.add(i)

    counts, first_seen = {}, {}
    for pos, (_, item, _, lat, lon) in enumerate(records):
        counts.setdefault(item, Counter())[(lat, lon)] += 1
        first_seen.setdefault((item, lat, lon), pos)
    user_ids = {u: k for k, u in enumerate(user_edges)}
    item_ids = {i: k for k, i in enumerate(dict.fromkeys(i for _, i in edge_slots))}
    meta = {
        "n_users": len(user_ids),
        "n_items": len(item_ids),
        "n_interactions": len(edge_slots),
        "n_checkins": len(records),
        "train_ratio": cfg.train_ratio,
        "seed": cfg.seed,
        "min_interactions": cfg.min_interactions,
        "kcore": cfg.kcore,
    }
    lines = [SNAPSHOT_MAGIC + json.dumps(meta, sort_keys=True)]
    lines += [f"U\t{u}" for u in user_ids]
    for i in item_ids:
        best = max(counts[i].items(), key=lambda kv: (kv[1], -first_seen[(i, *kv[0])]))
        lines.append(f"I\t{i}\t{best[0][0]!r}\t{best[0][1]!r}")
    for (u, i), slots in edge_slots.items():
        split = "test" if (u, i) in test else "train"
        lines.append(f"E\t{user_ids[u]}\t{item_ids[i]}\t{split}\t{','.join(map(str, slots))}")
    return "\n".join(lines) + "\n"


def random_records(rng):
    """Check-in rows over few users and items, with shared, +-0.0 and scattered
    coordinates.

    One user id ends in a NUL, which fixed-width numpy strings would drop.
    """
    users = [f"u{k}" for k in range(int(rng.integers(1, 15)))] + ["u0\x00"]
    n_items = int(rng.integers(1, 25))
    spots = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1.5, 2.5), (1.5, -2.5)]
    records = []
    for _ in range(int(rng.integers(1, 200))):
        if rng.random() < 0.6:
            lat, lon = spots[int(rng.integers(len(spots)))]
        else:
            lat, lon = float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180))
        slot = int(rng.integers(7)) * 24 + int(rng.integers(24))
        user = users[int(rng.integers(len(users)))]
        records.append((user, f"p{rng.integers(n_items)}", slot, lat, lon))
    return records


def parse_lines(tmp_path, lines):
    """parse_checkins on a file of the given lines."""
    path = tmp_path / "raw.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return parse_checkins(path)


class TestParse:
    def test_tab_separated_line(self, tmp_path):
        lines = ["alice\tcafe41\t2024-01-01T10:30:00\t40.7128\t-74.0060"]
        checkins, rejects = parse_lines(tmp_path, lines)
        assert rejects == []
        assert (checkins.user_ids, checkins.item_ids) == (["alice"], ["cafe41"])
        assert checkins.slots.tolist() == [10]  # Monday 10:30
        assert (checkins.lat.tolist(), checkins.lon.tolist()) == ([40.7128], [-74.0060])

    def test_comma_fallback_and_blank_lines(self, tmp_path):
        lines = ["", "bob,bar7,2024-03-05T23:15:00,51.5,-0.12", "   "]
        checkins, rejects = parse_lines(tmp_path, lines)
        assert len(checkins) == 1 and rejects == []
        assert checkins.user_ids == ["bob"]

    def test_reject_reasons(self, tmp_path):
        good = "u\tp\t2024-01-01T00:00:00\t40.0\t-74.0"
        bad = [
            "u\tp\t2024-01-01T00:00:00\t95.0\t-74.0",
            "u\tp\t2024-01-01T00:00:00\t40.0\t181.0",
            "u\tp\t2024-01-01T00:00:00\tnorth\t-74.0",
            "u\tp\tyesterday\t40.0\t-74.0",
            "u\tp\t2024-01-01T00:00:00+02:00\t40.0\t-74.0",
            "u\tp\t2024-01-01T00:00:00\t40.0",
            "\tp\t2024-01-01T00:00:00\t40.0\t-74.0",
        ]
        checkins, rejects = parse_lines(tmp_path, [good] * 70 + bad)
        assert len(checkins) == 70
        assert [ln for ln, _ in rejects] == list(range(71, 78))
        assert [why.split(";")[0] for _, why in rejects] == [
            "latitude out of range",
            "longitude out of range",
            "unparseable coordinate",
            "unparseable timestamp",
            "timestamp carries a zone suffix",
            "expected at least 5 columns, got 4",
            "empty user or item id",
        ]

    def test_zone_suffixed_iso_is_rejected(self, tmp_path):
        lines = ["u\tp\t2024-01-01T10:00:00+02:00\t40.0\t-74.0"] + [
            "u\tp\t2024-01-01T10:00:00\t40.0\t-74.0"
        ] * 20
        checkins, rejects = parse_lines(tmp_path, lines)
        assert len(checkins) == 20
        assert "zone suffix" in rejects[0][1]

    def test_reject_rate_above_ten_percent_raises(self, tmp_path):
        good = "u\tp\t2024-01-01T10:00:00\t40.0\t-74.0"
        with pytest.raises(InputDataError, match="rejected"):
            parse_lines(tmp_path, [good] * 9 + ["garbage line", "another"])
        # exactly at the boundary: 1 bad of 11 is under 10% only if 1 <= 1.1
        checkins, rejects = parse_lines(tmp_path, [good] * 10 + ["garbage line"])
        assert len(checkins) == 10 and len(rejects) == 1

    def test_non_utf8_file_names_the_path(self, tmp_path):
        path = tmp_path / "raw.tsv"
        path.write_bytes(b"u\tp\t2024-01-01T10:00:00\t40.0\t-74.0\n\xff\n")
        with pytest.raises(InputDataError, match=f"^{re.escape(str(path))}: .*not UTF-8 text"):
            parse_checkins(path)


def synth_lines(tmp_path):
    """A small synth log, as its lines."""
    city = generate_city(SyntheticConfig(n_users=30, n_items=60, n_checkins=300, seed=5))
    write_raw(city, tmp_path / "synth.tsv")
    return (tmp_path / "synth.tsv").read_text(encoding="utf-8").splitlines()


def parse_outcome(path):
    """What parse_checkins gives: every column's dtype and bytes (lists for the
    ids) and the rejects, or the error message."""
    try:
        checkins, rejects = parse_checkins(path)
    except InputDataError as exc:
        return str(exc)
    columns = [getattr(checkins, f.name) for f in dataclasses.fields(Checkins)]
    return [(c.dtype.str, c.tobytes()) if isinstance(c, np.ndarray) else c for c in columns], rejects


def refuse(data):
    raise ValueError("whole-file reader switched off")


def line_parse_outcome(path, monkeypatch):
    """parse_outcome with the whole-file reader switched off, so the line reader decides."""
    with monkeypatch.context() as patch:
        patch.setattr(checkin_columns, "read_columns", refuse)
        return parse_outcome(path)


def whole_log_reads(path) -> bool:
    """Whether the column reader reads every block of the log, handing none
    of it to the line reader."""
    with path.open("rb") as f:
        return checkin_columns.read_blocks(f)[1] is None


def set_field(field, value, k=7):
    """An edit of the log's lines: field `field` of line k set to value."""

    def edit(lines):
        parts = lines[k].split("\t")
        parts[field] = value
        return [*lines[:k], "\t".join(parts), *lines[k + 1 :]]

    return edit


def joined(lines):
    return "".join(line + "\n" for line in lines)


@pytest.fixture(params=[None, 40], ids=["1MiB-blocks", "40-byte-blocks"])
def read_block(request, monkeypatch):
    """The column reader's block size: its own, or 40 bytes, under one line
    of a synth log, so that every line straddles the edge of a read."""
    if request.param is not None:
        monkeypatch.setattr(checkin_columns, "_READ_BLOCK", request.param)
    return request.param


class TestRawLogReader:
    """The column reader against the line reader it hands a log to."""

    def test_reads_the_synth_layout(self, tmp_path):
        path = tmp_path / "raw.tsv"
        city = generate_city(SyntheticConfig(n_users=30, n_items=60, n_checkins=300, seed=5))
        write_raw(city, path)
        assert whole_log_reads(path)
        checkins, rejects = parse_checkins(path)
        assert rejects == [] and checkins == city.checkins()

    def test_mutations_match_the_line_reader(self, tmp_path, mutate, monkeypatch):
        """On 300 mutated copies of a synth log the column reader gives the
        line reader's columns, rejects and errors, or hands the log to it."""
        self.check_mutations(tmp_path, mutate, monkeypatch, 300)

    def test_mutations_match_the_line_reader_in_40_byte_blocks(self, tmp_path, mutate, monkeypatch):
        """As above in blocks of 40 bytes, under one line of the log: each
        line is then a block of its own, read at about a millisecond a block,
        so 60 copies of the log's first 60 lines are read."""
        monkeypatch.setattr(checkin_columns, "_READ_BLOCK", 40)
        self.check_mutations(tmp_path, mutate, monkeypatch, 60)

    @staticmethod
    def check_mutations(tmp_path, mutate, monkeypatch, copies):
        rng = np.random.default_rng(83)
        lines = synth_lines(tmp_path)[:copies]
        path = tmp_path / "raw.tsv"
        whole = 0
        for _ in range(copies):
            path.write_text(joined(mutate(lines, rng)), encoding="utf-8")
            assert parse_outcome(path) == line_parse_outcome(path, monkeypatch)
            whole += whole_log_reads(path)
        assert 0 < whole < copies

    CASES = {
        # name: (file text from the synth lines, whole-file read, rejected lines)
        "as written": (joined, True, 0),
        "byte-order mark": (lambda s: "\ufeff" + joined(s), True, 0),
        "two byte-order marks": (lambda s: "\ufeff\ufeff" + joined(s), False, 0),
        "year 0000": (lambda s: joined(set_field(2, "0000-01-01T10:00:00")(s)), False, 1),
        "30 February": (lambda s: joined(set_field(2, "2024-02-30T10:00:00")(s)), False, 1),
        "29 February of a leap year": (lambda s: joined(set_field(2, "2024-02-29T10:00:00")(s)), True, 0),
        "29 February of 1900": (lambda s: joined(set_field(2, "1900-02-29T10:00:00")(s)), False, 1),
        "second 60": (lambda s: joined(set_field(2, "2024-01-01T10:00:60")(s)), False, 1),
        "hour 24": (lambda s: joined(set_field(2, "2024-01-01T24:00:00")(s)), False, 1),
        "space for T": (lambda s: joined(set_field(2, "2024-01-01 10:00:00")(s)), False, 0),
        "fractional seconds": (lambda s: joined(set_field(2, "2024-01-01T10:00:00.250")(s)), False, 0),
        "+02:00 suffix": (lambda s: joined(set_field(2, "2024-01-01T10:00:00+02:00")(s)), False, 1),
        "Z suffix": (lambda s: joined(set_field(2, "2024-01-01T10:00:00Z")(s)), False, 1),
        "nan latitude": (lambda s: joined(set_field(3, "nan")(s)), False, 1),
        "inf longitude": (lambda s: joined(set_field(4, "inf")(s)), False, 1),
        "1_0 latitude": (lambda s: joined(set_field(3, "1_0")(s)), False, 0),
        "0x1p3 longitude": (lambda s: joined(set_field(4, "0x1p3")(s)), False, 1),
        "exponent": (lambda s: joined(set_field(3, "4.05e1")(s)), False, 0),
        "plus sign": (lambda s: joined(set_field(4, "+73.5")(s)), False, 0),
        "minus inside a coordinate": (lambda s: joined(set_field(3, "4-0")(s)), False, 1),
        "latitude past 90": (lambda s: joined(set_field(3, "90.5")(s)), False, 1),
        "ids of other lengths": (lambda s: joined(set_field(1, "v1")(set_field(0, "u0")(s))), True, 0),
        "an id past 8 bytes": (lambda s: joined(set_field(0, "user-0000000001")(s)), True, 0),
        "id ending in NUL": (lambda s: joined(set_field(0, "u0001\x00")(s)), False, 0),
        "non-ASCII id": (lambda s: joined(set_field(1, "v\u00e90001")(s)), False, 0),
        "id ending in U+00A0": (lambda s: joined(set_field(0, "u0001\u00a0")(s)), False, 0),
        "crlf": (lambda s: "\r\n".join(s) + "\r\n", False, 0),
        "crlf with a line out of range": (lambda s: "\r\n".join(set_field(3, "95.0", k=250)(s)) + "\r\n", False, 1),
        "lone carriage returns": (lambda s: "\r".join(s) + "\r", False, 0),
        "crlf and lf mixed, with blank lines": (
            lambda s: "".join(line + ("\r\n" if k % 3 else "\n\r\n") for k, line in enumerate(s)), False, 0
        ),
        "blank lines": (lambda s: joined([s[0], "", *s[1:], "  "]), False, 0),
        "no final newline": (lambda s: "\n".join(s), False, 0),
        "sixth column": (lambda s: joined(set_field(4, "-73.5\textra")(s)), False, 0),
        "comma-separated line": (lambda s: joined([*s[:7], s[7].replace("\t", ","), *s[8:]]), False, 0),
        "empty item id": (lambda s: joined(set_field(1, "")(s)), False, 1),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_hand_cases_match_the_line_reader(self, tmp_path, monkeypatch, case):
        self.check_case(tmp_path, monkeypatch, case)

    @pytest.mark.parametrize("case", CASES)
    def test_hand_cases_match_the_line_reader_in_40_byte_blocks(self, tmp_path, monkeypatch, case):
        monkeypatch.setattr(checkin_columns, "_READ_BLOCK", 40)
        self.check_case(tmp_path, monkeypatch, case)

    @pytest.mark.parametrize("case", CASES)
    def test_the_line_reader_reads_40_byte_blocks_as_one_block(self, tmp_path, monkeypatch, case):
        """The line reader decodes and parses a block of whole lines at a
        time: in 40-byte blocks, under one line, it gives the columns,
        rejects with their line numbers, or error that it gives with the
        whole log as one block."""
        text = self.CASES[case][0]
        path = tmp_path / "raw.tsv"
        path.write_bytes(text(synth_lines(tmp_path)).encode("utf-8"))
        whole = line_parse_outcome(path, monkeypatch)
        monkeypatch.setattr(checkin_columns, "_READ_BLOCK", 40)
        assert line_parse_outcome(path, monkeypatch) == whole

    def check_case(self, tmp_path, monkeypatch, case):
        text, whole, rejected = self.CASES[case]
        path = tmp_path / "raw.tsv"
        path.write_bytes(text(synth_lines(tmp_path)).encode("utf-8"))
        outcome = parse_outcome(path)
        assert outcome == line_parse_outcome(path, monkeypatch)
        assert whole_log_reads(path) == whole
        assert len(outcome[1]) == rejected, outcome[1]

    def test_byte_order_mark_is_not_an_id(self, tmp_path):
        """One leading mark is dropped; without that, the first user would be new."""
        lines = synth_lines(tmp_path)
        for text in (joined(lines), "\r\n".join(lines)):  # whole-file and line reader
            plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
            plain.write_bytes(text.encode())
            marked.write_bytes(("\ufeff" + text).encode())
            assert parse_checkins(marked) == parse_checkins(plain)

    @pytest.mark.parametrize("block", [40, 1000, 1 << 20])
    @pytest.mark.parametrize("bad", [1, 12])
    def test_a_refused_line_in_the_last_block(self, tmp_path, monkeypatch, block, bad):
        """100 synth lines, a line by a new user, one by the first user, then
        bad lines out of range: the last block is refused, at 40 bytes that
        block alone. The rejects' line numbers and the 10% rule count the
        lines the column reader read, and the ids run in one sequence. At
        1000 bytes the two id lines are handed over behind the column
        reader's lines; at 1 MiB the whole log is one block."""
        monkeypatch.setattr(checkin_columns, "_READ_BLOCK", block)
        lines = synth_lines(tmp_path)[:100]
        first_user = lines[0].split("\t")[0]
        lines += [
            "\t".join(["new-user", *lines[5].split("\t")[1:]]),
            "\t".join([first_user, *lines[6].split("\t")[1:]]),
            *[set_field(3, "95.0", k=k)(lines)[k] for k in range(bad)],
        ]
        path = tmp_path / "raw.tsv"
        path.write_text(joined(lines), encoding="utf-8")
        with path.open("rb") as f:
            head, refused = checkin_columns.read_blocks(f)
            rest = refused + f.read()  # what goes to the line reader
        assert (len(head) > 0, b"new-user" in rest) == (block < 1 << 20, block > 40)
        outcome = parse_outcome(path)
        assert outcome == line_parse_outcome(path, monkeypatch)
        if bad == 12:  # 12 of 114 lines
            assert outcome == (
                "12/114 lines rejected (>10%); check the column layout "
                "(first reject: line 103: latitude out of range)"
            )
            return
        checkins, rejects = parse_checkins(path)
        assert rejects == [(103, "latitude out of range")]
        assert checkins.user_ids[-1] == "new-user"
        assert checkins.users[-2:].tolist() == [len(checkins.user_ids) - 1, checkins.users[0]]

    @pytest.mark.parametrize("refused", [False, True], ids=["clean", "refused-line"])
    def test_a_log_through_a_fifo(self, tmp_path, monkeypatch, read_block, refused):
        """A pipe is read a block at a time, as a file is, and handed over."""
        lines = synth_lines(tmp_path)
        if refused:
            lines = set_field(3, "95.0", k=250)(lines)
        plain, fifo = tmp_path / "raw.tsv", tmp_path / "raw.fifo"
        plain.write_text(joined(lines), encoding="utf-8")
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(plain.read_bytes(),))
        writer.start()
        try:
            outcome = parse_outcome(fifo)
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert outcome == parse_outcome(plain) == line_parse_outcome(plain, monkeypatch)
        assert len(outcome[1]) == refused

    def test_a_byte_order_mark_past_the_first_block_is_kept(self, tmp_path, monkeypatch, read_block):
        """A mark that begins line 100, a block of its own at 40 bytes, is part
        of that line's user id, as the line reader reads it."""
        lines = synth_lines(tmp_path)
        lines[99] = "\ufeff" + lines[99]
        path = tmp_path / "raw.tsv"
        path.write_text(joined(lines), encoding="utf-8")
        outcome = parse_outcome(path)
        assert outcome == line_parse_outcome(path, monkeypatch)
        checkins, rejects = parse_checkins(path)
        assert rejects == [] and checkins.user_ids[checkins.users[99]] == lines[99].split("\t")[0]


class TestPrepareStageMemory:
    def test_prepare_stage_peak_over_its_imports(self, tmp_path):
        """prepare on a 3,000 x 6,000 city with 90,000 check-ins, a 6.2 MB
        log, as the city3x benchmark prepares it: the log is read a block at
        a time, and only its columns, 3.6 MB, are held whole. The imports
        alone are subtracted; with the whole log held, and its temporaries,
        the stage added about 29 MB."""
        raw, snap = tmp_path / "raw.tsv", tmp_path / "snap.txt"
        write_raw(generate_city(SyntheticConfig(n_users=3000, n_items=6000, n_checkins=90_000, seed=1)), raw)
        added = peak_rss.peak_over_imports_mb(
            "sepgcn.cli", "-m", "sepgcn.cli", "prepare", "--raw", str(raw), "--out", str(snap), "--seed", "1"
        )
        assert added <= 23.0

    def test_a_log_with_crlf_line_ends_in_bounded_memory(self, tmp_path):
        """The same log with CRLF line ends, which the line reader reads: it
        decodes, parses and turns into columns one block at a time, so the
        stage adds about what it adds for the LF log, under the same bound.
        With the whole log handed to the line reader it added about 57 MB."""
        raw, snap = tmp_path / "raw.tsv", tmp_path / "snap.txt"
        write_raw(generate_city(SyntheticConfig(n_users=3000, n_items=6000, n_checkins=90_000, seed=1)), raw)
        raw.write_bytes(raw.read_bytes().replace(b"\n", b"\r\n"))
        added = peak_rss.peak_over_imports_mb(
            "sepgcn.cli", "-m", "sepgcn.cli", "prepare", "--raw", str(raw), "--out", str(snap), "--seed", "1"
        )
        assert added <= 23.0


class TestKCore:
    def test_matches_fixpoint_oracle_on_random_graphs(self):
        rng = np.random.default_rng(43)
        for trial in range(20):
            pairs = {
                (f"u{rng.integers(0, 20)}", f"p{rng.integers(0, 25)}")
                for _ in range(rng.integers(40, 120))
            }
            records = [rec(u, i) for u, i in sorted(pairs)]
            k = int(rng.integers(2, 5))
            expected = kcore_oracle(pairs, k)
            if not expected:
                with pytest.raises(InputDataError):
                    kcore_records(records, k)
                continue
            survivors = {(r[0], r[1]) for r in kcore_records(records, k)}
            assert survivors == expected, f"trial {trial}, k={k}"

    def test_duplicate_checkins_do_not_inflate_degree(self):
        """Five visits to one venue are still a single distinct interaction."""
        records = [rec("u0", "p0")] * 5 + [rec("u1", "p0"), rec("u1", "p1")]
        with pytest.raises(InputDataError):
            kcore_records(records, 2)

    def test_min_degree_equals_threshold(self):
        rng = np.random.default_rng(47)
        pairs = {
            (f"u{rng.integers(0, 30)}", f"p{rng.integers(0, 30)}") for _ in range(400)
        }
        for k in (2, 3):
            kept = kcore_records([rec(u, i) for u, i in sorted(pairs)], k)
            uc = Counter((r[0], r[1]) for r in kept)
            users = Counter(u for u, _ in uc)
            items = Counter(i for _, i in uc)
            assert min(users.values()) >= k
            assert min(items.values()) >= k

    def test_zero_k_is_identity(self):
        records = [rec("u0", "p0")]
        assert kcore_records(records, 0) == records

    def test_all_eliminated_raises(self):
        with pytest.raises(InputDataError, match="k-core"):
            kcore_records([rec("u0", "p0")], 3)


class TestBuildDataset:
    def cfg(self, **kw):
        base = dict(train_ratio=0.7, seed=0, min_interactions=0, kcore=0)
        base.update(kw)
        return SplitConfig(**base)

    def test_duplicate_edges_collapse_into_slot_lists(self):
        records = [
            rec("u0", "p0", "2024-01-01T10:00:00"),  # Monday 10h -> slot 10
            rec("u0", "p0", "2024-01-02T06:00:00"),  # Tuesday 6h -> slot 30
            rec("u0", "p1", "2024-01-07T23:00:00"),  # Sunday 23h -> slot 167
        ]
        ds = dataset_of(records, self.cfg())
        assert len(ds.interactions) == 2
        assert ds.n_checkins == 3
        np.testing.assert_array_equal(ds.interactions.items, [0, 1])
        np.testing.assert_array_equal(ds.interactions.slot_ptr, [0, 2, 3])
        np.testing.assert_array_equal(ds.interactions.slot_vals, [10, 30, 167])

    def test_indices_follow_first_appearance(self):
        records = [rec("b", "y"), rec("a", "x"), rec("b", "x")]
        ds = dataset_of(records, self.cfg())
        assert ds.user_ids == ["b", "a"]
        assert ds.item_ids == ["y", "x"]

    def test_split_is_deterministic_in_the_seed(self):
        rng = np.random.default_rng(53)
        records = [
            rec(f"u{rng.integers(0, 8)}", f"p{rng.integers(0, 40)}") for _ in range(300)
        ]
        a = dataset_of(records, self.cfg(seed=9))
        b = dataset_of(records, self.cfg(seed=9))
        c = dataset_of(records, self.cfg(seed=10))
        assert a.interactions == b.interactions
        assert a.interactions != c.interactions

    def test_every_user_and_item_is_trained_on(self):
        rng = np.random.default_rng(59)
        records = [
            rec(f"u{rng.integers(0, 12)}", f"p{rng.integers(0, 60)}") for _ in range(400)
        ]
        ds = dataset_of(records, self.cfg())
        train = ~ds.interactions.is_test
        assert set(ds.interactions.users[train].tolist()) == set(range(ds.n_users))
        assert set(ds.interactions.items[train].tolist()) == set(range(ds.n_items))

    def test_single_user_items_all_promote_to_train(self):
        """With one user every held-out venue would be unseen, so nothing splits off."""
        records = [rec("solo", f"p{k}") for k in range(10)]
        ds = dataset_of(records, self.cfg())
        assert not ds.interactions.is_test.any()

    def test_train_counts_respect_the_floor(self):
        records = [rec(f"u{u}", f"p{k}") for u in range(8) for k in range(10)]
        ds = dataset_of(records, self.cfg(train_ratio=0.7))
        per_user = Counter(ds.interactions.users[~ds.interactions.is_test].tolist())
        assert all(count >= math.floor(0.7 * 10) for count in per_user.values())
        assert ds.interactions.is_test.any()

    def test_min_interactions_drops_sparse_users(self):
        records = [rec("busy", f"p{k}") for k in range(5)] + [rec("oneoff", "p0")]
        ds = dataset_of(records, self.cfg(min_interactions=5))
        assert ds.user_ids == ["busy"]

    def test_kcore_runs_after_the_sparse_user_drop(self):
        records = (
            [rec(f"u{u}", f"p{k}") for u in range(3) for k in range(5)]
            + [rec("u9", "p9")]
        )
        ds = dataset_of(records, self.cfg(min_interactions=2, kcore=2))
        assert "u9" not in ds.user_ids
        assert "p9" not in ds.item_ids

    def test_item_coordinates_take_the_mode(self):
        records = [
            rec("u0", "p0", lat=40.0, lon=-74.0),
            rec("u0", "p0", lat=40.1, lon=-74.0),
            rec("u1", "p0", lat=40.0, lon=-74.0),
            rec("u1", "p1", lat=1.0, lon=1.0),
            rec("u0", "p1", lat=2.0, lon=2.0),
        ]
        ds = dataset_of(records, self.cfg())
        assert (ds.item_lat[0], ds.item_lon[0]) == (40.0, -74.0)
        # tie between (1,1) and (2,2): first observation wins
        assert (ds.item_lat[1], ds.item_lon[1]) == (1.0, 1.0)

    def test_bad_ratio_and_empty_input(self):
        with pytest.raises(InputDataError):
            dataset_of([], self.cfg())

    def test_matches_dict_reference_on_random_records(self, tmp_path):
        """Same snapshot bytes (or the same error) as the dict-based build, and
        save -> load -> save gives the bytes back."""
        rng = np.random.default_rng(71)
        outcomes = Counter()
        for trial in range(300):
            records = random_records(rng)
            cfg = self.cfg(
                train_ratio=float(rng.choice([0.3, 0.5, 0.7, 0.9])),
                seed=int(rng.integers(1000)),
                min_interactions=int(rng.integers(0, 4)),
                kcore=int(rng.choice([0, 2, 3])),
            )
            try:
                expected = reference_snapshot(records, cfg)
            except InputDataError as exc:
                with pytest.raises(InputDataError, match=f"^{re.escape(str(exc))}$"):
                    dataset_of(records, cfg)
                outcomes["raised"] += 1
                continue
            save_snapshot(dataset_of(records, cfg), tmp_path / "a")
            assert (tmp_path / "a").read_bytes() == expected.encode(), f"trial {trial}"
            save_snapshot(load_snapshot(tmp_path / "a"), tmp_path / "b")
            assert (tmp_path / "b").read_bytes() == (tmp_path / "a").read_bytes()
            outcomes["built"] += 1
        assert outcomes["built"] > 150 and outcomes["raised"] > 0, outcomes

    def test_stats(self):
        records = [rec(f"u{u}", f"p{k}") for u in range(3) for k in range(4)] + [
            rec("u0", "p0"),
            rec("u0", "p1"),
        ]
        stats = dataset_stats(dataset_of(records, self.cfg()))
        assert stats["n_users"] == 3
        assert stats["n_items"] == 4
        assert stats["n_interactions"] == 12
        assert stats["n_checkins"] == 14
        np.testing.assert_allclose(stats["density_pct"], 100.0)


def snapshot_outcome(path, load=load_snapshot):
    """What load gives: the dataset as plain values, or the error message."""
    try:
        ds = load(path)
    except InputDataError as exc:
        return str(exc)
    columns = [getattr(ds.interactions, f.name) for f in dataclasses.fields(Interactions)]
    columns += [ds.item_lat, ds.item_lon]
    return (ds.user_ids, ds.item_ids, ds.split, *((a.dtype.str, a.tolist()) for a in columns))


def matches_the_line_reader(path) -> bool:
    """Whether load_snapshot loads path as the line-by-line reference reader
    does, or rejects it with one line that names the path. So it rejects
    every file the reference rejects."""
    outcome = snapshot_outcome(path)
    if isinstance(outcome, str):
        return outcome.startswith(f"{path}") and "\n" not in outcome
    return outcome == snapshot_outcome(path, line_readers._snapshot_lines)


def respell_item(lines, spell):
    """The snapshot text with the item index of the first E row naming an item
    past 9 spelled by spell; the dataset stays the same."""
    k = next(k for k, line in enumerate(lines) if line.startswith("E\t") and len(line.split("\t")[2]) > 1)
    parts = lines[k].split("\t")
    parts[2] = spell(parts[2])
    return "\n".join([*lines[:k], "\t".join(parts), *lines[k + 1 :]]) + "\n"


def interleaved(lines):
    """The snapshot text with its first E row moved ahead of the I rows."""
    first_item = next(k for k, line in enumerate(lines) if line.startswith("I\t"))
    first_edge = next(k for k, line in enumerate(lines) if line.startswith("E\t"))
    moved = [*lines[:first_item], lines[first_edge], *lines[first_item:first_edge], *lines[first_edge + 1 :]]
    return "\n".join(moved) + "\n"


def empty_slot_list(lines, repeat=False):
    """The snapshot text with the first E row's check-ins dropped and the
    header's check-in count kept true; with repeat, that row listed twice."""
    k = next(k for k, line in enumerate(lines) if line.startswith("E\t"))
    parts = lines[k].split("\t")
    meta = json.loads(lines[1])
    meta["n_checkins"] -= len(parts[4].split(","))
    lines = [lines[0], json.dumps(meta, sort_keys=True), *lines[2:]]
    lines[k : k + 1] = ["\t".join([*parts[:4], ""])] * (1 + repeat)
    return "\n".join(lines) + "\n"


def edit_rows(lines, edit):
    """The snapshot text with edit applied to the list of body lines."""
    body = list(lines[2:])
    edit(body)
    return "\n".join([*lines[:2], *body]) + "\n"


def swap_u_and_i(body):
    k = next(k for k, line in enumerate(body) if line.startswith("I\t"))
    body[k - 1], body[k] = body[k], body[k - 1]


def move_a_field(body):
    """The first E row gains a sixth field and the second loses its fifth."""
    k = next(k for k, line in enumerate(body) if line.startswith("E\t"))
    body[k] += "\t7"
    body[k + 1] = body[k + 1].rsplit("\t", 1)[0]


def e_row_of_another_type(body):
    k = next(k for k, line in enumerate(body) if line.startswith("E\t"))
    body[k] = "EX" + body[k][1:]


def slot_past_the_week(body):
    body[-1] = body[-1].rsplit("\t", 1)[0] + "\t168"


def item_row_for_a_user_row(body):
    k = next(k for k, line in enumerate(body) if line.startswith("I\t"))
    body[k - 1] = body[k]


def split_with_a_suffix(body):
    k = next(k for k, line in enumerate(body) if "\ttrain\t" in line)
    body[k] = body[k].replace("\ttrain\t", "\ttrains\t")


def user_past_2_to_the_64(body):
    """A user index that int64 arithmetic would wrap back to a valid one."""
    k = next(k for k, line in enumerate(body) if line.startswith("E\t"))
    parts = body[k].split("\t")
    parts[1] = str(2**64 + int(parts[1]))
    body[k] = "\t".join(parts)


def carriage_return_in_an_id(body):
    body[0] = body[0][:-1] + "\r" + body[0][-1]


ONE_ROW = (
    SNAPSHOT_MAGIC
    + '{"kcore": 0, "min_interactions": 5, "n_checkins": 0, "n_interactions": 0, '
    + '"n_items": 0, "n_users": 1, "seed": 0, "train_ratio": 0.7}\nU\tu1\n'
)


class TestSnapshot:
    def build(self):
        rng = np.random.default_rng(61)
        records = [
            rec(
                f"u{rng.integers(0, 6)}",
                f"p{rng.integers(0, 20)}",
                ts=f"2024-01-0{rng.integers(1, 8)}T{rng.integers(0, 24):02d}:15:00",
                lat=float(rng.uniform(40, 41)),
                lon=float(rng.uniform(-74, -73)),
            )
            for _ in range(150)
        ]
        return dataset_of(records, SplitConfig(train_ratio=0.7, seed=3, min_interactions=2))

    def test_round_trip_preserves_everything(self, tmp_path):
        ds = self.build()
        path = tmp_path / "city.sepdata"
        save_snapshot(ds, path)
        back = load_snapshot(path)
        assert back.user_ids == ds.user_ids
        assert back.item_ids == ds.item_ids
        assert back.interactions == ds.interactions
        np.testing.assert_array_equal(back.item_lat, ds.item_lat)
        np.testing.assert_array_equal(back.item_lon, ds.item_lon)
        assert back.split == ds.split

    def test_block_boundaries_change_no_byte(self, tmp_path, monkeypatch):
        ds = self.build()
        save_snapshot(ds, tmp_path / "one_block")
        monkeypatch.setattr(data, "_SAVE_BLOCK", 3)
        save_snapshot(ds, tmp_path / "blocks")
        assert (tmp_path / "blocks").read_bytes() == (tmp_path / "one_block").read_bytes()

    def test_empty_slot_lists_are_written_back(self, tmp_path):
        path = tmp_path / "empty.sepdata"
        path.write_text(empty_slot_list(self.saved_lines(tmp_path)))
        save_snapshot(load_snapshot(path), tmp_path / "again.sepdata")
        assert (tmp_path / "again.sepdata").read_bytes() == path.read_bytes()

    def test_coordinates_survive_exactly(self, tmp_path):
        """repr-format floats make the text round trip bit-exact."""
        ds = self.build()
        path = tmp_path / "c.sepdata"
        save_snapshot(ds, path)
        back = load_snapshot(path)
        assert all(a == b for a, b in zip(back.item_lat, ds.item_lat))

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "x.sepdata"
        path.write_text("NOTDATA\n{}\n")
        with pytest.raises(InputDataError, match="bad snapshot magic"):
            load_snapshot(path)
        with pytest.raises(InputDataError, match="not found"):
            load_snapshot(tmp_path / "missing.sepdata")

    def saved_lines(self, tmp_path):
        path = tmp_path / "good.sepdata"
        save_snapshot(self.build(), path)
        return path.read_text().splitlines()

    def load_lines(self, tmp_path, lines):
        path = tmp_path / "bad.sepdata"
        path.write_text("\n".join(lines) + "\n")
        return load_snapshot(path)

    @pytest.mark.parametrize(
        "header, match",
        [
            ("{}", "lacks"),
            ("not json", "not JSON"),
            ("[1, 2]", "JSON object"),
        ],
    )
    def test_header_fields_are_checked(self, tmp_path, header, match):
        lines = self.saved_lines(tmp_path)
        with pytest.raises(InputDataError, match=match):
            self.load_lines(tmp_path, [lines[0], header, *lines[2:]])

    @pytest.mark.parametrize("header", ["not json", "{" * 70], ids=["short", "long"])
    def test_header_that_is_not_json_is_shown_as_text(self, tmp_path, header):
        lines = self.saved_lines(tmp_path)
        with pytest.raises(InputDataError) as err:
            self.load_lines(tmp_path, [lines[0], header, *lines[2:]])
        assert str(err.value) == f"{tmp_path / 'bad.sepdata'}: snapshot header is not JSON: {header[:60]!r}"

    @pytest.mark.parametrize(
        "key, value",
        [("n_users", "-1"), ("n_items", '"20"'), ("kcore", "1.5"), ("train_ratio", "null")],
    )
    def test_header_values_are_typed(self, tmp_path, key, value):
        lines = self.saved_lines(tmp_path)
        meta = json.loads(lines[1])
        meta[key] = json.loads(value)
        with pytest.raises(InputDataError, match=key):
            self.load_lines(tmp_path, [lines[0], json.dumps(meta), *lines[2:]])

    @pytest.mark.parametrize(
        "kind, edit, match",
        [
            ("E", lambda p: [p[0], p[1], "99999", *p[3:]], "indexes past"),
            ("E", lambda p: [p[0], "-1", *p[2:]], "indexes past"),
            ("E", lambda p: [*p[:3], "valid", p[4]], "neither train nor test"),
            ("E", lambda p: [*p[:4], "168"], "weekly slot"),
            ("E", lambda p: [*p[:4], "a,b"], "bad snapshot row"),
            ("E", lambda p: p[:4], "bad snapshot row"),
            ("I", lambda p: [*p[:2], "nan", p[3]], "out of range"),
            ("I", lambda p: [*p[:3], "181.0"], "out of range"),
            ("U", lambda p: ["X", p[1]], "unknown row type"),
        ],
    )
    def test_bad_rows(self, tmp_path, kind, edit, match):
        lines = self.saved_lines(tmp_path)
        k = next(n for n, line in enumerate(lines) if line.startswith(kind + "\t"))
        lines[k] = "\t".join(edit(lines[k].split("\t")))
        with pytest.raises(InputDataError, match=match):
            self.load_lines(tmp_path, lines)

    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("U", lambda p: ["X", p[1]]),
            ("I", lambda p: [*p[:2], "nan", p[3]]),
            ("E", lambda p: [*p[:3], "valid", p[4]]),
            ("E", lambda p: [p[0], p[1], "99999", *p[3:]]),
            ("E", lambda p: [*p[:4], "3,168"]),
        ],
    )
    def test_a_bad_row_names_its_line(self, tmp_path, kind, edit):
        lines = self.saved_lines(tmp_path)
        rows = [n for n, line in enumerate(lines) if line.startswith(kind + "\t")]
        k = rows[len(rows) // 2]
        lines[k] = "\t".join(edit(lines[k].split("\t")))
        with pytest.raises(InputDataError) as error:
            self.load_lines(tmp_path, lines)
        path = tmp_path / "bad.sepdata"
        assert str(error.value).startswith(f"{path}:{k + 1}: bad snapshot row: ")

    @staticmethod
    def repeat_pair(lines, k, of, split):
        """Line index k rewritten as a `split` row of line index of's pair; its
        check-ins stay, so the header counts stay true."""
        pair, slots = lines[of].split("\t")[1:3], lines[k].split("\t")[4]
        lines[k] = "\t".join(["E", *pair, split, slots])
        return "({}, {})".format(*pair)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_a_repeated_pair_names_its_second_row(self, tmp_path, split):
        """A (user, item) pair on two E rows, train twice or train and test, is
        refused at the second row."""
        lines = self.saved_lines(tmp_path)
        train = [n for n, line in enumerate(lines) if line.startswith("E\t") and "\ttrain\t" in line]
        k = len(lines) - 1
        pair = self.repeat_pair(lines, k, train[0], split)
        with pytest.raises(InputDataError) as error:
            self.load_lines(tmp_path, lines)
        path = tmp_path / "bad.sepdata"
        assert str(error.value) == (
            f"{path}:{k + 1}: bad snapshot row: interaction {pair} is listed twice"
        )

    def test_the_first_row_that_repeats_a_pair_is_named(self, tmp_path):
        """Of two repeats, the one whose second row comes first is named, not
        the one with the smaller pair."""
        lines = self.saved_lines(tmp_path)
        rows = [n for n, line in enumerate(lines) if line.startswith("E\t")]
        pair = self.repeat_pair(lines, rows[2], rows[1], "train")
        self.repeat_pair(lines, rows[3], rows[0], "train")  # the smaller pair, repeated later
        with pytest.raises(InputDataError, match=rf":{rows[2] + 1}: .* {re.escape(pair)} is listed twice$"):
            self.load_lines(tmp_path, lines)

    def test_mutated_files_load_or_raise_input_error(self, tmp_path, mutate):
        rng = np.random.default_rng(67)
        lines = self.saved_lines(tmp_path)
        outcomes = Counter()
        for _ in range(300):
            try:
                ds = self.load_lines(tmp_path, mutate(lines, rng))
            except InputDataError:
                outcomes["rejected"] += 1
                continue
            outcomes["loaded"] += 1
            edges = ds.interactions
            assert np.all((edges.users >= 0) & (edges.users < ds.n_users))
            assert np.all((edges.items >= 0) & (edges.items < ds.n_items))
            assert np.all(np.isfinite(ds.item_lat)) and np.all(np.isfinite(ds.item_lon))
        assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0

    def test_mutations_match_the_line_reader(self, tmp_path, mutate):
        """On the 300 files of the mutation test above the loader loads what
        the line reader loads, with the same values, or rejects the file with
        one line naming it; it rejects every file the line reader rejects."""
        rng = np.random.default_rng(67)
        lines = self.saved_lines(tmp_path)
        for _ in range(300):
            path = tmp_path / "bad.sepdata"
            path.write_text("\n".join(mutate(lines, rng)) + "\n")
            assert matches_the_line_reader(path)

    CASES = {
        # name: (file text from the saved lines, loads)
        "as written": (lambda s: "\n".join(s) + "\n", True),
        "blank line": (lambda s: "\n".join([*s[:4], "", *s[4:]]) + "\n", False),
        "comment line": (lambda s: "\n".join([*s[:4], "# note", *s[4:]]) + "\n", False),
        "no final newline": (lambda s: "\n".join(s), False),
        "crlf": (lambda s: "\r\n".join(s) + "\r\n", False),
        "space": (lambda s: respell_item(s, " {}".format), False),
        "plus": (lambda s: respell_item(s, "+{}".format), False),
        "underscore": (lambda s: respell_item(s, lambda t: f"{t[0]}_{t[1:]}"), False),
        "1e400": (
            lambda s: "\n".join(re.sub(r"^(I\t[^\t]*\t)[^\t]*", r"\g<1>1e400", line) for line in s) + "\n",
            False,
        ),
        "one row": (lambda s: ONE_ROW, True),
        "interleaved rows": (interleaved, False),
        "empty slot list": (empty_slot_list, True),
        "repeated row with an empty slot list": (lambda s: empty_slot_list(s, repeat=True), False),
        "U and I rows swapped": (lambda s: edit_rows(s, swap_u_and_i), False),
        "a field moved to the next E row": (lambda s: edit_rows(s, move_a_field), False),
        "E row of another type": (lambda s: edit_rows(s, e_row_of_another_type), False),
        "I row for a U row": (lambda s: edit_rows(s, item_row_for_a_user_row), False),
        "split word with a suffix": (lambda s: edit_rows(s, split_with_a_suffix), False),
        "user index past 2**64": (lambda s: edit_rows(s, user_past_2_to_the_64), False),
        "text after the final newline": (lambda s: "\n".join(s) + "\nU", False),
        "carriage return in an id": (lambda s: edit_rows(s, carriage_return_in_an_id), False),
        "slot past the week": (lambda s: edit_rows(s, slot_past_the_week), False),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_hand_cases_match_the_line_reader(self, tmp_path, case):
        text, loads = self.CASES[case]
        path = tmp_path / "case.sepdata"
        path.write_bytes(text(self.saved_lines(tmp_path)).encode())
        assert matches_the_line_reader(path)
        outcome = snapshot_outcome(path)
        assert isinstance(outcome, tuple) == loads, outcome
