"""Parsing, filtering, splitting, and snapshot round-trips for check-in data."""
from __future__ import annotations

import dataclasses
import json
import math
import re
from collections import Counter
from datetime import datetime

import numpy as np
import pytest

from sepgcn import snapshot_columns
from sepgcn.config import SplitConfig
from sepgcn.data import (
    SNAPSHOT_MAGIC,
    CheckinRecord,
    Interactions,
    build_dataset,
    dataset_stats,
    kcore_filter,
    load_snapshot,
    parse_checkins,
    save_snapshot,
)
from sepgcn.errors import ConfigError, InputDataError
from sepgcn.geo import to_slot


def rec(u, i, ts="2024-01-01T10:00:00", lat=40.0, lon=-74.0):
    return CheckinRecord(u, i, datetime.fromisoformat(ts), lat, lon)


def kcore_records(records, k):
    """The records kcore_filter keeps, the ids numbered by np.unique."""
    users = np.unique([r.user_id for r in records], return_inverse=True)[1]
    items = np.unique([r.item_id for r in records], return_inverse=True)[1]
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
        for r in records:
            seen.setdefault(r.user_id, set()).add(r.item_id)
        records = [r for r in records if len(seen[r.user_id]) >= cfg.min_interactions]
    if cfg.kcore > 0:
        keep = kcore_oracle({(r.user_id, r.item_id) for r in records}, cfg.kcore)
        if not keep:
            raise InputDataError(f"k-core eliminated all data at k={cfg.kcore}")
        records = [r for r in records if (r.user_id, r.item_id) in keep]
    if not records:
        raise InputDataError("no records left after filtering")

    edge_slots = {}  # (user, item) -> slots, edges and users in order of first appearance
    user_edges = {}
    for r in records:
        key = (r.user_id, r.item_id)
        if key not in edge_slots:
            edge_slots[key] = []
            user_edges.setdefault(r.user_id, []).append(r.item_id)
        edge_slots[key].append(to_slot(r.timestamp))
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
    for pos, r in enumerate(records):
        counts.setdefault(r.item_id, Counter())[(r.latitude, r.longitude)] += 1
        first_seen.setdefault((r.item_id, r.latitude, r.longitude), pos)
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
    lines = [SNAPSHOT_MAGIC, json.dumps(meta, sort_keys=True)]
    lines += [f"U\t{u}" for u in user_ids]
    for i in item_ids:
        best = max(counts[i].items(), key=lambda kv: (kv[1], -first_seen[(i, *kv[0])]))
        lines.append(f"I\t{i}\t{best[0][0]!r}\t{best[0][1]!r}")
    for (u, i), slots in edge_slots.items():
        split = "test" if (u, i) in test else "train"
        lines.append(f"E\t{user_ids[u]}\t{item_ids[i]}\t{split}\t{','.join(map(str, slots))}")
    return "\n".join(lines) + "\n"


def random_records(rng):
    """Records over few users and items, with shared, +-0.0 and scattered coordinates.

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
        ts = datetime(2024, 1, 1 + int(rng.integers(7)), int(rng.integers(24)))
        user = users[int(rng.integers(len(users)))]
        records.append(CheckinRecord(user, f"p{rng.integers(n_items)}", ts, lat, lon))
    return records


class TestParse:
    def test_tab_separated_line(self):
        lines = ["alice\tcafe41\t2024-01-01T10:30:00\t40.7128\t-74.0060"]
        records, rejects = parse_checkins(lines)
        assert rejects == []
        (r,) = records
        assert r.user_id == "alice"
        assert r.item_id == "cafe41"
        assert r.timestamp == datetime(2024, 1, 1, 10, 30)
        assert (r.latitude, r.longitude) == (40.7128, -74.0060)

    def test_comma_fallback_and_blank_lines(self):
        lines = ["", "bob,bar7,2024-03-05T23:15:00,51.5,-0.12", "   \n"]
        records, rejects = parse_checkins(lines)
        assert len(records) == 1 and rejects == []
        assert records[0].user_id == "bob"

    def test_reject_reasons(self):
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
        records, rejects = parse_checkins([good] * 70 + bad)
        assert len(records) == 70
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

    def test_zone_suffixed_iso_is_rejected(self):
        lines = ["u\tp\t2024-01-01T10:00:00+02:00\t40.0\t-74.0"] + [
            "u\tp\t2024-01-01T10:00:00\t40.0\t-74.0"
        ] * 20
        records, rejects = parse_checkins(lines)
        assert len(records) == 20
        assert "zone suffix" in rejects[0][1]

    def test_reject_rate_above_ten_percent_raises(self):
        good = "u\tp\t2024-01-01T10:00:00\t40.0\t-74.0"
        with pytest.raises(InputDataError, match="rejected"):
            parse_checkins([good] * 9 + ["garbage line", "another"])
        # exactly at the boundary: 1 bad of 11 is under 10% only if 1 <= 1.1
        records, rejects = parse_checkins([good] * 10 + ["garbage line"])
        assert len(records) == 10 and len(rejects) == 1


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
            survivors = {(r.user_id, r.item_id) for r in kcore_records(records, k)}
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
            uc = Counter((r.user_id, r.item_id) for r in kept)
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
        ds = build_dataset(records, self.cfg())
        assert len(ds.interactions) == 2
        assert ds.n_checkins == 3
        np.testing.assert_array_equal(ds.interactions.items, [0, 1])
        np.testing.assert_array_equal(ds.interactions.slot_ptr, [0, 2, 3])
        np.testing.assert_array_equal(ds.interactions.slot_vals, [10, 30, 167])

    def test_indices_follow_first_appearance(self):
        records = [rec("b", "y"), rec("a", "x"), rec("b", "x")]
        ds = build_dataset(records, self.cfg())
        assert ds.user_ids == ["b", "a"]
        assert ds.item_ids == ["y", "x"]

    def test_split_is_deterministic_in_the_seed(self):
        rng = np.random.default_rng(53)
        records = [
            rec(f"u{rng.integers(0, 8)}", f"p{rng.integers(0, 40)}") for _ in range(300)
        ]
        a = build_dataset(records, self.cfg(seed=9))
        b = build_dataset(records, self.cfg(seed=9))
        c = build_dataset(records, self.cfg(seed=10))
        assert a.interactions == b.interactions
        assert a.interactions != c.interactions

    def test_every_user_and_item_is_trained_on(self):
        rng = np.random.default_rng(59)
        records = [
            rec(f"u{rng.integers(0, 12)}", f"p{rng.integers(0, 60)}") for _ in range(400)
        ]
        ds = build_dataset(records, self.cfg())
        train = ~ds.interactions.is_test
        assert set(ds.interactions.users[train].tolist()) == set(range(ds.n_users))
        assert set(ds.interactions.items[train].tolist()) == set(range(ds.n_items))

    def test_single_user_items_all_promote_to_train(self):
        """With one user every held-out venue would be unseen, so nothing splits off."""
        records = [rec("solo", f"p{k}") for k in range(10)]
        ds = build_dataset(records, self.cfg())
        assert not ds.interactions.is_test.any()

    def test_train_counts_respect_the_floor(self):
        records = [rec(f"u{u}", f"p{k}") for u in range(8) for k in range(10)]
        ds = build_dataset(records, self.cfg(train_ratio=0.7))
        per_user = Counter(ds.interactions.users[~ds.interactions.is_test].tolist())
        assert all(count >= math.floor(0.7 * 10) for count in per_user.values())
        assert ds.interactions.is_test.any()

    def test_min_interactions_drops_sparse_users(self):
        records = [rec("busy", f"p{k}") for k in range(5)] + [rec("oneoff", "p0")]
        ds = build_dataset(records, self.cfg(min_interactions=5))
        assert ds.user_ids == ["busy"]

    def test_kcore_runs_after_the_sparse_user_drop(self):
        records = (
            [rec(f"u{u}", f"p{k}") for u in range(3) for k in range(5)]
            + [rec("u9", "p9")]
        )
        ds = build_dataset(records, self.cfg(min_interactions=2, kcore=2))
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
        ds = build_dataset(records, self.cfg())
        assert (ds.item_lat[0], ds.item_lon[0]) == (40.0, -74.0)
        # tie between (1,1) and (2,2): first observation wins
        assert (ds.item_lat[1], ds.item_lon[1]) == (1.0, 1.0)

    def test_bad_ratio_and_empty_input(self):
        with pytest.raises(ConfigError):
            build_dataset([rec("u", "p")], self.cfg(train_ratio=1.0))
        with pytest.raises(InputDataError):
            build_dataset([], self.cfg())

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
                    build_dataset(records, cfg)
                outcomes["raised"] += 1
                continue
            save_snapshot(build_dataset(records, cfg), tmp_path / "a")
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
        stats = dataset_stats(build_dataset(records, self.cfg()))
        assert stats["n_users"] == 3
        assert stats["n_items"] == 4
        assert stats["n_interactions"] == 12
        assert stats["n_checkins"] == 14
        np.testing.assert_allclose(stats["density_pct"], 100.0)


def snapshot_outcome(path):
    """What load_snapshot gives: the dataset as plain values, or the error message."""
    try:
        ds = load_snapshot(path)
    except InputDataError as exc:
        return str(exc)
    columns = [getattr(ds.interactions, f.name) for f in dataclasses.fields(Interactions)]
    columns += [ds.item_lat, ds.item_lon]
    return (ds.user_ids, ds.item_ids, ds.split, *((a.dtype.str, a.tolist()) for a in columns))


def refuse(path):
    raise ValueError("whole-file reader switched off")


def line_reader_outcome(path, monkeypatch):
    """snapshot_outcome with the whole-file reader switched off, so the line reader decides."""
    with monkeypatch.context() as patch:
        patch.setattr(snapshot_columns, "read_columns", refuse)
        return snapshot_outcome(path)


def whole_file_reads(path) -> bool:
    try:
        snapshot_columns.read_columns(path)
    except (ValueError, InputDataError):
        return False
    return True


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
    + '\n{"kcore": 0, "min_interactions": 5, "n_checkins": 0, "n_interactions": 0, '
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
        return build_dataset(records, SplitConfig(train_ratio=0.7, seed=3, min_interactions=2))

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
        with pytest.raises(InputDataError, match="header"):
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

    def test_mutations_match_the_line_reader(self, tmp_path, mutate, monkeypatch):
        """The whole-file reader takes the writer's layout only; on the 300
        files of the mutation test above it gives what the line reader gives."""
        rng = np.random.default_rng(67)
        lines = self.saved_lines(tmp_path)
        whole = 0
        for _ in range(300):
            path = tmp_path / "bad.sepdata"
            path.write_text("\n".join(mutate(lines, rng)) + "\n")
            assert snapshot_outcome(path) == line_reader_outcome(path, monkeypatch)
            whole += whole_file_reads(path)
        assert 0 < whole < 300

    CASES = {
        # name: (file text from the saved lines, whole-file read, loads)
        "as written": (lambda s: "\n".join(s) + "\n", True, True),
        "blank line": (lambda s: "\n".join([*s[:4], "", *s[4:]]) + "\n", False, False),
        "comment line": (lambda s: "\n".join([*s[:4], "# note", *s[4:]]) + "\n", False, False),
        "no final newline": (lambda s: "\n".join(s), False, True),
        "crlf": (lambda s: "\r\n".join(s) + "\r\n", False, True),
        "space": (lambda s: respell_item(s, " {}".format), False, True),
        "plus": (lambda s: respell_item(s, "+{}".format), False, True),
        "underscore": (lambda s: respell_item(s, lambda t: f"{t[0]}_{t[1:]}"), False, True),
        "1e400": (
            lambda s: "\n".join(re.sub(r"^(I\t[^\t]*\t)[^\t]*", r"\g<1>1e400", line) for line in s) + "\n",
            False,
            False,
        ),
        "one row": (lambda s: ONE_ROW, True, True),
        "interleaved rows": (interleaved, False, True),
        "empty slot list": (empty_slot_list, True, True),
        "repeated row with an empty slot list": (lambda s: empty_slot_list(s, repeat=True), False, False),
        "U and I rows swapped": (lambda s: edit_rows(s, swap_u_and_i), False, True),
        "a field moved to the next E row": (lambda s: edit_rows(s, move_a_field), False, False),
        "E row of another type": (lambda s: edit_rows(s, e_row_of_another_type), False, False),
        "I row for a U row": (lambda s: edit_rows(s, item_row_for_a_user_row), False, False),
        "split word with a suffix": (lambda s: edit_rows(s, split_with_a_suffix), False, False),
        "user index past 2**64": (lambda s: edit_rows(s, user_past_2_to_the_64), False, False),
        "text after the final newline": (lambda s: "\n".join(s) + "\nU", False, False),
        "carriage return in an id": (lambda s: edit_rows(s, carriage_return_in_an_id), False, False),
        "slot past the week": (lambda s: edit_rows(s, slot_past_the_week), False, False),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_hand_cases_match_the_line_reader(self, tmp_path, monkeypatch, case):
        text, whole, loads = self.CASES[case]
        path = tmp_path / "case.sepdata"
        path.write_bytes(text(self.saved_lines(tmp_path)).encode())
        outcome = snapshot_outcome(path)
        assert outcome == line_reader_outcome(path, monkeypatch)
        assert whole_file_reads(path) == whole
        assert isinstance(outcome, tuple) == loads, outcome
