"""City generator tests: determinism, affinity statistics, and ingest round trip."""
from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from sepgcn import synthetic
from sepgcn.config import SplitConfig
from sepgcn.data import build_dataset, parse_checkins
from sepgcn.errors import ConfigError
from sepgcn.synthetic import (
    CENTER_LAT,
    CENTER_LON,
    HOME_AFFINITY,
    LANDMARK,
    LANDMARK_RATE,
    SLOT_AFFINITY,
    SLOTS_PER_SCENE,
    WEEKS,
    SyntheticConfig,
    generate_city,
    write_raw,
)

from reference import _scalar_draws, scalar_checkins, scalar_city

SMALL = SyntheticConfig(
    n_users=60,
    n_items=120,
    n_checkins=2400,
    n_districts=4,
    themes_per_district=2,
    seed=5,
)
# one-item landmark pools draw integers(1), and 7 homes leave a 32-bit half held
TINY = SyntheticConfig(7, 11, 500, n_districts=2, themes_per_district=1, seed=3)
# 6 items per district: 2 landmarks and one item for each of 4 scenes
ONE_ITEM_SCENES = SyntheticConfig(50, 30, 20_000, seed=3)
HELD = SyntheticConfig(n_checkins=10_000, seed=7)
COLUMNS = ("user", "item", "slot", "week", "minute")


def same_log(a, b) -> bool:
    return all(np.array_equal(getattr(a, c), getattr(b, c)) for c in COLUMNS)


class TestConfig:
    def test_defaults_valid(self):
        SyntheticConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_users": 0},
            {"themes_per_district": 0},
            {"themes_per_district": 29},  # 29 themes x 6 hours > 168 weekly hours
            # 2 districts x 4 items each minus a landmark leaves < 4 themes
            {"n_items": 8, "n_districts": 2, "themes_per_district": 4},
            {"n_items": 0},
            {"n_checkins": 0},
            {"n_districts": 0},
            {"seed": -1},
            # numpy draws these bounds through a path the array draws do not follow
            {"n_users": 2**32},
            {"n_items": 2**32},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        """The error names the key of the first setting given."""
        key = SyntheticConfig.__dataclass_fields__[next(iter(kwargs))].metadata["key"]
        with pytest.raises(ConfigError, match=f"^{key} "):
            SyntheticConfig(**kwargs).validate()


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate_city(SMALL)
        b = generate_city(SMALL)
        assert same_log(a, b)
        assert np.array_equal(a.user_home, b.user_home)
        c = generate_city(SyntheticConfig(**{**SMALL.__dict__, "seed": 6}))
        assert not same_log(a, c)

    def test_counts_and_id_ranges(self):
        city = generate_city(SMALL)
        assert all(len(getattr(city, c)) == SMALL.n_checkins for c in COLUMNS)
        assert all(getattr(city, c).dtype == np.int64 for c in COLUMNS)
        assert set(city.user.tolist()) <= set(range(SMALL.n_users))
        assert set(city.item.tolist()) <= set(range(SMALL.n_items))
        assert len(city.scene_slots) == SMALL.n_scenes
        assert all(len(s) == SLOTS_PER_SCENE for s in city.scene_slots)

    def test_every_scene_and_landmark_pool_populated(self):
        city = generate_city(SMALL)
        assert set(city.item_scene.tolist()) == {LANDMARK, *range(SMALL.n_scenes)}
        for d in range(SMALL.n_districts):
            mask = (city.item_scene == LANDMARK) & (city.item_district == d)
            assert mask.sum() > 0

    def test_scene_hours_disjoint_within_district(self):
        city = generate_city(SMALL)
        for d in range(SMALL.n_districts):
            scenes = range(d * SMALL.themes_per_district, (d + 1) * SMALL.themes_per_district)
            pooled = np.concatenate([city.scene_slots[s] for s in scenes])
            assert len(pooled) == len(set(pooled.tolist()))

    def test_coordinates_inside_jittered_box(self):
        city = generate_city(SMALL)
        lat, lon = city.item_lat[city.item], city.item_lon[city.item]
        # box half-width plus a generous jitter margin
        assert np.all(np.abs(lat - CENTER_LAT) < 0.25)
        assert np.all(np.abs(lon - CENTER_LON) < 0.35)

    def test_visits_follow_the_visitors_hours(self):
        city = generate_city(SMALL)
        slot_sets = [set(s.tolist()) for s in city.scene_slots]
        homes = city.user_home[city.user].tolist()
        hits = sum(slot in slot_sets[home] for slot, home in zip(city.slot.tolist(), homes))
        frac = hits / SMALL.n_checkins
        assert abs(frac - SLOT_AFFINITY) < 0.03

    def test_home_district_fraction(self):
        city = generate_city(SMALL)
        home_district = city.user_home // SMALL.themes_per_district
        hits = np.sum(city.item_district[city.item] == home_district[city.user])
        frac = hits / SMALL.n_checkins
        expected = HOME_AFFINITY + (1 - HOME_AFFINITY) / SMALL.n_districts
        assert abs(frac - expected) < 0.04

    def test_landmark_visit_fraction(self):
        city = generate_city(SMALL)
        hits = np.sum(city.item_scene[city.item] == LANDMARK)
        frac = hits / SMALL.n_checkins
        expected = HOME_AFFINITY * LANDMARK_RATE
        assert abs(frac - expected) < 0.04

    def test_timestamps_cover_weeks_and_stay_in_range(self):
        city = generate_city(SMALL)
        assert set(city.week.tolist()) == set(range(WEEKS))
        assert set(city.minute.tolist()) <= set(range(60))
        assert set(city.slot.tolist()) <= set(range(168))


class TestReplay:
    """generate_city draws from raw words what the Generator's scalar calls
    draw; _scalar_draws, the oracle of the planted streams, replays those
    calls and is checked against numpy's own."""

    @pytest.mark.parametrize(
        "cfg",
        [
            *(SyntheticConfig(seed=seed) for seed in range(3)),
            SMALL,
            TINY,
            SyntheticConfig(40, 30, 500, n_districts=1, themes_per_district=1, seed=4),
            SyntheticConfig(1, 30, 500, n_districts=2, themes_per_district=2, seed=5),
            ONE_ITEM_SCENES,
            SyntheticConfig(1, 30, 10_000, n_districts=2, themes_per_district=2, seed=5),
            SyntheticConfig(40, 30, 10_000, n_districts=1, themes_per_district=1, seed=4),
            HELD,
        ],
        ids=["default-0", "default-1", "default-2", "small", "tiny", "one-scene", "one-user",
             "one-item-scenes-20k", "one-user-10k", "one-scene-10k", "held-10k"],
    )
    def test_same_columns_as_the_scalar_calls(self, cfg):
        city, expected = generate_city(cfg), scalar_city(cfg)
        for name in (*COLUMNS, "user_home"):
            assert np.array_equal(getattr(city, name), expected[name]), name

    def test_cases_reach_a_held_half_and_one_item_pools(self):
        assert scalar_city(TINY)["held"]
        assert not scalar_city(SMALL)["held"]
        city = generate_city(TINY)
        assert all(np.sum((city.item_scene == LANDMARK) & (city.item_district == d)) == 1 for d in range(2))
        assert scalar_city(HELD)["held"]
        city = generate_city(ONE_ITEM_SCENES)
        scene_sizes = np.bincount(city.item_scene[city.item_scene != LANDMARK])
        assert scene_sizes.tolist() == [1] * ONE_ITEM_SCENES.n_scenes

    @pytest.mark.parametrize("k", [2**31 + 1, 3 * 2**30 + 7])
    @pytest.mark.parametrize("held", [False, True])
    def test_bounded_draw_rejects_as_numpy_does(self, k, held):
        """Bounds this large reject a quarter to a half of the first draws,
        a branch no generated city reaches."""
        rng = np.random.default_rng(11)
        if held:
            rng.integers(2)
        replay = np.random.default_rng(0)
        replay.bit_generator.state = rng.bit_generator.state
        random, integers = _scalar_draws(replay.bit_generator)
        assert [integers(k) for _ in range(2000)] == [rng.integers(k) for _ in range(2000)]
        assert [random() for _ in range(3)] == [rng.random() for _ in range(3)]
        assert [integers(k) for _ in range(5)] == [rng.integers(k) for _ in range(5)]


class PlantedWords:
    """A PCG64 stream's state and raw words, with all-zero words at the
    given positions, counted from the first word it serves. A zero low half
    is rejected by every bound that is not a power of two. held_zero makes
    the state hold back a zero half. With one_word it serves one word per
    call, so `served` counts the words a lazy reader has read; `largest` is
    the most words asked for in one call."""

    def __init__(self, zeros=(), held_zero=False, one_word=False):
        self.source = np.random.default_rng(7).bit_generator
        self.state = self.source.state
        if held_zero:
            self.state = {**self.state, "has_uint32": 1, "uinteger": 0}
        self.zeros, self.one_word, self.served, self.largest = set(zeros), one_word, 0, 0

    def random_raw(self, size):
        size = 1 if self.one_word else size
        self.largest = max(self.largest, size)
        words = self.source.random_raw(size)
        words[[z - self.served for z in self.zeros if 0 <= z - self.served < size]] = 0
        self.served += size
        return words


class TestPlantedRejections:
    """The first walked check-in with a rejected draw makes that draw again
    inside the array draw, and the walk resumes after it; a redraw that
    runs past the block starts the walk again there with a block twice as
    long. The columns are those of the scalar loop."""

    CFG = SyntheticConfig(seed=1)  # 30k check-ins read about 160k words

    @pytest.fixture(scope="class")
    def city(self):
        return generate_city(self.CFG)

    def inputs(self, city, checkins):
        cfg = SyntheticConfig(**{**self.CFG.__dict__, "n_checkins": checkins})
        return cfg, city.user_home, city.item_scene, city.item_district, city.scene_slots

    @pytest.mark.parametrize(
        "case", ["none", "first", "last", "block-boundary", "held-half", "doubled-block", "scattered"]
    )
    def test_same_columns_as_the_scalar_loop(self, case, city):
        """Each plant but the scattered one makes one check-in's draws
        rejected; this stream has no rejection of its own."""
        inputs = self.inputs(city, self.CFG.n_checkins)
        # block-boundary: 20,000 zero words from inside the first 65,536-word
        # block past its end, so the redraws read on past the words drawn;
        # doubled-block: a streak that the block doubles twice to hold;
        # scattered: 200 zero words among the 160k the check-ins read
        scattered = np.random.default_rng(34).choice(160_000, 200, replace=False)
        planted = {"first": {"zeros": [0]}, "held-half": {"held_zero": True},
                   "block-boundary": {"zeros": range(50_000, 70_000)},
                   "doubled-block": {"zeros": range(30_000, 300_000)},
                   "scattered": {"zeros": scattered.tolist()}}.get(case, {})
        if case == "last":
            # the words the check-ins before the last one read
            counter = PlantedWords(one_word=True)
            scalar_checkins(counter, *self.inputs(city, self.CFG.n_checkins - 1))
            planted = {"zeros": range(counter.served, counter.served + 6)}
        source = PlantedWords(**planted)
        drawn = synthetic._checkin_columns(source, *inputs)
        expected = scalar_checkins(PlantedWords(**planted), *inputs)
        assert np.array_equal(drawn, expected)
        assert (source.largest >= 4 * synthetic._RAW_BLOCK) == (case == "doubled-block")
        if case == "last":
            plain = scalar_checkins(PlantedWords(), *inputs)
            assert np.array_equal(expected[:, :-1], plain[:, :-1])


class TestMemory:
    def test_working_memory_does_not_grow_with_the_checkins(self):
        """generate_city's traced peak, less its five int64 columns, was
        3.4 MB at 30k, 90k and 300k check-ins before the whole-array draws
        and 3.8 MB with them."""
        generate_city(SyntheticConfig(n_checkins=100))  # first-call allocations
        extra = {}
        for n in (30_000, 300_000):
            tracemalloc.start()
            try:
                generate_city(SyntheticConfig(n_checkins=n))
                extra[n] = (tracemalloc.get_traced_memory()[1] - 5 * 8 * n) / 2**20
            finally:
                tracemalloc.stop()
        assert extra[300_000] < extra[30_000] + 0.5, extra
        assert extra[30_000] < 5.0, extra


class TestRoundTrip:
    def test_raw_file_parses_back_exactly(self, tmp_path):
        city = generate_city(SyntheticConfig(**{**SMALL.__dict__, "n_checkins": 500}))
        path = tmp_path / "raw.tsv"
        write_raw(city, path)
        parsed, rejects = parse_checkins(path)
        assert rejects == []
        assert parsed == city.checkins()
        assert parsed.user_ids == list(dict.fromkeys(f"u{u:04d}" for u in city.user.tolist()))
        assert parsed.slots.tolist() == city.slot.tolist()
        assert parsed.lat.tolist() == city.item_lat[city.item].tolist()

    def test_log_bytes_are_pinned(self, tmp_path):
        """The draw order and the formatting fix every generated log."""
        write_raw(generate_city(SMALL), tmp_path / "raw.tsv")
        digest = hashlib.sha256((tmp_path / "raw.tsv").read_bytes()).hexdigest()
        assert digest == "14f315f17865c62dfe4e4e77afd91512b688a29b379dfa01f51cf47b197a9519"

    def test_block_boundaries_change_no_byte(self, tmp_path, monkeypatch):
        city = generate_city(SMALL)
        write_raw(city, tmp_path / "one_block.tsv")
        monkeypatch.setattr(synthetic, "_WRITE_BLOCK", 3)
        write_raw(city, tmp_path / "blocks.tsv")
        assert (tmp_path / "blocks.tsv").read_bytes() == (tmp_path / "one_block.tsv").read_bytes()

    def test_default_log_bytes_are_pinned(self, tmp_path):
        """30k check-ins take about 160k raw words, so the draws refill their block."""
        write_raw(generate_city(SyntheticConfig(seed=0)), tmp_path / "raw.tsv")
        digest = hashlib.sha256((tmp_path / "raw.tsv").read_bytes()).hexdigest()
        assert digest == "ebe1371efca2bc7ed73fd33ac2b51fc45461355b86e1c9db3da4859f7306b605"

    def test_pipeline_smoke(self, tmp_path):
        city = generate_city(SMALL)
        path = tmp_path / "raw.tsv"
        write_raw(city, path)
        parsed, _ = parse_checkins(path)
        ds = build_dataset(parsed, SplitConfig(train_ratio=0.7, seed=1))
        assert ds.n_users > 0 and ds.n_items > 0
        assert ds.interactions.is_test.any()
        assert np.all(np.diff(ds.interactions.slot_ptr) >= 1)
