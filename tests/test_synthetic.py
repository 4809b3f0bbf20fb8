"""City generator tests: determinism, affinity statistics, and ingest round trip."""
from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from sepgcn.config import SplitConfig
from sepgcn.data import build_dataset, parse_checkins
from sepgcn.errors import ConfigError
from sepgcn.geo import to_slot
from sepgcn.synthetic import (
    LANDMARK,
    SyntheticConfig,
    generate_city,
    write_raw,
)

SMALL = SyntheticConfig(
    n_users=60,
    n_items=120,
    n_checkins=2400,
    n_districts=4,
    themes_per_district=2,
    seed=5,
)


class TestConfig:
    def test_defaults_valid(self):
        SyntheticConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_users": 0},
            {"themes_per_district": 0},
            {"home_affinity": 1.2},
            {"slot_affinity": -0.1},
            {"landmark_frac": 1.0},
            {"landmark_rate": 1.5},
            {"slots_per_scene": 0},
            {"slots_per_scene": 50},  # 4 themes x 50 > 168 weekly hours
            {"box_km": 0.0},
            {"weeks": 0},
            # 2 districts x 4 items each minus a landmark leaves < 4 themes
            {"n_items": 8, "n_districts": 2, "themes_per_district": 4},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SyntheticConfig(**kwargs).validate()

    def test_start_must_be_monday(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(start=datetime(2024, 1, 2)).validate()


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate_city(SMALL)
        b = generate_city(SMALL)
        assert a.records == b.records
        assert np.array_equal(a.user_home, b.user_home)
        c = generate_city(SyntheticConfig(**{**SMALL.__dict__, "seed": 6}))
        assert c.records != a.records

    def test_counts_and_id_ranges(self):
        city = generate_city(SMALL)
        assert len(city.records) == SMALL.n_checkins
        users = {r.user_id for r in city.records}
        items = {r.item_id for r in city.records}
        assert users <= {f"u{k:04d}" for k in range(SMALL.n_users)}
        assert items <= {f"v{k:04d}" for k in range(SMALL.n_items)}
        assert len(city.scene_slots) == SMALL.n_scenes
        assert all(len(s) == SMALL.slots_per_scene for s in city.scene_slots)

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
        lat = np.array([r.latitude for r in city.records])
        lon = np.array([r.longitude for r in city.records])
        # box half-width plus a generous jitter margin
        assert np.all(np.abs(lat - SMALL.center_lat) < 0.25)
        assert np.all(np.abs(lon - SMALL.center_lon) < 0.35)

    def test_visits_follow_the_visitors_hours(self):
        city = generate_city(SMALL)
        slot_sets = [set(s.tolist()) for s in city.scene_slots]
        hits = sum(
            to_slot(r.timestamp) in slot_sets[int(city.user_home[int(r.user_id[1:])])]
            for r in city.records
        )
        frac = hits / len(city.records)
        assert abs(frac - SMALL.slot_affinity) < 0.03

    def test_home_district_fraction(self):
        city = generate_city(SMALL)
        home_district = city.user_home // SMALL.themes_per_district
        hits = sum(
            int(city.item_district[int(r.item_id[1:])])
            == int(home_district[int(r.user_id[1:])])
            for r in city.records
        )
        frac = hits / len(city.records)
        expected = SMALL.home_affinity + (1 - SMALL.home_affinity) / SMALL.n_districts
        assert abs(frac - expected) < 0.04

    def test_landmark_visit_fraction(self):
        city = generate_city(SMALL)
        hits = sum(
            int(city.item_scene[int(r.item_id[1:])]) == LANDMARK for r in city.records
        )
        frac = hits / len(city.records)
        expected = SMALL.home_affinity * SMALL.landmark_rate
        assert abs(frac - expected) < 0.04

    def test_timestamps_cover_weeks_and_stay_in_range(self):
        city = generate_city(SMALL)
        weeks = {(r.timestamp - SMALL.start).days // 7 for r in city.records}
        assert weeks == set(range(SMALL.weeks))
        assert all(SMALL.start <= r.timestamp for r in city.records)


class TestRoundTrip:
    def test_raw_file_parses_back_exactly(self, tmp_path):
        city = generate_city(SyntheticConfig(**{**SMALL.__dict__, "n_checkins": 500}))
        path = tmp_path / "raw.tsv"
        write_raw(city.records, path)
        parsed, rejects = parse_checkins(path)
        assert rejects == []
        assert parsed == city.checkins()
        assert parsed.user_ids == list(dict.fromkeys(r.user_id for r in city.records))
        assert parsed.slots.tolist() == [to_slot(r.timestamp) for r in city.records]
        assert parsed.lat.tolist() == [r.latitude for r in city.records]

    def test_pipeline_smoke(self, tmp_path):
        city = generate_city(SMALL)
        path = tmp_path / "raw.tsv"
        write_raw(city.records, path)
        parsed, _ = parse_checkins(path)
        ds = build_dataset(parsed, SplitConfig(train_ratio=0.7, seed=1))
        assert ds.n_users > 0 and ds.n_items > 0
        assert ds.interactions.is_test.any()
        assert np.all(np.diff(ds.interactions.slot_ptr) >= 1)
