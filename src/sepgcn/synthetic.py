"""Synthetic check-in city for desk-scale experiments.

Geography is organized into districts; each district hosts several
"scenes" — communities that share the district's location but keep their
own weekly hours and their own item pool (think lunch spots vs nightlife
in the same blocks). A user belongs to one scene, checks in mostly there,
and always during their own hours. Each district also has a few landmark
items that everyone in the district visits regardless of scene.

Landmarks blur the interaction graph: they bridge users of different
scenes, so co-visitation alone cannot cleanly separate communities. The
visit times still can — a landmark check-in happens during the visitor's
own hours — so edges that coincide in place and weekly hour keep pointing
at true scene-mates. That is precisely the structure the edge-pair graph
is designed to recover.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from .config import EARTH_RADIUS_KM
from .data import Checkins, _index, _texts
from .errors import ConfigError, check_size
from .geo import SLOTS_PER_WEEK

KM_PER_DEG_LAT = math.pi * EARTH_RADIUS_KM / 180.0
LANDMARK = -1  # scene label for district-wide items


@dataclass
class SyntheticConfig:
    n_users: int = 1000
    n_items: int = 2000
    n_checkins: int = 30_000
    n_districts: int = 5
    themes_per_district: int = 4  # scenes per district, disjoint weekly hours
    center_lat: float = 40.0
    center_lon: float = -74.0
    box_km: float = 40.0
    home_affinity: float = 0.6
    slot_affinity: float = 0.95
    landmark_frac: float = 0.2  # share of a district's items open to every scene
    landmark_rate: float = 0.35  # share of home visits that go to a landmark
    slots_per_scene: int = 6
    jitter_km: float = 0.15
    weeks: int = 8
    start: datetime = field(default_factory=lambda: datetime(2024, 1, 1))
    seed: int = 0

    @property
    def n_scenes(self) -> int:
        return self.n_districts * self.themes_per_district

    def validate(self) -> None:
        if min(self.n_users, self.n_items, self.n_checkins, self.n_districts) < 1:
            raise ConfigError("all synthetic counts must be >= 1")
        if self.themes_per_district < 1:
            raise ConfigError("themes_per_district must be >= 1")
        if not 0.0 <= self.home_affinity <= 1.0 or not 0.0 <= self.slot_affinity <= 1.0:
            raise ConfigError("affinities must lie in [0, 1]")
        if not 0.0 <= self.landmark_frac < 1.0 or not 0.0 <= self.landmark_rate <= 1.0:
            raise ConfigError("landmark_frac must lie in [0, 1) and landmark_rate in [0, 1]")
        if self.slots_per_scene < 1:
            raise ConfigError("slots_per_scene must be >= 1")
        if self.themes_per_district * self.slots_per_scene > SLOTS_PER_WEEK:
            raise ConfigError(
                "a district cannot hand out more than "
                f"{SLOTS_PER_WEEK} distinct weekly hours across its scenes"
            )
        per_district = self.n_items // self.n_districts
        landmarks = math.ceil(per_district * self.landmark_frac)
        if per_district - landmarks < self.themes_per_district:
            raise ConfigError(
                "not enough items per district to give every scene at least one "
                "item after reserving landmarks"
            )
        if self.box_km <= 0 or self.jitter_km < 0:
            raise ConfigError("box_km must be positive and jitter_km non-negative")
        if self.weeks < 1:
            raise ConfigError("weeks must be >= 1")
        midnight = datetime(self.start.year, self.start.month, self.start.day)
        if self.start.weekday() != 0 or self.start != midnight:
            raise ConfigError("start must be a Monday midnight without a zone so slot 0 is hour 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SyntheticCity:
    """A generated log as columns: check-in r is by user user[r] at item item[r],
    in weekly slot slot[r] of week week[r], at minute minute[r] of the hour."""

    user: np.ndarray  # int64
    item: np.ndarray  # int64
    slot: np.ndarray  # int64
    week: np.ndarray  # int64
    minute: np.ndarray  # int64
    item_lat: np.ndarray  # latitude per item
    item_lon: np.ndarray  # longitude per item
    user_home: np.ndarray  # scene per user
    item_scene: np.ndarray  # scene per item, LANDMARK for district-wide items
    item_district: np.ndarray  # district per item
    scene_slots: list[np.ndarray]  # characteristic weekly hours per scene
    config: SyntheticConfig

    def checkins(self) -> Checkins:
        """The log as the columns parse_checkins reads from write_raw's file."""
        users, first_user = _index(self.user)
        items, first_item = _index(self.item)
        user_ids = ["u%04d" % u for u in self.user[first_user].tolist()]
        item_ids = ["v%04d" % i for i in self.item[first_item].tolist()]
        lat, lon = self.item_lat[self.item], self.item_lon[self.item]
        return Checkins(users, items, self.slot, lat, lon, user_ids, item_ids)


def generate_city(cfg: SyntheticConfig) -> SyntheticCity:
    """Draw a full check-in log from the scene model, reproducibly."""
    cfg.validate()
    check_size((cfg.n_users + cfg.n_items + 5 * cfg.n_checkins,), "the city")
    rng = np.random.default_rng(cfg.seed)
    half_lat = cfg.box_km / 2.0 / KM_PER_DEG_LAT
    half_lon = cfg.box_km / 2.0 / (KM_PER_DEG_LAT * math.cos(math.radians(cfg.center_lat)))
    centers_lat = rng.uniform(cfg.center_lat - half_lat, cfg.center_lat + half_lat, cfg.n_districts)
    centers_lon = rng.uniform(cfg.center_lon - half_lon, cfg.center_lon + half_lon, cfg.n_districts)
    # scenes of one district get disjoint weekly hours
    scene_slots: list[np.ndarray] = []
    for _ in range(cfg.n_districts):
        pool = rng.choice(
            SLOTS_PER_WEEK, size=cfg.themes_per_district * cfg.slots_per_scene, replace=False
        )
        scene_slots += [
            np.sort(pool[t * cfg.slots_per_scene : (t + 1) * cfg.slots_per_scene])
            for t in range(cfg.themes_per_district)
        ]
    # round-robin over districts keeps them equally sized; within a district
    # the first few items become landmarks, the rest cycle through its scenes
    item_district = np.arange(cfg.n_items) % cfg.n_districts
    position = np.arange(cfg.n_items) // cfg.n_districts
    per_district = cfg.n_items // cfg.n_districts
    n_landmarks = math.ceil(per_district * cfg.landmark_frac)
    item_scene = np.where(
        position < n_landmarks,
        LANDMARK,
        item_district * cfg.themes_per_district + (position - n_landmarks) % cfg.themes_per_district,
    )
    lat_jitter = rng.normal(0.0, cfg.jitter_km / KM_PER_DEG_LAT, cfg.n_items)
    lon_jitter = rng.normal(
        0.0, cfg.jitter_km / (KM_PER_DEG_LAT * math.cos(math.radians(cfg.center_lat))), cfg.n_items
    )
    item_lat = centers_lat[item_district] + lat_jitter
    item_lon = centers_lon[item_district] + lon_jitter
    scene_items = [np.flatnonzero(item_scene == s) for s in range(cfg.n_scenes)]
    landmark_items = [
        np.flatnonzero((item_scene == LANDMARK) & (item_district == d))
        for d in range(cfg.n_districts)
    ]
    if any(len(items) == 0 for items in scene_items):
        raise ConfigError("every scene needs at least one item; lower landmark_frac")
    user_home = rng.integers(0, cfg.n_scenes, size=cfg.n_users)

    user, item, slot, week, minute = np.empty((5, cfg.n_checkins), dtype=np.int64)
    for r in range(cfg.n_checkins):
        user[r] = rng.integers(cfg.n_users)
        home = user_home[user[r]]
        if rng.random() < cfg.home_affinity:
            landmarks = landmark_items[home // cfg.themes_per_district]
            pool = landmarks if len(landmarks) and rng.random() < cfg.landmark_rate else scene_items[home]
        else:
            pool = scene_items[rng.integers(cfg.n_scenes)]
        item[r] = pool[rng.integers(len(pool))]
        # visits happen on the visitor's schedule, whatever the target
        if rng.random() < cfg.slot_affinity:
            slot[r] = scene_slots[home][rng.integers(cfg.slots_per_scene)]
        else:
            slot[r] = rng.integers(SLOTS_PER_WEEK)
        week[r] = rng.integers(cfg.weeks)
        minute[r] = rng.integers(60)
    columns = user, item, slot, week, minute, item_lat, item_lon
    return SyntheticCity(*columns, user_home, item_scene, item_district, scene_slots, cfg)


_WRITE_BLOCK = 1 << 16  # rows formatted per write


def write_raw(city: SyntheticCity, path: str | Path) -> None:
    """Tab-separated log in the default ingest layout, a block of rows per write."""
    coords = zip(city.item_lat.tolist(), city.item_lon.tolist())
    coord_texts = np.array(list(map("\t%r\t%r\n".__mod__, coords)), dtype=object)
    start = np.datetime64(city.config.start, "m")
    minutes = (city.week * SLOTS_PER_WEEK + city.slot) * 60 + city.minute
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        for at in range(0, len(minutes), _WRITE_BLOCK):
            rows = slice(at, at + _WRITE_BLOCK)
            tokens = (
                _texts(city.user[rows], "u%04d\t"),
                _texts(city.item[rows], "v%04d\t"),
                np.datetime_as_string(start + minutes[rows], unit="s").astype(object),
                coord_texts[city.item[rows]],
            )
            f.write("".join(np.stack(tokens, axis=1).ravel().tolist()))
