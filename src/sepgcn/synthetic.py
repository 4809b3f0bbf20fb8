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
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .config import EARTH_RADIUS_KM
from .data import Checkins
from .errors import ConfigError
from .geo import SLOTS_PER_WEEK, to_slot

KM_PER_DEG_LAT = math.pi * EARTH_RADIUS_KM / 180.0
LANDMARK = -1  # scene label for district-wide items


@dataclass(frozen=True)
class CheckinRecord:
    user_id: str
    item_id: str
    timestamp: datetime  # naive local civil time
    latitude: float
    longitude: float


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
        if self.start.weekday() != 0:
            raise ConfigError("start must fall on a Monday so slot 0 is hour 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SyntheticCity:
    records: list[CheckinRecord]
    user_home: np.ndarray  # scene per user
    item_scene: np.ndarray  # scene per item, LANDMARK for district-wide items
    item_district: np.ndarray  # district per item
    scene_slots: list[np.ndarray]  # characteristic weekly hours per scene
    config: SyntheticConfig

    def checkins(self) -> Checkins:
        """The records as the columns parse_checkins reads from write_raw's log."""
        return Checkins.from_rows(
            (r.user_id, r.item_id, to_slot(r.timestamp), r.latitude, r.longitude)
            for r in self.records
        )


def generate_city(cfg: SyntheticConfig) -> SyntheticCity:
    """Draw a full check-in log from the scene model, reproducibly."""
    cfg.validate()
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

    records: list[CheckinRecord] = []
    for _ in range(cfg.n_checkins):
        user = int(rng.integers(cfg.n_users))
        home = int(user_home[user])
        if rng.random() < cfg.home_affinity:
            district = home // cfg.themes_per_district
            pool = landmark_items[district]
            if len(pool) and rng.random() < cfg.landmark_rate:
                item = int(pool[rng.integers(len(pool))])
            else:
                item = int(scene_items[home][rng.integers(len(scene_items[home]))])
        else:
            scene = int(rng.integers(cfg.n_scenes))
            item = int(scene_items[scene][rng.integers(len(scene_items[scene]))])
        # visits happen on the visitor's schedule, whatever the target
        if rng.random() < cfg.slot_affinity:
            slot = int(scene_slots[home][rng.integers(cfg.slots_per_scene)])
        else:
            slot = int(rng.integers(SLOTS_PER_WEEK))
        when = cfg.start + timedelta(
            weeks=int(rng.integers(cfg.weeks)),
            days=slot // 24,
            hours=slot % 24,
            minutes=int(rng.integers(60)),
        )
        records.append(
            CheckinRecord(
                user_id=f"u{user:04d}",
                item_id=f"v{item:04d}",
                timestamp=when,
                latitude=float(item_lat[item]),
                longitude=float(item_lon[item]),
            )
        )
    return SyntheticCity(records, user_home, item_scene, item_district, scene_slots, cfg)


def write_raw(records: list[CheckinRecord], path: str | Path) -> None:
    """Tab-separated log in the default ingest layout."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        for r in records:
            f.write(
                f"{r.user_id}\t{r.item_id}\t{r.timestamp.isoformat()}"
                f"\t{r.latitude!r}\t{r.longitude!r}\n"
            )
