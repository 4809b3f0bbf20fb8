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
from dataclasses import dataclass
from datetime import datetime
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .config import AT_LEAST_0, AT_LEAST_1, EARTH_RADIUS_KM, _error, _Settings, setting
from .data import Checkins, _index, _texts
from .errors import check_size
from .geo import SLOTS_PER_WEEK

LANDMARK = -1  # scene label for district-wide items
USER_ID, ITEM_ID = "u%04d", "v%04d"  # how the log spells its ids

# the shape of every city
CENTER_LAT = 40.0
CENTER_LON = -74.0
KM_PER_DEG_LAT = math.pi * EARTH_RADIUS_KM / 180.0
KM_PER_DEG_LON = KM_PER_DEG_LAT * math.cos(math.radians(CENTER_LAT))
BOX_KM = 40.0
HOME_AFFINITY = 0.6
SLOT_AFFINITY = 0.95
LANDMARK_FRAC = 0.2  # share of a district's items open to every scene
LANDMARK_RATE = 0.35  # share of home visits that go to a landmark
SLOTS_PER_SCENE = 6
JITTER_KM = 0.15
WEEKS = 8
START = datetime(2024, 1, 1)  # a Monday midnight, so slot 0 is hour 0


@dataclass
class SyntheticConfig(_Settings):
    """The settings a city varies. Each key is the synth flag that sets it,
    or for the two only code sets, the field's name; validate() also checks
    that users and items stay below 2**32 and that every district's scenes
    fit its hours and its items."""

    n_users: int = setting("users", 1000, AT_LEAST_1)
    n_items: int = setting("items", 2000, AT_LEAST_1)
    n_checkins: int = setting("checkins", 30_000, AT_LEAST_1)
    n_districts: int = setting("n_districts", 5, AT_LEAST_1)
    # scenes per district, each with SLOTS_PER_SCENE weekly hours no other scene there has
    themes_per_district: int = setting("themes_per_district", 4, AT_LEAST_1)
    seed: int = setting("seed", 0, AT_LEAST_0)

    @property
    def n_scenes(self) -> int:
        return self.n_districts * self.themes_per_district

    def validate(self) -> None:
        super().validate()
        # numpy draws a bound of 2**32 or more through a 64-bit path that
        # _scalar_draws does not replay
        for name in ("n_users", "n_items"):
            if getattr(self, name) >= 1 << 32:
                raise _error(self, name, "must be < 2**32")
        if self.themes_per_district * SLOTS_PER_SCENE > SLOTS_PER_WEEK:
            raise _error(self, "themes_per_district", f"must be <= {SLOTS_PER_WEEK // SLOTS_PER_SCENE}")
        per_district = self.n_items // self.n_districts
        if per_district - math.ceil(per_district * LANDMARK_FRAC) < self.themes_per_district:
            raise _error(self, "n_items", "must leave each district an item per scene after landmarks")


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

    def checkins(self) -> Checkins:
        """The log as the columns parse_checkins reads from write_raw's file."""
        users, first_user = _index(self.user)
        items, first_item = _index(self.item)
        user_ids = [USER_ID % u for u in self.user[first_user].tolist()]
        item_ids = [ITEM_ID % i for i in self.item[first_item].tolist()]
        lat, lon = self.item_lat[self.item], self.item_lon[self.item]
        return Checkins(users, items, self.slot, lat, lon, user_ids, item_ids)


def generate_city(cfg: SyntheticConfig) -> SyntheticCity:
    """Draw a full check-in log from the scene model, reproducibly."""
    # a count no array can hold is out of memory before it is out of range
    check_size((cfg.n_users + cfg.n_items + 5 * cfg.n_checkins,), "the city")
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    half_lat, half_lon = BOX_KM / 2.0 / KM_PER_DEG_LAT, BOX_KM / 2.0 / KM_PER_DEG_LON
    centers_lat = rng.uniform(CENTER_LAT - half_lat, CENTER_LAT + half_lat, cfg.n_districts)
    centers_lon = rng.uniform(CENTER_LON - half_lon, CENTER_LON + half_lon, cfg.n_districts)
    # scenes of one district get disjoint weekly hours
    scene_slots: list[np.ndarray] = []
    for _ in range(cfg.n_districts):
        pool = rng.choice(SLOTS_PER_WEEK, cfg.themes_per_district * SLOTS_PER_SCENE, replace=False)
        scene_slots += [
            np.sort(pool[t * SLOTS_PER_SCENE : (t + 1) * SLOTS_PER_SCENE])
            for t in range(cfg.themes_per_district)
        ]
    # round-robin over districts keeps them equally sized; within a district
    # the first few items become landmarks, the rest cycle through its scenes
    item_district = np.arange(cfg.n_items) % cfg.n_districts
    position = np.arange(cfg.n_items) // cfg.n_districts
    per_district = cfg.n_items // cfg.n_districts
    n_landmarks = math.ceil(per_district * LANDMARK_FRAC)
    item_scene = np.where(
        position < n_landmarks,
        LANDMARK,
        item_district * cfg.themes_per_district + (position - n_landmarks) % cfg.themes_per_district,
    )
    lat_jitter = rng.normal(0.0, JITTER_KM / KM_PER_DEG_LAT, cfg.n_items)
    lon_jitter = rng.normal(0.0, JITTER_KM / KM_PER_DEG_LON, cfg.n_items)
    item_lat = centers_lat[item_district] + lat_jitter
    item_lon = centers_lon[item_district] + lon_jitter
    scene_items = [np.flatnonzero(item_scene == s).tolist() for s in range(cfg.n_scenes)]
    landmark_items = [
        np.flatnonzero((item_scene == LANDMARK) & (item_district == d)).tolist()
        for d in range(cfg.n_districts)
    ]
    user_home = rng.integers(0, cfg.n_scenes, size=cfg.n_users)

    # rng is not used after this loop, so the words its last block draws past
    # the last check-in change nothing
    random, integers = _scalar_draws(rng.bit_generator)
    homes, hours = user_home.tolist(), [h.tolist() for h in scene_slots]
    user, item, slot, week, minute = np.empty((5, cfg.n_checkins), dtype=np.int64)
    for r in range(cfg.n_checkins):
        user[r] = visitor = integers(cfg.n_users)
        home = homes[visitor]
        if random() < HOME_AFFINITY:
            landmarks = landmark_items[home // cfg.themes_per_district]
            pool = landmarks if random() < LANDMARK_RATE else scene_items[home]
        else:
            pool = scene_items[integers(cfg.n_scenes)]
        item[r] = pool[integers(len(pool))]
        # visits happen on the visitor's schedule, whatever the target
        if random() < SLOT_AFFINITY:
            slot[r] = hours[home][integers(SLOTS_PER_SCENE)]
        else:
            slot[r] = integers(SLOTS_PER_WEEK)
        week[r] = integers(WEEKS)
        minute[r] = integers(60)
    columns = user, item, slot, week, minute, item_lat, item_lon
    return SyntheticCity(*columns, user_home, item_scene, item_district, scene_slots)


_RAW_BLOCK = 1 << 16  # raw words drawn per refill
_LOW_32 = (1 << 32) - 1


def _scalar_draws(bit_generator):
    """random() and integers(k), 1 <= k < 2**32, as numpy's Generator on this
    PCG64 returns them from scalar calls, replayed from raw words a block at
    a time. random() is a word's top 53 bits times 2**-53. integers(k) is
    Lemire's bounded draw (ACM TOMACS 2019) on 32-bit halves: none for
    k == 1; else x is the held-back high half if there is one, or the low
    half of a new word, whose high half is then held; x * k is drawn again
    while its low 32 bits are below (2**32 - k) % k, and its high 32 bits
    are the value. The bit generator is left drawn ahead, of no further use.
    """
    state = bit_generator.state
    held = state["uinteger"] if state["has_uint32"] else -1
    blocks = map(lambda _: bit_generator.random_raw(_RAW_BLOCK).tolist(), repeat(None))
    word = chain.from_iterable(blocks).__next__

    def random() -> float:
        return (word() >> 11) * 2.0**-53

    def integers(k: int) -> int:
        nonlocal held
        if k == 1:
            return 0
        while True:
            if held < 0:
                x = word()
                x, held = x & _LOW_32, x >> 32
            else:
                x, held = held, -1
            m = x * k
            if m & _LOW_32 >= ((1 << 32) - k) % k:
                return m >> 32

    return random, integers


_WRITE_BLOCK = 1 << 16  # rows formatted per write


def write_raw(city: SyntheticCity, path: str | Path) -> None:
    """Tab-separated log in the default ingest layout, a block of rows per write."""
    coords = zip(city.item_lat.tolist(), city.item_lon.tolist())
    coord_texts = np.array(list(map("\t%r\t%r\n".__mod__, coords)), dtype=object)
    start = np.datetime64(START, "m")
    minutes = (city.week * SLOTS_PER_WEEK + city.slot) * 60 + city.minute
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        for at in range(0, len(minutes), _WRITE_BLOCK):
            rows = slice(at, at + _WRITE_BLOCK)
            tokens = (
                _texts(city.user[rows], USER_ID + "\t"),
                _texts(city.item[rows], ITEM_ID + "\t"),
                np.datetime_as_string(start + minutes[rows], unit="s").astype(object),
                coord_texts[city.item[rows]],
            )
            f.write("".join(np.stack(tokens, axis=1).ravel().tolist()))
