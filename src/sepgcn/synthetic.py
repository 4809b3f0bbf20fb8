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
from .errors import check_size, written
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
        # the replay of its draws does not follow
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
    user_home = rng.integers(0, cfg.n_scenes, size=cfg.n_users)
    # rng is not used after the check-ins, so the words drawn past the last one change nothing
    columns = _checkin_columns(rng.bit_generator, cfg, user_home, item_scene, item_district, scene_slots)
    return SyntheticCity(*columns, item_lat, item_lon, user_home, item_scene, item_district, scene_slots)


_RAW_BLOCK = 1 << 16  # raw words drawn per refill
_LOW_32 = (1 << 32) - 1
_MOST_WORDS = 6  # words a check-in reads when none of its draws is rejected, at most


def _checkin_columns(bit_generator, cfg, user_home, item_scene, item_district, scene_slots):
    """The user, item, slot, week and minute of each check-in, as rows of one
    int64 array, as the Generator's scalar calls on this PCG64 draw them.

    A check-in draws integers(n_users) for its visitor and random() <
    HOME_AFFINITY for a home visit. A home visit then draws random() <
    LANDMARK_RATE for its district's landmarks over its scene's items; an
    away visit draws integers(n_scenes) for the scene. Then integers(pool
    size) for the item, random() < SLOT_AFFINITY for one of the home scene's
    hours over integers(SLOTS_PER_WEEK), integers(WEEKS) and integers(60).

    The raw words are drawn a block at a time. A check-in starts at a state
    s = 2 p + h: p is the next word to read, and h whether the high half of
    word p - 1 is held back. The walk follows the states through a table of
    each state's successor, made for the whole block at once; then every
    draw of the walked check-ins is made as a whole array. A check-in with a
    draw that Lemire's step rejects is replayed alone by _scalar_draws, and
    the walk resumes where that replay ends.
    """
    draws = _CheckinDraws(cfg, user_home, item_scene, item_district, scene_slots)
    state = bit_generator.state
    # word 0 stands for the word whose high half the generator holds back
    words = np.array([state["uinteger"] << 32], dtype=np.uint64)
    s = 2 + state["has_uint32"]
    columns = np.empty((5, cfg.n_checkins), dtype=np.int64)
    done = 0
    while done < cfg.n_checkins:
        p = s >> 1
        if len(words) - p < _RAW_BLOCK:
            words = np.concatenate([words[p - 1 :], bit_generator.random_raw(_RAW_BLOCK)])
            s -= 2 * (p - 1)
        # every walked check-in ends inside the block
        count = min(cfg.n_checkins - done, (len(words) - (s >> 1)) // _MOST_WORDS - 1)
        states, s = _walk(draws.successors(words), s, count)
        values, rejected, _ = draws.draw(words, states)
        rejects = np.flatnonzero(rejected)
        kept = rejects[0] if len(rejects) else count
        columns[:, done : done + kept] = values[:, :kept]
        done += kept
        if kept < count:
            columns[:, done], s, words = draws.replay(bit_generator, words, int(states[kept]))
            done += 1
    return columns


def _walk(successor: np.ndarray, s: int, count: int) -> tuple[np.ndarray, int]:
    """count states from s, each the successor of the one before, and the
    state after them."""
    successor = memoryview(successor)  # reads Python ints
    states = []
    for _ in range(count):
        states.append(s)
        s = successor[s]
    return np.array(states, dtype=np.int64), s


class _CheckinDraws:
    """What a check-in's draws choose from, and the draws made from raw
    words: for whole arrays of states (draw, successors), or one check-in at
    a time (replay)."""

    def __init__(self, cfg, user_home, item_scene, item_district, scene_slots):
        self.n_users, self.n_scenes, self.themes = cfg.n_users, cfg.n_scenes, cfg.themes_per_district
        self.homes = user_home
        self.hours = np.array(scene_slots)  # (scene, hour of the scene)
        # pool s < n_scenes holds scene s's items, pool n_scenes + d district d's landmarks
        pools = [np.flatnonzero(item_scene == s) for s in range(cfg.n_scenes)]
        pools += [
            np.flatnonzero((item_scene == LANDMARK) & (item_district == d))
            for d in range(cfg.n_districts)
        ]
        self.size = np.array([len(pool) for pool in pools])
        self.start = np.cumsum(self.size) - self.size
        self.items = np.concatenate(pools)
        # integers(1) draws nothing, so only when every bound exceeds 1 does
        # a check-in read the same number of words on each branch
        self.every_bound_draws = min(self.n_users, self.n_scenes, self.size.min()) > 1

    def draw(self, words: np.ndarray, s: np.ndarray):
        """The five columns of the check-ins that start at states s, whether
        one of their bounded draws is rejected, and the state after each. A
        rejected draw leaves its check-in's values and the state after it
        meaningless."""
        p = s >> 1
        held = np.where(s & 1, p - 1, -1)  # the word whose high half is held
        rejected = np.zeros(len(s), dtype=bool)

        def random(read=True):
            nonlocal p
            p = p + read
            return (words[p - read] >> 11) * 2.0**-53

        def integers(k):
            nonlocal p, held, rejected
            k = np.asarray(k, dtype=np.uint64)
            drawn, from_held = k > 1, held >= 0
            m = np.where(from_held, words[held] >> 32, words[p] & _LOW_32) * k
            rejected |= drawn & ((m & _LOW_32) < ((1 << 32) - k) % k)
            p = p + (drawn & ~from_held)
            held = np.where(drawn, np.where(from_held, -1, p - 1), held)
            return (m >> 32).astype(np.int64)

        user = integers(self.n_users)
        home = self.homes[user]
        at_home = random() < HOME_AFFINITY
        to_landmark = random(at_home) < LANDMARK_RATE
        scene = integers(np.where(at_home, 1, self.n_scenes))
        pool = np.where(at_home, np.where(to_landmark, self.n_scenes + home // self.themes, home), scene)
        item = self.items[self.start[pool] + integers(self.size[pool])]
        own_hours = random() < SLOT_AFFINITY
        hour = integers(np.where(own_hours, SLOTS_PER_SCENE, SLOTS_PER_WEEK))
        slot = np.where(own_hours, self.hours[home, hour % SLOTS_PER_SCENE], hour)
        values = np.stack([user, item, slot, integers(WEEKS), integers(60)])
        return values, rejected, 2 * p + (held >= 0)

    def successors(self, words: np.ndarray) -> np.ndarray:
        """The state after the check-in that starts at each state s, for
        every s below 2 (len(words) - _MOST_WORDS)."""
        n = len(words) - _MOST_WORDS
        if not self.every_bound_draws:
            return self.draw(words, np.arange(2 * n))[2]
        # a check-in reads its HOME_AFFINITY random() at word p + 1 - h; a
        # home visit reads 6 - h words in all and flips h, an away visit 5
        # words and keeps h
        home = (words[: n + 1] >> 11) * 2.0**-53 < HOME_AFFINITY
        successor = np.empty(2 * n, dtype=np.int64)
        successor[0::2] = np.arange(10, 2 * n + 10, 2) + 3 * home[1:]
        successor[1::2] = np.arange(11, 2 * n + 11, 2) - home[:-1]
        return successor

    def replay(self, bit_generator, words: np.ndarray, s: int):
        """The check-in at state s drawn by _scalar_draws, one call per draw:
        its values, the state after it, and words with the raw words the
        replay read past them."""
        source = _WordsFrom(words, s, bit_generator)
        random, integers = _scalar_draws(source)
        visitor = integers(self.n_users)
        home = int(self.homes[visitor])
        if random() < HOME_AFFINITY:
            pool = self.n_scenes + home // self.themes if random() < LANDMARK_RATE else home
        else:
            pool = integers(self.n_scenes)
        item = self.items[self.start[pool] + integers(int(self.size[pool]))]
        if random() < SLOT_AFFINITY:
            slot = self.hours[home, integers(SLOTS_PER_SCENE)]
        else:
            slot = integers(SLOTS_PER_WEEK)
        values = visitor, item, slot, integers(WEEKS), integers(60)
        p = source.at
        integers(2)  # a bound of 2 is never rejected: this reads a word just when no half is held
        return values, 2 * p + (source.at == p), source.words


class _WordsFrom:
    """What _scalar_draws replays one check-in from: a bit generator's face
    over the state s's held half, words from word p on, and then more raw
    blocks, served a word per call so that `at` is the next word to read."""

    def __init__(self, words: np.ndarray, s: int, bit_generator):
        self.words, self.at, self.source = words, s >> 1, bit_generator
        self.state = {"has_uint32": s & 1, "uinteger": int(words[self.at - 1] >> 32)}

    def random_raw(self, _size):
        if self.at == len(self.words):
            self.words = np.concatenate([self.words, self.source.random_raw(_RAW_BLOCK)])
        self.at += 1
        return self.words[self.at - 1 : self.at]


def _scalar_draws(bit_generator):
    """random() and integers(k), 1 <= k < 2**32, as numpy's Generator on this
    PCG64 returns them from scalar calls, replayed from raw words a block at
    a time. random() is a word's top 53 bits times 2**-53. integers(k) is
    Lemire's bounded draw (ACM TOMACS 2019) on 32-bit halves: none for
    k == 1; else x is the held-back high half if there is one, or the low
    half of a new word, whose high half is then held; x * k is drawn again
    while its low 32 bits are below (2**32 - k) % k, and its high 32 bits
    are the value. The bit generator is left drawn ahead, of no further use.
    _checkin_columns replays a check-in with a rejected draw through these.
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
    with written(path, "raw check-in file") as f:
        for at in range(0, len(minutes), _WRITE_BLOCK):
            rows = slice(at, at + _WRITE_BLOCK)
            tokens = (
                _texts(city.user[rows], USER_ID + "\t"),
                _texts(city.item[rows], ITEM_ID + "\t"),
                np.datetime_as_string(start + minutes[rows], unit="s").astype(object),
                coord_texts[city.item[rows]],
            )
            f.write("".join(np.stack(tokens, axis=1).ravel().tolist()))
