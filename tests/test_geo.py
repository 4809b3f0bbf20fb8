"""Slot mapping, great-circle distance, similarity decay, and median statistics."""
from __future__ import annotations

from datetime import datetime, timedelta

import mpmath as mp
import numpy as np
import pytest

from sepgcn.data import Dataset, Interactions, SplitConfig
from sepgcn.errors import ConfigError, InputDataError, NumericalError
from sepgcn.geo import (
    EARTH_RADIUS_KM,
    SLOTS_PER_WEEK,
    SimilarityParams,
    haversine_km,
    median_distance,
    sigma,
    sigma_cutoff_km,
    to_slot,
)

mp.mp.dps = 50


def great_circle_oracle_km(lat1, lon1, lat2, lon2, radius_km=EARTH_RADIUS_KM):
    """Independent distance oracle: spherical law of cosines at 50 digits.

    Same sphere, different closed form — agreement is purely a correctness
    check on the half-versine implementation, not a restatement of it.
    """
    rad = lambda x: mp.mpf(x) * mp.pi / 180
    p1, l1, p2, l2 = rad(lat1), rad(lon1), rad(lat2), rad(lon2)
    c = mp.sin(p1) * mp.sin(p2) + mp.cos(p1) * mp.cos(p2) * mp.cos(l2 - l1)
    c = max(min(c, mp.mpf(1)), mp.mpf(-1))
    return float(mp.mpf(radius_km) * mp.acos(c))


class TestToSlot:
    def test_week_sweep_covers_every_slot_exactly_once(self):
        """168 hourly stamps across one week map onto 0..167 bijectively."""
        base = datetime(2024, 1, 1, 0, 0)  # a Monday
        slots = [to_slot(base + timedelta(days=d, hours=h)) for d in range(7) for h in range(24)]
        assert slots == list(range(SLOTS_PER_WEEK))

    def test_monday_first_and_minutes_ignored(self):
        assert to_slot(datetime(2024, 1, 1, 0, 30)) == 0
        assert to_slot(datetime(2024, 1, 2, 6, 10)) == 30
        assert to_slot(datetime(2024, 1, 7, 23, 59)) == 167

    def test_same_hour_different_minutes_collide(self):
        week = datetime(2023, 6, 14, 13, 0)
        assert to_slot(week) == to_slot(week.replace(minute=59, second=59))


class TestHaversine:
    def test_matches_law_of_cosines_on_named_city_pair(self):
        nyc = (40.7128, -74.0060)
        la = (34.0522, -118.2437)
        expect = great_circle_oracle_km(*nyc, *la)
        np.testing.assert_allclose(haversine_km(nyc, la), expect, rtol=1e-9)

    def test_matches_law_of_cosines_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lat1, lat2 = rng.uniform(-89, 89, size=2)
            lon1, lon2 = rng.uniform(-180, 180, size=2)
            got = haversine_km((lat1, lon1), (lat2, lon2))
            expect = great_circle_oracle_km(lat1, lon1, lat2, lon2)
            np.testing.assert_allclose(got, expect, rtol=1e-6, atol=1e-6)

    def test_antipodal_points_give_half_circumference(self):
        """Opposite points on the equator sit half a circumference apart."""
        d = haversine_km((0.0, 0.0), (0.0, 180.0))
        assert abs(d - 20015.09) < 0.01
        np.testing.assert_allclose(d, float(mp.pi * EARTH_RADIUS_KM), rtol=1e-12)

    def test_zero_for_identical_points(self):
        assert haversine_km((48.8566, 2.3522), (48.8566, 2.3522)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            assert abs(haversine_km(a, b) - haversine_km(b, a)) <= 1e-9

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            pts = [(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(3)]
            a, b, c = pts
            assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-9

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(17)
        lat1 = rng.uniform(-90, 90, size=64)
        lon1 = rng.uniform(-180, 180, size=64)
        lat2 = rng.uniform(-90, 90, size=64)
        lon2 = rng.uniform(-180, 180, size=64)
        vec = haversine_km((lat1, lon1), (lat2, lon2))
        scalar = [haversine_km((lat1[k], lon1[k]), (lat2[k], lon2[k])) for k in range(64)]
        np.testing.assert_allclose(vec, scalar, rtol=0, atol=0)

    def test_never_nan_near_antipodes(self):
        """The asin argument is clamped, so near-antipodal rounding noise stays finite."""
        d = haversine_km((1e-9, 0.0), (-1e-9, 180.0))
        assert np.isfinite(d)


class TestSigma:
    def params(self, median_km=3.0, alpha=0.5):
        return SimilarityParams(alpha_sim=alpha, median_km=median_km)

    def test_unit_at_zero_distance(self):
        assert sigma(0.0, self.params()) == 1.0

    def test_equals_alpha_at_median(self):
        for alpha in (0.25, 0.5, 0.9):
            np.testing.assert_allclose(sigma(3.0, self.params(alpha=alpha)), alpha, rtol=1e-12)

    def test_quarter_at_twice_median(self):
        np.testing.assert_allclose(sigma(6.0, self.params()), 0.25, rtol=1e-12)

    def test_matches_high_precision_oracle(self):
        """exp((d/m)·ln a) recomputed at 50 digits for random d, m, a."""
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = rng.uniform(0, 60)
            m = rng.uniform(0.5, 20)
            a = rng.uniform(0.05, 0.95)
            expect = float(mp.e ** ((mp.mpf(d) / mp.mpf(m)) * mp.log(mp.mpf(a))))
            np.testing.assert_allclose(sigma(d, self.params(median_km=m, alpha=a)), expect, rtol=1e-12)

    def test_strictly_decreasing_in_distance(self):
        d = np.linspace(0.0, 40.0, 200)
        s = sigma(d, self.params())
        assert np.all(np.diff(s) < 0)

    def test_vectorised_matches_scalar(self):
        d = np.array([0.0, 1.0, 3.0, 10.0])
        vec = sigma(d, self.params())
        np.testing.assert_allclose(vec, [sigma(x, self.params()) for x in d], rtol=0, atol=0)

    def test_requires_a_median(self):
        with pytest.raises(NumericalError):
            sigma(1.0, SimilarityParams(median_km=None))

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            SimilarityParams(alpha_sim=1.0).validate()
        with pytest.raises(ConfigError):
            SimilarityParams(alpha_sim=0.0).validate()
        with pytest.raises(ConfigError):
            SimilarityParams(median_mode="weekly").validate()
        for median_km in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="median_km"):
                SimilarityParams(median_km=median_km).validate()
        for budget in (0, -1):
            with pytest.raises(ConfigError, match="sample_budget"):
                SimilarityParams(sample_budget=budget).validate()
        SimilarityParams(median_km=3.0, sample_budget=1).validate()


class TestSigmaCutoff:
    def test_frozen_value(self):
        # 3 * ln(0.01) / ln(0.5) evaluated at 50 digits.
        got = sigma_cutoff_km(SimilarityParams(median_km=3.0), sigma_floor=0.01)
        np.testing.assert_allclose(got, 19.931568569324174, rtol=1e-12)

    def test_sigma_at_cutoff_equals_floor(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            p = SimilarityParams(alpha_sim=rng.uniform(0.1, 0.9), median_km=rng.uniform(0.5, 10))
            floor = rng.uniform(1e-4, p.alpha_sim * 0.5)
            np.testing.assert_allclose(sigma(sigma_cutoff_km(p, floor), p), floor, rtol=1e-12)

    def test_floor_must_sit_below_alpha(self):
        p = SimilarityParams(median_km=3.0)
        with pytest.raises(ConfigError):
            sigma_cutoff_km(p, sigma_floor=0.0)
        with pytest.raises(ConfigError):
            sigma_cutoff_km(p, sigma_floor=0.5)
        with pytest.raises(ConfigError):
            sigma_cutoff_km(p, sigma_floor=0.7)

    def test_requires_a_median(self):
        with pytest.raises(NumericalError):
            sigma_cutoff_km(SimilarityParams(median_km=None), sigma_floor=0.01)


def make_dataset(item_coords, edges):
    """Tiny in-memory dataset: item_coords is [(lat, lon)], edges is [(u, i, split)]."""
    lat = np.array([c[0] for c in item_coords], dtype=np.float64)
    lon = np.array([c[1] for c in item_coords], dtype=np.float64)
    n_users = 1 + max(u for u, _, _ in edges)
    inter = Interactions.from_rows((u, i, (0,), s) for u, i, s in edges)
    return Dataset(
        user_ids=[f"u{k}" for k in range(n_users)],
        item_ids=[f"p{k}" for k in range(len(item_coords))],
        interactions=inter,
        item_lat=lat,
        item_lon=lon,
        split=SplitConfig(),
    )


class TestMedianDistance:
    def test_exhaustive_matches_double_loop_oracle(self):
        """Below the pair budget the median is over every edge pair once."""
        rng = np.random.default_rng(31)
        coords = [(rng.uniform(40, 41), rng.uniform(-74, -73)) for _ in range(12)]
        edges = [(k % 3, k, "train") for k in range(12)]
        ds = make_dataset(coords, edges)
        got = median_distance(ds, mode="global")

        dists = []
        for a in range(12):
            for b in range(a + 1, 12):
                dists.append(haversine_km(coords[a], coords[b]))
        np.testing.assert_allclose(got, np.median(dists), rtol=1e-12)

    def test_repeat_visits_weight_the_median(self):
        """Two edges on one venue still form pairs: the median is over edges, not venues."""
        coords = [(40.0, -74.0), (40.5, -74.0)]
        near = [(0, 0, "train"), (1, 0, "train"), (0, 1, "train")]
        ds = make_dataset(coords, near)
        d01 = haversine_km(coords[0], coords[1])
        # pairs: (e0,e1) -> 0 km, (e0,e2) -> d01, (e1,e2) -> d01
        np.testing.assert_allclose(median_distance(ds), np.median([0.0, d01, d01]), rtol=1e-12)

    def test_test_split_edges_are_invisible(self):
        coords = [(40.0, -74.0), (40.1, -74.0), (40.2, -74.0), (0.0, 100.0)]
        edges = [(0, 0, "train"), (0, 1, "train"), (1, 2, "train"), (1, 3, "test")]
        ds = make_dataset(coords, edges)
        dists = [
            haversine_km(coords[a], coords[b]) for a in range(3) for b in range(a + 1, 3)
        ]
        np.testing.assert_allclose(median_distance(ds), np.median(dists), rtol=1e-12)

    def test_sampled_close_to_exhaustive(self):
        """With the budget forced below the pair count, the sampled median lands within 5%."""
        rng = np.random.default_rng(37)
        n = 200
        coords = [(rng.uniform(40, 41), rng.uniform(-74, -73)) for _ in range(n)]
        edges = [(0, k, "train") for k in range(n)]
        ds = make_dataset(coords, edges)
        exact = median_distance(ds, sample_budget=n * (n - 1) // 2)
        sampled = median_distance(ds, sample_budget=5000)
        assert abs(sampled - exact) / exact < 0.05

    def test_sampling_is_deterministic_in_the_seed(self):
        rng = np.random.default_rng(41)
        coords = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(80)]
        ds = make_dataset(coords, [(0, k, "train") for k in range(80)])
        a = median_distance(ds, sample_budget=500, seed=5)
        b = median_distance(ds, sample_budget=500, seed=5)
        c = median_distance(ds, sample_budget=500, seed=6)
        assert a == b
        assert a != c

    def test_per_user_medians(self):
        coords = [(40.0, -74.0), (40.2, -74.0), (40.4, -74.0), (41.0, -74.0)]
        edges = [
            (0, 0, "train"),
            (0, 1, "train"),
            (0, 2, "train"),
            (1, 3, "train"),
        ]
        ds = make_dataset(coords, edges)
        global_med, per_user = median_distance(ds, mode="per_user")
        u0 = [
            haversine_km(coords[a], coords[b]) for a in range(3) for b in range(a + 1, 3)
        ]
        np.testing.assert_allclose(per_user[0], np.median(u0), rtol=1e-12)
        # single-location users fall back to the global statistic
        assert per_user[1] == global_med

    def test_per_user_uses_distinct_locations(self):
        """A venue visited through many edges counts once inside a user's median."""
        coords = [(40.0, -74.0), (40.0, -74.0), (40.5, -74.0)]
        edges = [(0, 0, "train"), (0, 1, "train"), (0, 2, "train")]
        ds = make_dataset(coords, edges)
        _, per_user = median_distance(ds, mode="per_user")
        np.testing.assert_allclose(per_user[0], haversine_km(coords[0], coords[2]), rtol=1e-12)

    def test_errors(self):
        ds = make_dataset([(0.0, 0.0)], [(0, 0, "test")])
        with pytest.raises(InputDataError):
            median_distance(ds)
        one = make_dataset([(0.0, 0.0)], [(0, 0, "train")])
        with pytest.raises(NumericalError):
            median_distance(one)
        colocated = make_dataset([(5.0, 5.0), (5.0, 5.0)], [(0, 0, "train"), (0, 1, "train")])
        with pytest.raises(NumericalError):
            median_distance(colocated)
        with pytest.raises(ConfigError):
            median_distance(
                make_dataset([(0.0, 0.0), (1.0, 1.0)], [(0, 0, "train"), (0, 1, "train")]),
                mode="hourly",
            )
