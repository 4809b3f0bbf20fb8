"""Weekly time slots, great-circle distances, and the edge-pair similarity score.

All functions here are pure and accept scalars or numpy arrays where it
makes sense, so the graph builder can score candidate pairs in batches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import ConfigError, InputDataError, NumericalError

EARTH_RADIUS_KM = 6371.0
SLOTS_PER_WEEK = 168


@dataclass
class SimilarityParams:
    """Parameters of the distance-decay similarity.

    alpha_sim is the similarity assigned to a pair at exactly the median
    distance; median_km is a derived statistic filled in by
    median_distance(). median_mode selects how that statistic is computed.
    """

    alpha_sim: float = 0.5
    median_mode: str = "global"  # "global" | "per_user"
    median_km: float | None = None
    sample_budget: int = 1_000_000
    earth_radius_km: float = EARTH_RADIUS_KM

    def validate(self) -> None:
        if not (0.0 < self.alpha_sim < 1.0):
            raise ConfigError(f"alpha_sim must lie in (0,1), got {self.alpha_sim}")
        if self.median_mode not in ("global", "per_user"):
            raise ConfigError(f"unknown median_mode {self.median_mode!r}")
        if self.sample_budget < 1:
            raise ConfigError(f"sample_budget must be >= 1, got {self.sample_budget}")
        if self.median_km is not None and not (math.isfinite(self.median_km) and self.median_km > 0):
            raise ConfigError(f"median_km must be finite and > 0, got {self.median_km}")


def to_slot(ts: datetime) -> int:
    """Map a local civil datetime to its weekly hour slot in [0, 167].

    Monday 00:xx is slot 0; days advance Monday..Sunday, hours 0..23.
    """
    return ts.weekday() * 24 + ts.hour


def haversine_km(a, b, radius_km: float = EARTH_RADIUS_KM):
    """Great-circle distance between two points (or point arrays) in km.

    `a` and `b` are (lat, lon) pairs in degrees; each component may be a
    scalar or an array (broadcasting applies). The sqrt argument is clamped
    to [0, 1] so antipodal round-off cannot produce NaN.
    """
    lat1, lon1 = np.radians(a[0]), np.radians(a[1])
    lat2, lon2 = np.radians(b[0]), np.radians(b[1])
    s = (
        np.sin((lat2 - lat1) / 2.0) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    )
    return 2.0 * radius_km * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))


def sigma(d_km, params: SimilarityParams):
    """Distance-decay similarity: exp((d / median) * ln(alpha)).

    Equals 1 at distance 0, alpha_sim at the median distance, and decays
    strictly monotonically toward 0 beyond it.
    """
    if params.median_km is None or not params.median_km > 0:
        raise NumericalError("degenerate median")
    return np.exp((np.asarray(d_km, dtype=np.float64) / params.median_km) * np.log(params.alpha_sim))


def sigma_cutoff_km(params: SimilarityParams, sigma_floor: float) -> float:
    """Distance at which the similarity falls to sigma_floor.

    Inverts sigma(): d_max = median * ln(sigma_floor) / ln(alpha_sim).
    """
    if params.median_km is None or not params.median_km > 0:
        raise NumericalError("degenerate median")
    if not (0.0 < sigma_floor < params.alpha_sim):
        raise ConfigError(
            f"sigma_floor must lie in (0, alpha_sim={params.alpha_sim}), got {sigma_floor}"
        )
    return params.median_km * np.log(sigma_floor) / np.log(params.alpha_sim)


def median_distance(dataset, mode: str = "global", sample_budget: int = 1_000_000, seed: int = 0):
    """Median pairwise distance over the train interactions of `dataset`.

    global mode: median over distances between the item locations of pairs
    of train edges. The full pair set is quadratic in the edge count, so
    when it exceeds `sample_budget` a seeded uniform sample of pairs is
    used instead; below the budget the computation is exhaustive.
    Returns a float.

    per_user mode: for each user, the median over pairwise distances among
    that user's distinct visited locations. Users with a single location
    fall back to the global (sampled) median. Returns (global_median, {user: median}).
    """
    edges = dataset.interactions
    users, items = edges.users[~edges.is_test], edges.items[~edges.is_test]
    if not len(items):
        raise InputDataError("no train interactions to compute a median over")
    lat, lon = dataset.item_lat[items], dataset.item_lon[items]
    global_median = _global_median(lat, lon, sample_budget, seed)
    if mode == "global":
        return global_median
    if mode != "per_user":
        raise ConfigError(f"unknown median_mode {mode!r}")

    by_user: dict[int, set[tuple[float, float]]] = {}
    for user, loc in zip(users.tolist(), zip(lat.tolist(), lon.tolist())):
        by_user.setdefault(user, set()).add(loc)
    medians: dict[int, float] = {}
    for user, locs in by_user.items():
        if len(locs) < 2:
            medians[user] = global_median
            continue
        pts = np.array(sorted(locs))
        ii, jj = np.triu_indices(len(pts), k=1)
        d = haversine_km((pts[ii, 0], pts[ii, 1]), (pts[jj, 0], pts[jj, 1]))
        medians[user] = float(np.median(d))
    return global_median, medians


def _global_median(lat: np.ndarray, lon: np.ndarray, sample_budget: int, seed: int) -> float:
    n = len(lat)
    if n < 2:
        raise NumericalError("degenerate median: fewer than two edges")
    n_pairs = n * (n - 1) // 2
    if n_pairs <= sample_budget:
        ii, jj = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, n, size=sample_budget)
        jj = rng.integers(0, n - 1, size=sample_budget)
        jj = np.where(jj >= ii, jj + 1, jj)  # uniform over ordered pairs with i != j
    d = haversine_km((lat[ii], lon[ii]), (lat[jj], lon[jj]))
    med = float(np.median(d))
    if not med > 0:
        raise NumericalError("degenerate median: all sampled edge pairs are co-located")
    return med
