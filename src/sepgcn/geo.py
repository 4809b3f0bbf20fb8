"""Weekly time slots, great-circle distances, and the edge-pair similarity score.

All functions here are pure and accept scalars or numpy arrays where it
makes sense, so the graph builder can score candidate pairs in batches.
"""
from __future__ import annotations

from datetime import datetime

import numpy as np

from .config import EARTH_RADIUS_KM, SimilarityParams
from .errors import InputDataError, NumericalError

SLOTS_PER_WEEK = 168
# pairs per haversine call in the median and the pair builder: each temporary
# (128 KB) stays below glibc's mmap threshold, so chunks reuse heap pages
MEDIAN_CHUNK = 16_384


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


def sigma(d_km, params: SimilarityParams, out=None):
    """Distance-decay similarity: exp((d / median) * ln(alpha)).

    Equals 1 at distance 0, alpha_sim at the median distance, and decays
    strictly monotonically toward 0 beyond it. median_km is positive, as
    median_distance() and the similarity.median_km setting make sure. With
    out, a float64 array such as d_km itself, each step writes there, with
    the same operations and so the same bits.
    """
    w = np.divide(d_km, params.median_km, out=out, dtype=np.float64)
    return np.exp(np.multiply(w, np.log(params.alpha_sim), out=out), out=out)


def sigma_cutoff_km(params: SimilarityParams, sigma_floor: float) -> float:
    """Distance at which the similarity falls to sigma_floor.

    Inverts sigma(): d_max = median * ln(sigma_floor) / ln(alpha_sim).
    sigma_floor lies in (0, alpha_sim), as the pruning.sigma_floor setting's check ensures.
    """
    return params.median_km * np.log(sigma_floor) / np.log(params.alpha_sim)


def median_distance(dataset, mode: str = "global", sample_budget: int = 1_000_000, seed: int = 0):
    """Median pairwise distance over the train interactions of `dataset`.

    global mode: median over distances between the item locations of pairs
    of train edges. The full pair set is quadratic in the edge count, so
    when it exceeds `sample_budget` a seeded uniform sample of pairs is
    used instead; below the budget the computation is exhaustive. Either
    way it holds one float64 distance per pair, 8 bytes a pair: the pairs
    are listed or drawn, and measured, MEDIAN_CHUNK at a time. Returns a
    float.

    per_user mode: the median over users of the median distance among each
    user's distinct visited locations; a user with a single location counts
    the global (sampled) median. Returns a float.
    """
    edges = dataset.interactions
    users, items = edges.users[~edges.is_test], edges.items[~edges.is_test]
    if not len(items):
        raise InputDataError("no train interactions to compute a median over")
    lat, lon = dataset.item_lat[items], dataset.item_lon[items]
    global_median = _global_median(lat, lon, sample_budget, seed)
    if mode == "global":
        return global_median
    by_user: dict[int, set[tuple[float, float]]] = {}
    for user, loc in zip(users.tolist(), zip(lat.tolist(), lon.tolist())):
        by_user.setdefault(user, set()).add(loc)
    medians = []
    for locs in by_user.values():
        if len(locs) < 2:
            medians.append(global_median)
            continue
        pts = np.array(sorted(locs))
        ii, jj = np.triu_indices(len(pts), k=1)
        d = haversine_km((pts[ii, 0], pts[ii, 1]), (pts[jj, 0], pts[jj, 1]))
        medians.append(float(np.median(d)))
    med = float(np.median(medians))
    if not med > 0:
        raise NumericalError("degenerate median: most users' distinct venues lie at zero distance")
    return med


def _global_median(lat: np.ndarray, lon: np.ndarray, sample_budget: int, seed: int) -> float:
    """Median over _median_pairs' distances, the one array it keeps, selected in place."""
    n = len(lat)
    if n < 2:
        raise NumericalError("degenerate median: fewer than two edges")
    d = np.empty(min(n * (n - 1) // 2, sample_budget))
    for s, (i, j) in zip(range(0, len(d), MEDIAN_CHUNK), _median_pairs(n, len(d), seed)):
        d[s : s + MEDIAN_CHUNK] = haversine_km((lat[i], lon[i]), (lat[j], lon[j]))
    med = float(np.median(d, overwrite_input=True))
    if not med > 0:
        raise NumericalError("degenerate median: all sampled edge pairs are co-located")
    return med


def _median_pairs(n: int, n_pairs: int, seed: int):
    """Every pair i < j or, when n_pairs is fewer, a seeded sample of ordered
    pairs, in (i, j) chunks of MEDIAN_CHUNK. The sample is the draws of
    integers() for all ii, then all jj, on one generator; the bit generator
    buffers bounded draws, so a second one advanced past ii deals jj."""
    starts = range(0, n_pairs, MEDIAN_CHUNK)
    if n_pairs == n * (n - 1) // 2:
        # pair k of np.triu_indices(n, k=1) lies in the last row i whose first
        # pair, i * (2n - 1 - i) / 2, is at most k
        rows = np.arange(n)
        firsts = rows * (2 * n - 1 - rows) // 2
        for s in starts:
            k = np.arange(s, min(s + MEDIAN_CHUNK, n_pairs))
            i = np.searchsorted(firsts, k, side="right") - 1
            yield i, k - firsts[i] + i + 1
        return
    draw_i, draw_j = np.random.default_rng(seed), np.random.default_rng(seed)
    for s in starts:
        draw_j.integers(0, n, size=min(MEDIAN_CHUNK, n_pairs - s))
    for s in starts:
        size = min(MEDIAN_CHUNK, n_pairs - s)
        i, j = draw_i.integers(0, n, size=size), draw_j.integers(0, n - 1, size=size)
        j += j >= i  # uniform over ordered pairs with i != j
        yield i, j
