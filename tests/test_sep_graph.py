"""Edge-pair graph construction checked against literal double-loop oracles."""
from __future__ import annotations

import dataclasses
import json
import logging
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest

from sepgcn import sep_graph
from sepgcn.cli import _sep_params, _variant_index, main
from sepgcn.config import PruningParams, SimilarityParams, SplitConfig, build_run_config
from sepgcn.data import Dataset, build_dataset, load_snapshot
from sepgcn.errors import ConfigError, InputDataError
from sepgcn.geo import haversine_km, median_distance, sigma, sigma_cutoff_km
from sepgcn.sep_graph import (
    SEP_FIELDS,
    EdgeIndex,
    SepMatrix,
    build_sep_matrix,
    candidate_pairs,
    load_sep_matrix,
    normalize_sep,
    save_sep_matrix,
)
from sepgcn.synthetic import SyntheticConfig, generate_city

import line_readers
import peak_rss
from reference import build_sep_matrix_bruteforce, interactions


def make_index(lat, lon, slots):
    """EdgeIndex straight from arrays; edge k belongs to user k, item k."""
    n = len(lat)
    distinct = [sorted(set(int(v) for v in s)) for s in slots]
    return EdgeIndex(
        users=np.arange(n, dtype=np.int64),
        items=np.arange(n, dtype=np.int64),
        lat=np.asarray(lat, dtype=np.float64),
        lon=np.asarray(lon, dtype=np.float64),
        slot_ptr=np.cumsum([0] + [len(s) for s in distinct]),
        slot_vals=np.array([v for s in distinct for v in s], dtype=np.int64),
    )


def slot_set(index, k):
    """The weekly slots of edge k."""
    return set(index.slot_vals[index.slot_ptr[k] : index.slot_ptr[k + 1]].tolist())


def random_index(rng, n_edges, lat0=40.0, lon0=-74.0, box_deg=0.3, max_slots=4, slot_pool=24):
    lat = rng.uniform(lat0, lat0 + box_deg, size=n_edges)
    lon = rng.uniform(lon0, lon0 + box_deg, size=n_edges)
    top = min(max_slots, slot_pool) + 1
    slots = [
        tuple(rng.choice(slot_pool, size=rng.integers(1, top), replace=False))
        for _ in range(n_edges)
    ]
    return make_index(lat, lon, slots)


def at_one_point(index):
    """The index with every edge at one venue, as the time-only variant sees
    it: every weight ties at 1, so links rank by neighbour id alone."""
    zeros = np.zeros(index.n_edges)
    return dataclasses.replace(index, lat=zeros, lon=zeros)


def pair_oracle(index, params, floor):
    """Test-local double loop: shared slot AND distance within the cutoff."""
    cutoff = params.median_km * np.log(floor) / np.log(params.alpha_sim)
    found = {}
    for i in range(index.n_edges):
        for j in range(i + 1, index.n_edges):
            if not slot_set(index, i) & slot_set(index, j):
                continue
            d = haversine_km((index.lat[i], index.lon[i]), (index.lat[j], index.lon[j]))
            if d <= cutoff:
                found[(i, j)] = d
    return found


def top_links_oracle(links, params, k):
    """Each edge's k strongest oracle links, ranked by (-sigma, neighbour id)."""
    ranked = defaultdict(list)
    for (i, j), d in links.items():
        w = float(sigma(d, params))
        ranked[i].append((-w, j))
        ranked[j].append((-w, i))
    return {(min(e, o), max(e, o)) for e, ls in ranked.items() for _, o in sorted(ls)[:k]}


def check_candidates(index, params, pruning):
    """candidate_pairs lists, once each and in (i, j) order, oracle pairs with
    their oracle distances, including every edge's top max_neighbors links."""
    ii, jj, dd = candidate_pairs(index, params, pruning)
    assert np.all(ii < jj)
    assert np.all(np.diff(ii * index.n_edges + jj) > 0)
    got = {(int(a), int(b)): float(d) for a, b, d in zip(ii, jj, dd)}
    links = pair_oracle(index, params, pruning.sigma_floor)
    assert got.keys() <= links.keys()
    # the oracle's scalar haversine may differ from numpy's array kernel in the last bit
    np.testing.assert_allclose(list(got.values()), [links[key] for key in got], rtol=0, atol=1e-12)
    assert top_links_oracle(links, params, pruning.max_neighbors) <= got.keys()
    return got, links


PARAMS = SimilarityParams(alpha_sim=0.5, median_km=2.0)


def km_north(km):
    """Latitude offset, in degrees, of a point km due north."""
    return np.degrees(km / 6371.0)


class TestCandidatePairs:
    def test_matches_double_loop_on_random_instances(self):
        rng = np.random.default_rng(83)
        for trial in range(8):
            index = random_index(rng, int(rng.integers(30, 120)), slot_pool=int(rng.integers(2, 12)))
            for idx in (index, at_one_point(index)):
                pruning = PruningParams(max_neighbors=int(rng.integers(1, 7)))
                check_candidates(idx, PARAMS, pruning)

    def test_max_neighbors_at_least_the_slot_size_lists_every_link(self):
        rng = np.random.default_rng(79)
        for trial in range(4):
            index = random_index(rng, int(rng.integers(30, 80)), slot_pool=3)
            for idx in (index, at_one_point(index)):
                got, links = check_candidates(idx, PARAMS, PruningParams(max_neighbors=80))
                assert got.keys() == links.keys(), f"trial {trial}"

    def test_tie_group_at_distance_zero_straddles_the_k_boundary(self):
        """Six edges at one venue and eight at another 0.3 km north, all in
        slot 0: for every cap below 13 the k-th link falls inside a tie group."""
        venue_a = [2, 5, 6, 9, 12, 13]
        lat = [40.0 + (0.0 if e in venue_a else km_north(0.3)) for e in range(14)]
        index = make_index(lat, [-74.0] * 14, [(0,)] * 14)
        for cap in range(1, 14):
            pruning = PruningParams(max_neighbors=cap)
            check_candidates(index, PARAMS, pruning)
            matrices_equal(
                build_sep_matrix(index, PARAMS, pruning),
                build_sep_matrix_bruteforce(index, PARAMS, pruning),
            )

    def test_multi_slot_edges_take_their_top_links_from_every_slot(self):
        """Edge 0 holds slots 0 and 1: its two nearest links are edge 1 in
        slot 0 and edge 4 in slot 1; edge 6 shares both slots at its venue."""
        km = [0.0, 1.0, 2.0, 3.0, 1.5, 2.5, 0.0]
        slots = [(0, 1), (0,), (0,), (0,), (1,), (1,), (0, 1)]
        index = make_index([40.0 + km_north(d) for d in km], [-74.0] * 7, slots)
        for cap in (1, 2, 3):
            pruning = PruningParams(max_neighbors=cap)
            got, _ = check_candidates(index, PARAMS, pruning)
            assert {(0, 6), (0, 1)} <= got.keys()
            matrices_equal(
                build_sep_matrix(index, PARAMS, pruning),
                build_sep_matrix_bruteforce(index, PARAMS, pruning),
            )

    def test_cutoff_inside_the_top_k(self):
        """Only three of edge 0's eight slot mates lie within the 13.3 km cutoff."""
        km = [0.0, 1.0, 5.0, 10.0, 14.0, 20.0, 30.0, 40.0, 60.0]
        index = make_index([40.0 + km_north(d) for d in km], [-74.0] * 9, [(0,)] * 9)
        got, links = check_candidates(index, PARAMS, PruningParams(max_neighbors=6))
        assert [j for i, j in got if i == 0] == [1, 2, 3]
        assert got.keys() == links.keys()

    def test_grid_never_misses_at_poles_or_antimeridian(self):
        """Pure spatial sweep (every edge shares slot 0) over awkward geometry."""
        rng = np.random.default_rng(89)
        lat = np.concatenate(
            [rng.uniform(88.5, 90.0, 40), rng.uniform(-90.0, -88.5, 20), rng.uniform(-1, 1, 40)]
        )
        lon = np.concatenate([rng.uniform(-180, 180, 60), rng.uniform(178, 180, 20), rng.uniform(-180, -178, 20)])
        index = make_index(lat, lon, [(0,)] * 100)
        params = SimilarityParams(alpha_sim=0.5, median_km=30.0)
        got, links = check_candidates(index, params, PruningParams())
        assert got.keys() == links.keys()
        for cap in (1, 4):
            check_candidates(index, params, PruningParams(max_neighbors=cap))

    def test_disjoint_slots_never_pair(self):
        index = make_index([40.0, 40.0], [-74.0, -74.0], [(3, 5), (7,)])
        ii, jj, _ = candidate_pairs(index, PARAMS, PruningParams())
        assert len(ii) == 0

    def test_same_location_overlapping_slots_pair_at_zero(self):
        index = make_index([40.0, 40.0], [-74.0, -74.0], [(3, 5), (5, 9)])
        ii, jj, dd = candidate_pairs(index, PARAMS, PruningParams())
        assert (list(ii), list(jj)) == ([0], [1])
        assert dd[0] == 0.0

    def test_each_unordered_pair_once_and_sorted(self):
        rng = np.random.default_rng(97)
        index = random_index(rng, 150, max_slots=6)
        ii, jj, _ = candidate_pairs(index, PARAMS, PruningParams())
        assert np.all(ii < jj)
        keys = ii * index.n_edges + jj
        assert np.all(np.diff(keys) > 0)  # strictly increasing => unique and sorted

    def test_pair_budget_exceeded(self):
        index = make_index([40.0] * 4, [-74.0] * 4, [(0,)] * 4)
        with pytest.raises(ConfigError, match="pair_budget") as err:
            candidate_pairs(index, PARAMS, PruningParams(pair_budget=2))
        # the superset holds about max_neighbors + 1 entries per edge and slot,
        # which a shorter cutoff seldom changes
        assert "lower pruning.max_neighbors" in str(err.value)
        assert "raise pruning.pair_budget" in str(err.value)
        assert "sigma_floor" not in str(err.value)

    def test_budget_counts_each_candidate_once_before_the_distance_test(self):
        """The budget counts each slot's (edge, neighbour) entries before any
        pair is listed. Edges 0, 1 and 2 share a venue: 0 and 1 in slot 5
        (2 entries), all three in slot 70 (4 entries: with a cap of one each
        takes the venue's two smallest ids), and 2 shares slot 7 with edge 3,
        which lies past the cutoff (no entry)."""
        step = np.degrees(1.05 * sigma_cutoff_km(PARAMS, 0.01) / 6371.0) / np.sqrt(2.0)
        index = make_index(
            [0.0, 0.0, 0.0, step, 0.0],
            [0.0, 0.0, 0.0, step, 0.0],
            [(5, 70), (5, 70), (7, 70), (7,), (100,)],
        )
        ii, jj, _ = candidate_pairs(index, PARAMS, PruningParams(max_neighbors=1, pair_budget=6))
        assert list(zip(ii.tolist(), jj.tolist())) == [(0, 1), (0, 2), (1, 2)]
        with pytest.raises(ConfigError, match="exceeds pair_budget=5") as err:
            candidate_pairs(index, PARAMS, PruningParams(max_neighbors=1, pair_budget=5))
        # slots 5 and 7 count 2 entries, slot 70 then brings the count to 6
        assert str(err.value).startswith(
            "candidate pair count exceeds pair_budget=5: it reached at least 6 in 3 of the 4 "
            "weekly slots with train check-ins; "
        )
        # at one point a member pairs with the slot's two smallest ids
        # whatever the distance: 2 entries in slot 5, 2 in slot 7, 4 in slot 70
        collapsed = at_one_point(index)
        ii, jj, _ = candidate_pairs(collapsed, PARAMS, PruningParams(max_neighbors=1, pair_budget=8))
        assert list(zip(ii.tolist(), jj.tolist())) == [(0, 1), (0, 2), (1, 2), (2, 3)]
        with pytest.raises(ConfigError, match="exceeds pair_budget=7"):
            candidate_pairs(collapsed, PARAMS, PruningParams(max_neighbors=1, pair_budget=7))

    def test_over_budget_bucket_stops_in_bounded_memory(self):
        """12.5 M co-located pairs in one bucket: the budget stops them block by block."""
        index = make_index([40.0] * 5000, [-74.0] * 5000, [(0,)] * 5000)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="exceeds pair_budget"):
                candidate_pairs(index, PARAMS, PruningParams(pair_budget=1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_venues_crowded_inside_the_pad_stop_before_their_balls_are_listed(self):
        """1,500 distinct venues 1e-13 degrees apart in one slot: every ball's
        pad holds hundreds of them, so listing the balls alone would cost
        about a million entries. The counted ball sizes stop the slot first."""
        from scipy.spatial import cKDTree  # noqa: F401  imported outside the traced peak

        m = 1500
        index = make_index(40.0 + 1e-13 * np.arange(m), [-74.0] * m, [(0,)] * m)
        assert len(np.unique(index.lat)) == m
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="exceeds pair_budget"):
                candidate_pairs(index, PARAMS, PruningParams(pair_budget=100_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_venues_a_hair_apart_build_with_the_default_settings(self):
        """1,500 distinct venues 1e-12 degrees apart in one slot, with the
        default settings: each ball's pad holds dozens of venues, and the
        weights tie in runs (98 distinct weights among the kept links). The
        slot's ball lists, about 196 k entries of which 98 k are distinct
        candidates, set the peak at about 22 MB."""
        from scipy.spatial import cKDTree  # noqa: F401  imported outside the traced peak

        m = 1500
        index = make_index(40.0 + 1e-12 * np.arange(m), [-74.0] * m, [(0,)] * m)
        assert len(np.unique(index.lat)) == m
        tracemalloc.start()
        try:
            sep = build_sep_matrix(index, PARAMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        degree = np.bincount(np.r_[sep.rows, sep.cols], minlength=m)
        assert degree.max() <= PruningParams().max_neighbors
        assert len(np.unique(sep.values)) < len(sep.values) // 100
        assert peak < 24 * 2**20

    def test_venues_a_hair_apart_match_bruteforce(self):
        """The layout above at 300 venues, against the double loop."""
        m = 300
        index = make_index(40.0 + 1e-12 * np.arange(m), [-74.0] * m, [(0,)] * m)
        fast = build_sep_matrix(index, PARAMS)
        assert len(fast.values) > 5000
        matrices_equal(fast, build_sep_matrix_bruteforce(index, PARAMS))

    def test_busy_venue_costs_max_neighbors_plus_one_entries_per_edge(self):
        """10,000 edges at one venue in one slot, with the default settings:
        each takes the venue's 65 smallest ids, so 650 k entries fit the 5 M
        budget, and only the 2,080 pairs among ids 0-64 rank in the top 64
        at both ends."""
        index = make_index([40.0] * 10_000, [-74.0] * 10_000, [(0,)] * 10_000)
        tracemalloc.start()
        try:
            m = build_sep_matrix(index, PARAMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(m.values) == 2080
        assert set(zip(m.rows.tolist(), m.cols.tolist())) == {
            (i, j) for i in range(65) for j in range(i + 1, 65)
        }
        assert peak < 128 * 2**20

    def test_pruning_validation(self):
        with pytest.raises(ConfigError, match="sigma_floor"):
            PruningParams(sigma_floor=0.5).validate(PARAMS.alpha_sim)
        with pytest.raises(ConfigError, match="max_neighbors"):
            PruningParams(max_neighbors=0).validate(PARAMS.alpha_sim)


def matrices_equal(a: SepMatrix, b: SepMatrix, tol=0.0):
    assert a.n_edges == b.n_edges
    np.testing.assert_array_equal(a.rows, b.rows)
    np.testing.assert_array_equal(a.cols, b.cols)
    np.testing.assert_allclose(a.values, b.values, rtol=0, atol=tol)


class TestBuildSepMatrix:
    def test_optimized_equals_bruteforce(self):
        rng = np.random.default_rng(101)
        for trial in range(6):
            index = random_index(rng, int(rng.integers(40, 140)), max_slots=5)
            fast = build_sep_matrix(index, PARAMS)
            slow = build_sep_matrix_bruteforce(index, PARAMS)
            matrices_equal(fast, slow, tol=1e-12)

    def test_optimized_equals_bruteforce_with_tight_neighbor_cap(self):
        rng = np.random.default_rng(103)
        for _ in range(4):
            index = random_index(rng, 80, box_deg=0.05, max_slots=8, slot_pool=6)
            pruning = PruningParams(max_neighbors=3)
            matrices_equal(
                build_sep_matrix(index, PARAMS, pruning),
                build_sep_matrix_bruteforce(index, PARAMS, pruning),
                tol=1e-12,
            )

    @pytest.mark.parametrize(
        "tied, one_slot",
        [(False, False), (True, False), (False, True), (True, True)],
        ids=["weighted", "tied", "spatial_only", "tied_spatial_only"],
    )
    def test_random_instances_match_bruteforce(self, tied, one_slot):
        """Ties (every edge at one point, shared venues) and single-slot
        indexes, max_neighbors from 1 up to beyond the slot size; then, for
        the weighted and tied cases, a small generated city at seeds 0-8 as
        build-sep indexes it for sepgcn and sep_temporal_only."""
        rng = np.random.default_rng(167)
        for case in range(6):
            index = random_index(
                rng,
                int(rng.integers(20, 120)),
                box_deg=float(rng.uniform(0.02, 0.3)),
                max_slots=6,
                slot_pool=int(rng.integers(3, 12)),
            )
            if case % 2:  # edges share venues, so distinct weights tie too
                venue = rng.integers(0, index.n_edges // 4, size=index.n_edges)
                index = dataclasses.replace(index, lat=index.lat[venue], lon=index.lon[venue])
            if one_slot:
                index = make_index(index.lat, index.lon, [(0,)] * index.n_edges)
            if tied:
                index = at_one_point(index)
            pruning = PruningParams(max_neighbors=[1, 2, 3, 5, 8, 200][case])
            check_candidates(index, PARAMS, pruning)
            matrices_equal(
                build_sep_matrix(index, PARAMS, pruning),
                build_sep_matrix_bruteforce(index, PARAMS, pruning),
                tol=1e-12,
            )
        if one_slot:
            return
        variant = "sep_temporal_only" if tied else "sepgcn"
        for seed in range(9):
            city = generate_city(SyntheticConfig(
                n_users=40, n_items=80, n_checkins=700, n_districts=3, themes_per_district=2, seed=seed
            ))
            ds = build_dataset(city.checkins(), SplitConfig(train_ratio=0.7, seed=seed, min_interactions=2))
            cfg = build_run_config({}, {"seed": str(seed), "pruning.max_neighbors": "16", "variant": variant})
            index, params = _variant_index(cfg, EdgeIndex.from_dataset(ds)), _sep_params(cfg, ds)
            fast = build_sep_matrix(index, params, cfg.pruning)
            assert len(fast.values) > 1000, f"seed {seed}"
            matrices_equal(fast, build_sep_matrix_bruteforce(index, params, cfg.pruning))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_chunk_ends_change_nothing(self, monkeypatch, chunk):
        """The distance pass, the weight order's runs of equal weights and the
        ranking pass carry their state across chunk ends: in chunks of a few
        pairs the builder still lists each candidate once and matches the
        double loop, on instances whose pairs share several slots, or
        venues and so weights."""
        rng = np.random.default_rng(173)
        monkeypatch.setattr(sep_graph, "_PAIR_CHUNK", chunk)
        for case in range(4):
            index = random_index(rng, 60, box_deg=0.05, max_slots=6, slot_pool=4)
            if case % 2:
                venue = rng.integers(0, 12, size=index.n_edges)
                index = dataclasses.replace(index, lat=index.lat[venue], lon=index.lon[venue])
            pruning = PruningParams(max_neighbors=[2, 5][case % 2])
            check_candidates(index, PARAMS, pruning)
            matrices_equal(
                build_sep_matrix(index, PARAMS, pruning),
                build_sep_matrix_bruteforce(index, PARAMS, pruning),
                tol=1e-12,
            )

    def test_neighbor_cap_tie_break_prefers_low_ids(self):
        """Five co-located edges tie at weight 1; the cap keeps the smallest ids."""
        index = make_index([40.0] * 5, [-74.0] * 5, [(0,)] * 5)
        pruning = PruningParams(max_neighbors=2)
        m = build_sep_matrix(index, PARAMS, pruning)
        # edge 0 keeps neighbours 1,2; edge 4 keeps 0,1 -> (0,4) one-sided, dropped
        pairs = set(zip(m.rows.tolist(), m.cols.tolist()))
        assert pairs == {(0, 1), (0, 2), (1, 2)}
        matrices_equal(m, build_sep_matrix_bruteforce(index, PARAMS, pruning), tol=0.0)

    def test_value_at_median_distance_is_alpha(self):
        # place the second venue ~exactly one median (2 km) due north
        lat2 = 40.0 + np.degrees(2.0 / 6371.0)
        index = make_index([40.0, lat2], [-74.0, -74.0], [(0,), (0,)])
        m = build_sep_matrix(index, PARAMS)
        np.testing.assert_allclose(m.values, PARAMS.alpha_sim, rtol=1e-9)

    def test_values_inside_floor_one_interval(self):
        rng = np.random.default_rng(107)
        index = random_index(rng, 200, max_slots=6)
        m = build_sep_matrix(index, PARAMS)
        assert m.nnz > 0
        # boundary pairs may round a hair under the floor
        assert m.values.min() >= 0.01 * (1 - 1e-12)
        assert m.values.max() <= 1.0

    def test_symmetry_and_no_self_loops(self):
        rng = np.random.default_rng(109)
        index = random_index(rng, 120, max_slots=5)
        m = build_sep_matrix(index, PARAMS)
        assert np.all(m.rows < m.cols)  # each pair once, sorted by (i, j)
        assert np.all(np.diff(m.rows * m.n_edges + m.cols) > 0)
        x = m.to_csr()
        assert x.nnz == m.nnz and x.has_sorted_indices
        assert (x != x.T).nnz == 0

    def test_to_csr_is_the_bruteforce_symmetric_matrix(self):
        rng = np.random.default_rng(117)
        for case in range(8):
            index = random_index(rng, int(rng.integers(20, 120)), box_deg=0.1, max_slots=6)
            pruning = PruningParams(max_neighbors=[2, 5, 64][case % 3])
            slow = build_sep_matrix_bruteforce(index, PARAMS, pruning)
            dense = np.zeros((index.n_edges, index.n_edges))
            for i, j, w in zip(slow.rows.tolist(), slow.cols.tolist(), slow.values.tolist()):
                dense[i, j] = dense[j, i] = w
            assert dense.any(), f"case {case}"
            x = build_sep_matrix(index, PARAMS, pruning).to_csr()
            np.testing.assert_array_equal(x.toarray(), dense, err_msg=f"case {case}")

    def test_max_neighbors_bounds_every_row(self):
        rng = np.random.default_rng(113)
        index = random_index(rng, 150, box_deg=0.02, max_slots=8, slot_pool=4)
        m = build_sep_matrix(index, PARAMS, PruningParams(max_neighbors=5))
        counts = np.bincount(np.concatenate([m.rows, m.cols]), minlength=m.n_edges)
        assert counts.max() <= 5

    def test_empty_result_warns(self, caplog):
        index = make_index([40.0, 40.0], [-74.0, -74.0], [(0,), (1,)])
        with caplog.at_level(logging.WARNING, logger="sepgcn.sep_graph"):
            m = build_sep_matrix(index, PARAMS)
        assert m.nnz == 0
        assert "empty" in caplog.text

    def test_raising_sigma_floor_never_adds_pairs(self):
        rng = np.random.default_rng(127)
        index = random_index(rng, 150, max_slots=5)
        counts = [
            build_sep_matrix(index, PARAMS, PruningParams(sigma_floor=f)).nnz
            for f in (0.01, 0.05, 0.1, 0.2, 0.4)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_active_edges_mask(self):
        index = make_index([40.0, 40.0, 40.0], [-74.0, -74.0, -74.0], [(0,), (0,), (9,)])
        m = build_sep_matrix(index, PARAMS)
        np.testing.assert_array_equal(m.active_edges(), [True, True, False])


class TestDeskCityMemory:
    """The criterion-6 desk city at seed 0 with max_neighbors 16, as the
    desk benchmark builds it: about 200 k candidates, 116 k kept pairs."""

    SETTINGS = ("--seed", "0", "--set", "pruning.max_neighbors=16")

    @pytest.fixture(scope="class")
    def snapshot(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("desk")
        assert main(["synth", "--out", str(d / "raw.tsv"), "--seed", "0"]) == 0
        assert main(["prepare", "--raw", str(d / "raw.tsv"), "--out", str(d / "snap.txt"),
                     *self.SETTINGS]) == 0
        return d / "snap.txt"

    def test_builder_holds_little_more_than_its_pairs(self, snapshot):
        """About 28 bytes per candidate: two int32 ids, a float64 weight,
        the int64 weight order and a keep flag, with chunk-sized
        temporaries. The build peaks at 5.5 MiB (13.5 MiB with a whole-list
        rank table); the bound leaves 1.5 MiB."""
        from scipy.spatial import cKDTree  # noqa: F401  imported outside the traced peak

        ds = load_snapshot(snapshot)
        index = EdgeIndex.from_dataset(ds)
        params = SimilarityParams(median_km=median_distance(ds, seed=3))
        tracemalloc.start()
        try:
            m = build_sep_matrix(index, params, PruningParams(max_neighbors=16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(m.values) > 100_000
        assert peak <= 7 * 2**20

    def test_build_sep_stage_peak_over_its_imports(self, snapshot, tmp_path):
        """The whole stage in a child process, as RSS: the only check that
        also sees memory tracemalloc does not, such as numpy's hash-set
        unique. The imports alone are subtracted. The stage adds 14.5-14.7
        MB (23.2-23.6 MB with a whole-list rank table); the bound leaves 3.3
        MB for where the heap places its blocks."""
        added = peak_rss.peak_over_imports_mb(
            "sepgcn.cli, sepgcn.sep_graph, scipy.spatial",
            "-m", "sepgcn.cli", "build-sep", "--snapshot", str(snapshot), "--out", str(tmp_path / "p.sep"),
            *self.SETTINGS,
        )
        assert added <= 18.0


class TestNormalize:
    def test_single_pair_normalizes_to_one(self):
        """deg_i = deg_j = sigma, so the entry becomes sigma/sigma = 1."""
        index = make_index([40.0, 40.01], [-74.0, -74.0], [(0,), (0,)])
        m = normalize_sep(build_sep_matrix(index, PARAMS))
        np.testing.assert_allclose(m.values, [1.0], rtol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(131)
        index = random_index(rng, 50, max_slots=5)
        raw = build_sep_matrix(index, PARAMS)
        assert raw.nnz > 0
        got = normalize_sep(raw).to_csr().toarray()
        x = raw.to_csr().toarray()
        deg = x.sum(axis=1)
        inv = np.array([1.0 / np.sqrt(d) if d > 0 else 0.0 for d in deg])
        np.testing.assert_allclose(got, np.diag(inv) @ x @ np.diag(inv), atol=1e-12)

    @pytest.mark.parametrize("n_edges", [1, 7, 60, 300])
    def test_degrees_are_the_csr_row_sums_bit_for_bit(self, n_edges):
        """Random upper-triangle pairs with some edges left isolated (one
        edge gives the empty matrix): the scaled weights equal those of the
        symmetric CSR matrix's row sums."""
        rng = np.random.default_rng(n_edges)
        for _ in range(5):
            rows, cols = np.divmod(np.unique(rng.integers(0, n_edges**2, size=3 * n_edges)), n_edges)
            upper = rows < cols
            raw = SepMatrix(n_edges, rows[upper], cols[upper], rng.uniform(0.01, 1.0, upper.sum()))
            deg = raw.to_csr() @ np.ones(n_edges)
            with np.errstate(divide="ignore"):
                inv = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
            expected = raw.values * (inv[raw.rows] * inv[raw.cols])
            np.testing.assert_array_equal(normalize_sep(raw).values, expected)

    def test_pairs_and_active_edges_survive(self):
        index = make_index([40.0, 40.0, 40.0], [-74.0, -74.0, -74.0], [(0,), (0,), (9,)])
        raw = build_sep_matrix(index, PARAMS)
        m = normalize_sep(raw)
        np.testing.assert_array_equal(m.rows, raw.rows)
        np.testing.assert_array_equal(m.cols, raw.cols)
        np.testing.assert_array_equal(m.active_edges(), [True, True, False])


class TestExport:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(139)
        index = random_index(rng, 80, max_slots=5)
        m = normalize_sep(build_sep_matrix(index, PARAMS))
        path = tmp_path / "m.sepmat"
        save_sep_matrix(m, path)
        back = load_sep_matrix(path)
        matrices_equal(m, back)
        assert back.meta == m.meta

    def test_bruteforce_and_optimized_exports_are_byte_identical(self, tmp_path):
        rng = np.random.default_rng(149)
        index = random_index(rng, 90, max_slots=5)
        a, b = tmp_path / "fast.sepmat", tmp_path / "slow.sepmat"
        save_sep_matrix(normalize_sep(build_sep_matrix(index, PARAMS)), a)
        save_sep_matrix(normalize_sep(build_sep_matrix_bruteforce(index, PARAMS)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bruteforce_exports_match_on_random_instances(self, tmp_path):
        """Both builders take each distance and weight from the same array kernels.

        A distance taken on numpy scalars can differ in its last bit from the
        array kernel's; on these 60 instances that makes 14 saved files differ.
        """
        rng = np.random.default_rng(5)
        a, b = tmp_path / "fast.sepmat", tmp_path / "slow.sepmat"
        for trial in range(60):
            index = random_index(rng, int(rng.integers(60, 160)), max_slots=5)
            save_sep_matrix(normalize_sep(build_sep_matrix(index, PARAMS)), a)
            save_sep_matrix(normalize_sep(build_sep_matrix_bruteforce(index, PARAMS)), b)
            assert a.read_bytes() == b.read_bytes(), f"trial {trial}"

    def test_rebuild_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(151)
        index = random_index(rng, 70)
        a, b = tmp_path / "one.sepmat", tmp_path / "two.sepmat"
        save_sep_matrix(normalize_sep(build_sep_matrix(index, PARAMS)), a)
        save_sep_matrix(normalize_sep(build_sep_matrix(index, PARAMS)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.sepmat"
        path.write_text("SOMETHING {}\n")
        with pytest.raises(InputDataError, match="bad matrix magic"):
            load_sep_matrix(path)
        with pytest.raises(InputDataError, match="not found"):
            load_sep_matrix(tmp_path / "none.sepmat")


def sep_outcome(path):
    """What load_sep_matrix gives: the matrix as plain values, or the error message."""
    try:
        m = load_sep_matrix(path)
    except InputDataError as exc:
        return str(exc)
    columns = ((a.dtype.str, a.tolist()) for a in (m.rows, m.cols, m.values))
    return (m.n_edges, m.meta, *columns)


def line_reader_outcome(path):
    """sep_outcome of the line-by-line reference reader."""
    try:
        meta, *entries = line_readers.reference_sep(path)
    except InputDataError as exc:
        return str(exc)
    extra = {k: v for k, v in meta.items() if k not in SEP_FIELDS}
    columns = ((a.dtype.str, a.tolist()) for a in entries)
    return (meta["n_edges"], extra, *columns)


def matches_the_line_reader(path) -> bool:
    """Whether load_sep_matrix loads path as the line-by-line reference reader
    does, or rejects it with one line that names the path. So it rejects
    every file the reference rejects."""
    outcome = sep_outcome(path)
    if isinstance(outcome, str):
        return outcome.startswith(f"{path}") and "\n" not in outcome
    return outcome == line_reader_outcome(path)


def with_count(lines):
    """The file text of lines, its header's n_pairs set to the entry lines it holds."""
    meta = json.loads(lines[0].split(" ", 1)[1])
    meta["n_pairs"] = len(lines) - 1
    return "\n".join([f"SEPMAT1 {json.dumps(meta, sort_keys=True)}", *lines[1:]]) + "\n"


def with_odd_entry(saved, spell):
    """The file text with a line added for a pair it lacks, the row index spelled by spell."""
    present = {tuple(map(int, line.split("\t")[:2])) for line in saved[1:]}
    i, j = next((i, j) for i in range(10, 40) for j in range(i + 1, 40) if (i, j) not in present)
    return "\n".join([*saved, f"{spell(str(i))}\t{j}\t0.25"]) + "\n"


class TestLoadContract:
    """Every malformed matrix file is an InputDataError naming the problem."""

    @pytest.fixture
    def saved(self, tmp_path):
        index = random_index(np.random.default_rng(157), 40, max_slots=5)
        path = tmp_path / "good.sepmat"
        save_sep_matrix(normalize_sep(build_sep_matrix(index, PARAMS)), path)
        return path.read_text().splitlines()

    def write(self, tmp_path, lines):
        path = tmp_path / "bad.sepmat"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ('"storage": "upper"', '"storage": "full"', "storage"),
            ('"normalization": "sym_degree"', '"normalization": "row_unit"', "normalization"),
            ('"normalization": "sym_degree"', '"normalization": "raw"', "normalization"),
            ('"n_edges": 40', '"n_edges": -1', "n_edges"),
            ('"n_edges": 40', '"n_edges": "40"', "n_edges"),
            ('"n_edges": 40', '"n_edges": 9223372036854775808', "n_edges"),
            ("{", "{{", "not JSON"),
        ],
    )
    def test_header_fields_are_checked(self, tmp_path, saved, old, new, match):
        lines = [saved[0].replace(old, new, 1), *saved[1:]]
        with pytest.raises(InputDataError, match=match):
            load_sep_matrix(self.write(tmp_path, lines))

    @pytest.mark.parametrize("header", ["not json", "{" * 70], ids=["short", "long"])
    def test_header_that_is_not_json_is_shown_as_text(self, tmp_path, saved, header):
        path = self.write(tmp_path, [f"SEPMAT1 {header}", *saved[1:]])
        with pytest.raises(InputDataError) as err:
            load_sep_matrix(path)
        assert str(err.value) == f"{path}: matrix header is not JSON: {header[:60]!r}"

    def test_header_must_be_an_object(self, tmp_path, saved):
        lines = ["SEPMAT1 [40]", *saved[1:]]
        with pytest.raises(InputDataError, match="JSON object"):
            load_sep_matrix(self.write(tmp_path, lines))

    @pytest.mark.parametrize(
        "entry, match",
        [
            ("garbage line", "expected"),
            ("0\t1", "expected"),
            ("0\t40\t0.5", "upper-triangle"),
            ("-1\t3\t0.5", "upper-triangle"),
            ("3\t1\t0.5", "upper-triangle"),
            ("2\t2\t0.5", "upper-triangle"),
            ("0\t1\tnan", "finite"),
            ("0\t1\tinf", "finite"),
            ("0\t1\t-0.5", "positive"),
        ],
    )
    def test_bad_entry_lines(self, tmp_path, saved, entry, match):
        with pytest.raises(InputDataError, match=match):
            load_sep_matrix(self.write(tmp_path, [*saved, entry]))

    @pytest.mark.parametrize("entry", ["garbage line", "0\t40\t0.5", "0\t1\t1e400"])
    def test_a_bad_entry_names_its_line(self, tmp_path, saved, entry):
        path = self.write(tmp_path, [*saved[:3], entry, *saved[3:]])
        with pytest.raises(InputDataError) as error:
            load_sep_matrix(path)
        assert str(error.value).startswith(f"{path}:4: ")

    def test_entries_must_ascend_by_pair(self, tmp_path, saved):
        path = self.write(tmp_path, [saved[0], *saved[:0:-1]])
        with pytest.raises(InputDataError, match="must ascend") as error:
            load_sep_matrix(path)
        assert str(error.value).startswith(f"{path}:3: ")

    def test_repeated_pair(self, tmp_path, saved):
        with pytest.raises(InputDataError, match="twice"):
            load_sep_matrix(self.write(tmp_path, [*saved, saved[1]]))

    def test_mutated_files_load_or_raise_input_error(self, tmp_path, saved, mutate):
        rng = np.random.default_rng(163)
        outcomes = Counter()
        for _ in range(300):
            path = self.write(tmp_path, mutate(saved, rng))
            try:
                m = load_sep_matrix(path)
            except InputDataError:
                outcomes["rejected"] += 1
                continue
            outcomes["loaded"] += 1
            assert np.all((m.rows >= 0) & (m.rows < m.n_edges) & (m.cols < m.n_edges))
            assert np.all(np.isfinite(m.values) & (m.values > 0))
        assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0

    def test_mutations_match_the_line_reader(self, tmp_path, saved, mutate):
        """On the 300 files of the mutation test above the loader loads what
        the line reader loads, with the same values, or rejects the file with
        one line naming it; it rejects every file the line reader rejects."""
        rng = np.random.default_rng(163)
        for _ in range(300):
            path = self.write(tmp_path, mutate(saved, rng))
            assert matches_the_line_reader(path)

    CASES = {
        # name: (file text from the saved lines, loads)
        "as written": (lambda s: "\n".join(s) + "\n", True),
        "blank line": (lambda s: "\n".join([*s[:3], "", *s[3:]]) + "\n", False),
        "comment line": (lambda s: "\n".join([*s[:3], "# note", *s[3:]]) + "\n", False),
        "no final newline": (lambda s: "\n".join(s), False),
        "crlf": (lambda s: "\r\n".join(s) + "\r\n", False),
        "space": (lambda s: with_odd_entry(s, " {}".format), False),
        "plus": (lambda s: with_odd_entry(s, "+{}".format), False),
        "underscore": (lambda s: with_odd_entry(s, lambda t: f"{t[0]}_{t[1:]}"), False),
        "1e400": (lambda s: "\n".join([*s, "0\t1\t1e400"]) + "\n", False),
        "carriage return in the header": (
            lambda s: "\n".join([s[0].replace(", ", ",\r", 1), *s[1:]]) + "\n",
            False,
        ),
        "header only": (lambda s: with_count(s[:1]), True),
        "header and a blank line": (lambda s: s[0] + "\n\n", False),
        "one row": (lambda s: with_count(s[:2]), True),
        "cut at a line": (lambda s: "\n".join(s[: len(s) // 2]) + "\n", False),
        "one row dropped": (lambda s: "\n".join([s[0], *s[2:]]) + "\n", False),
        "unsorted": (lambda s: "\n".join([s[0], *s[:0:-1]]) + "\n", False),
        "repeated pair": (lambda s: "\n".join([*s, s[1]]) + "\n", False),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", CASES)
    def test_hand_cases_match_the_line_reader(self, tmp_path, saved, case):
        text, loads = self.CASES[case]
        path = tmp_path / "case.sepmat"
        path.write_bytes(text(saved).encode())
        assert matches_the_line_reader(path)
        outcome = sep_outcome(path)
        assert isinstance(outcome, tuple) == loads, outcome


class TestEdgeIndex:
    ROWS = [(0, 0, (3, 3, 7), "train"), (0, 1, (5,), "test"), (1, 1, (9, 2), "train")]

    def build_dataset(self, rows=ROWS):
        return Dataset(
            user_ids=["a", "b"],
            item_ids=["x", "y"],
            interactions=interactions(rows),
            item_lat=np.array([40.0, 41.0]),
            item_lon=np.array([-74.0, -75.0]),
            split=SplitConfig(),
        )

    def test_from_dataset_uses_train_edges_in_order(self):
        index = EdgeIndex.from_dataset(self.build_dataset())
        assert index.n_edges == 2
        np.testing.assert_array_equal(index.users, [0, 1])
        np.testing.assert_array_equal(index.items, [0, 1])
        np.testing.assert_array_equal(index.slot_ptr, [0, 2, 4])
        np.testing.assert_array_equal(index.slot_vals, [3, 7, 2, 9])  # distinct, sorted
        np.testing.assert_array_equal(index.lat, [40.0, 41.0])

    def test_slots_are_each_train_edges_sorted_distinct_slots(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            pairs = sorted({(int(rng.integers(2)), int(rng.integers(2))) for _ in range(4)})
            rows = [
                (u, i, tuple(rng.choice([0, 1, 5, 100, 167], size=int(rng.integers(1, 6)))),
                 "test" if rng.random() < 0.3 else "train")
                for u, i in pairs
            ]
            index = EdgeIndex.from_dataset(self.build_dataset(rows))
            expected = [sorted(set(slots)) for _, _, slots, split in rows if split == "train"]
            assert index.slot_ptr.tolist() == np.cumsum([0] + [len(s) for s in expected]).tolist()
            assert index.slot_vals.tolist() == [v for s in expected for v in s]
