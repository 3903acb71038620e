"""Ball geometry and the non-overlap region memory."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothcert.memory import (CertifiedRegion, MemoryInvariantError,
                               MemoryStore, audit,
                               intersect, largest_in_subset, largest_out_subset,
                               load_memory, memory_insert, save_memory)


def region(center, radius, prediction, sigma=0.25, norm="l2"):
    return CertifiedRegion(center=tuple(np.atleast_1d(center)), radius=radius,
                           prediction=prediction, sigma_used=sigma, norm=norm)


def mc_points_in_ball(center, radius, n, rng, norm="l2"):
    """Uniform-ish sample of points inside a ball (rejection from a cube)."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d = center.size
    pts = []
    while len(pts) < n:
        cand = center + radius * rng.uniform(-1.0, 1.0, size=(4 * n, d))
        if norm == "l2":
            dist = np.linalg.norm(cand - center, axis=1)
        else:
            dist = np.abs(cand - center).sum(axis=1)
        pts.extend(cand[dist <= radius][: n - len(pts)])
    return np.asarray(pts)


def cross_pred_invariant_holds(store, tol=1e-9):
    rs = store.regions
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            if rs[i].prediction == rs[j].prediction:
                continue
            if rs[i].norm == "l2":
                d = math.dist(rs[i].center, rs[j].center)
            else:
                d = sum(abs(a - b) for a, b in zip(rs[i].center, rs[j].center))
            if d < rs[i].radius + rs[j].radius - tol:
                return False
    return True


class TestRegion:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            region((0.0,), -0.5, 0)

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError):
            region((0.0,), 0.5, 0, norm="linf")

    def test_abstain_prediction_rejected(self):
        with pytest.raises(ValueError, match="prediction"):
            region((0.0,), 0.5, -1)

    @pytest.mark.parametrize("center,radius,sigma", [
        ((math.nan, 0.0), 0.5, 0.25), ((0.0, math.inf), 0.5, 0.25),
        ((0.0, 0.0), math.nan, 0.25), ((0.0, 0.0), math.inf, 0.25),
        ((0.0, 0.0), 0.5, math.nan), ((0.0, 0.0), 0.5, -math.inf),
    ])
    def test_non_finite_rejected(self, center, radius, sigma):
        with pytest.raises(ValueError, match="finite"):
            region(center, radius, 0, sigma=sigma)


class TestIntersect:
    def test_clear_overlap(self):
        assert intersect(region((0.0, 0.0), 1.0, 0), region((1.0, 0.0), 1.0, 1))

    def test_clear_separation(self):
        assert not intersect(region((0.0, 0.0), 1.0, 0),
                             region((3.0, 0.0), 1.5, 1))

    def test_tangency_is_not_overlap(self):
        assert not intersect(region((0.0, 0.0), 1.0, 0),
                             region((2.5, 0.0), 1.5, 1))

    def test_norm_mismatch(self):
        with pytest.raises(ValueError):
            intersect(region((0.0,), 1.0, 0), region((0.0,), 1.0, 1, norm="l1"))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            intersect(region((0.0,), 1.0, 0), region((0.0, 0.0), 1.0, 1))


class TestLargestSubsets:
    def test_in_subset_reference(self):
        out = largest_in_subset(region((0.0, 0.0), 1.0, 0),
                                region((0.5, 0.0), 0.8, 1))
        assert out == pytest.approx(0.5)

    def test_in_subset_already_contained(self):
        out = largest_in_subset(region((0.0, 0.0), 1.0, 0),
                                region((0.0, 0.0), 0.3, 1))
        assert out == pytest.approx(0.3)

    def test_in_subset_near_boundary(self):
        out = largest_in_subset(region((0.0, 0.0), 1.0, 0),
                                region((0.9, 0.0), 0.05, 1))
        assert out == pytest.approx(0.05)

    def test_in_subset_precondition(self):
        with pytest.raises(ValueError):
            largest_in_subset(region((0.0, 0.0), 1.0, 0),
                              region((2.0, 0.0), 0.5, 1))

    def test_out_subset_reference(self):
        out = largest_out_subset(region((0.0, 0.0), 1.0, 0),
                                 region((2.0, 0.0), 1.5, 1))
        assert out == pytest.approx(1.0)

    def test_out_subset_already_disjoint(self):
        out = largest_out_subset(region((0.0, 0.0), 1.0, 0),
                                 region((5.0, 0.0), 0.5, 1))
        assert out == pytest.approx(0.5)

    def test_out_subset_near_tangent(self):
        eps = 1e-6
        out = largest_out_subset(region((0.0, 0.0), 1.0, 0),
                                 region((1.0 + eps, 0.0), 3.0, 1))
        assert out == pytest.approx(eps, rel=1e-6)

    def test_out_subset_precondition(self):
        with pytest.raises(ValueError):
            largest_out_subset(region((0.0, 0.0), 1.0, 0),
                               region((0.5, 0.0), 0.5, 1))

    def test_maximality_by_monte_carlo(self):
        # shrunk ball sits inside the outer ball; a slightly larger one escapes
        rng = np.random.default_rng(42)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            outer_c = rng.normal(size=d)
            outer_r = rng.uniform(0.5, 2.0)
            offset = rng.normal(size=d)
            offset *= rng.uniform(0.0, 0.99) * outer_r / max(np.linalg.norm(offset), 1e-12)
            cand_c = outer_c + offset
            cand_r = rng.uniform(0.1, 2.0)
            outer = region(outer_c, outer_r, 0)
            cand = region(cand_c, cand_r, 1)
            r_in = largest_in_subset(outer, cand)
            if r_in > 1e-9:
                pts = mc_points_in_ball(cand_c, r_in, 2000, rng)
                assert np.all(np.linalg.norm(pts - outer_c, axis=1)
                              <= outer_r + 1e-9)
            grown = r_in + 1e-6
            if grown <= cand.radius:
                # the grown ball must poke out of the outer ball
                dist = np.linalg.norm(cand_c - outer_c)
                assert dist + grown > outer_r

    def test_disjointness_by_monte_carlo(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            obst_c = rng.normal(size=d)
            obst_r = rng.uniform(0.3, 1.5)
            direction = rng.normal(size=d)
            direction /= max(np.linalg.norm(direction), 1e-12)
            dist = obst_r + rng.uniform(0.05, 2.0)
            cand_c = obst_c + dist * direction
            cand = region(cand_c, rng.uniform(0.1, 3.0), 1)
            r_out = largest_out_subset(region(obst_c, obst_r, 0), cand)
            if r_out > 1e-9:
                pts = mc_points_in_ball(cand_c, r_out, 2000, rng)
                assert np.all(np.linalg.norm(pts - obst_c, axis=1)
                              >= obst_r - 1e-9)


class TestMemoryInsert:
    def test_empty_store_unchanged(self):
        store = MemoryStore()
        r = region((0.0, 0.0), 1.0, 0)
        pred, final, adjusted = memory_insert(store, r)
        assert (pred, final, adjusted) == (0, r, False)

    def test_same_prediction_overlap_untouched(self):
        store = MemoryStore()
        memory_insert(store, region((0.0, 0.0), 1.0, 0))
        r = region((0.5, 0.0), 1.0, 0)
        pred, final, adjusted = memory_insert(store, r)
        assert not adjusted
        assert final.radius == 1.0 and pred == 0

    def test_center_inside_overrides_prediction(self):
        store = MemoryStore()
        memory_insert(store, region((0.0, 0.0), 1.0, 0))
        pred, final, adjusted = memory_insert(store, region((0.5, 0.0), 0.8, 1))
        assert adjusted
        assert pred == 0
        assert final.radius == pytest.approx(0.5)
        assert store.overlap_events == 1

    def test_outside_overlap_shrinks(self):
        store = MemoryStore()
        memory_insert(store, region((0.0, 0.0), 1.0, 0))
        pred, final, adjusted = memory_insert(store, region((2.0, 0.0), 1.5, 1))
        assert adjusted
        assert pred == 1
        assert final.radius == pytest.approx(1.0)

    def test_insertion_order_first_match(self):
        # the first differently-predicted container wins the override
        store = MemoryStore()
        memory_insert(store, region((0.0, 0.0), 1.0, 0))
        memory_insert(store, region((4.0, 0.0), 1.0, 1))
        pred, final, _ = memory_insert(store, region((0.2, 0.0), 0.5, 2))
        assert pred == 0
        assert final.radius == pytest.approx(0.5)

    def test_comparisons_count_full_scan(self):
        store = MemoryStore()
        rng = np.random.default_rng(1)
        n = 25
        for i in range(n):
            memory_insert(store, region(rng.normal(size=2) * 50.0,
                                        rng.uniform(0.1, 1.0), int(i % 3)))
        assert store.comparisons == n * (n - 1) // 2

    def test_l1_interval_geometry(self):
        store = MemoryStore()
        memory_insert(store, region((0.0,), 1.0, 0, norm="l1"))
        pred, final, adjusted = memory_insert(store,
                                              region((0.5,), 0.8, 1, norm="l1"))
        assert adjusted and pred == 0 and final.radius == pytest.approx(0.5)

    def test_l1_high_dim_overlaps_stay_disjoint(self):
        # crowded inserts force override and shrink events; no sampled point
        # may lie strictly inside two differently-predicted L1 balls
        for d in (2, 3, 4):
            rng = np.random.default_rng(40 + d)
            store = MemoryStore()
            for _ in range(30):
                memory_insert(store, region(rng.uniform(-1.5, 1.5, size=d),
                                            rng.uniform(0.2, 1.5),
                                            int(rng.integers(0, 3)), norm="l1"))
            assert store.overlap_events > 0
            centers = np.array([r.center for r in store.regions])
            radii = np.array([r.radius for r in store.regions])
            preds = np.array([r.prediction for r in store.regions])
            pts = np.concatenate([mc_points_in_ball(r.center, r.radius, 200, rng,
                                                    norm="l1")
                                  for r in store.regions if r.radius > 0])
            dist = np.abs(pts[:, None, :] - centers[None, :, :]).sum(axis=2)
            inside = dist < radii[None, :] - 1e-12
            for p in np.unique(preds):
                in_p = inside[:, preds == p].any(axis=1)
                in_other = inside[:, preds != p].any(axis=1)
                assert not np.any(in_p & in_other)

    def test_l1_high_dim_disjoint_fine(self):
        store = MemoryStore()
        memory_insert(store, region((0.0, 0.0), 1.0, 0, norm="l1"))
        pred, final, adjusted = memory_insert(store,
                                              region((5.0, 0.0), 1.0, 1,
                                                     norm="l1"))
        assert not adjusted and final.radius == 1.0

    @settings(max_examples=150)
    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([1, 2, 5]),
           st.integers(min_value=2, max_value=12))
    def test_store_invariant_random_sequences(self, seed, d, n):
        rng = np.random.default_rng(seed)
        store = MemoryStore()
        for _ in range(n):
            memory_insert(store, region(rng.uniform(-3, 3, size=d),
                                        rng.uniform(0.0, 2.0),
                                        int(rng.integers(0, 3))))
        assert cross_pred_invariant_holds(store)

    def test_order_invariance_without_overlaps(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            # far-separated centers guarantee zero overlap events
            centers = rng.normal(size=(8, 2)) * 100.0
            radii = rng.uniform(0.1, 2.0, size=8)
            preds = rng.integers(0, 3, size=8)
            regions = [region(c, r, int(p))
                       for c, r, p in zip(centers, radii, preds)]
            store = MemoryStore()
            for r in regions:
                memory_insert(store, r)
            assert store.overlap_events == 0
            reference = sorted((r.center, r.prediction, r.radius)
                               for r in store.regions)
            for _ in range(5):
                perm = rng.permutation(len(regions))
                other = MemoryStore()
                for i in perm:
                    memory_insert(other, regions[i])
                assert other.overlap_events == 0
                got = sorted((r.center, r.prediction, r.radius)
                             for r in other.regions)
                assert got == reference


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        store = MemoryStore()
        for i in range(100):
            memory_insert(store, region(rng.normal(size=3) * 20.0,
                                        rng.uniform(0.0, 1.0), int(i % 4),
                                        sigma=rng.uniform(0.1, 1.0)))
        path = tmp_path / "memory.jsonl"
        save_memory(store, path)
        loaded = load_memory(path)
        assert loaded == store

    def test_empty_store_round_trip(self, tmp_path):
        path = tmp_path / "memory.jsonl"
        save_memory(MemoryStore(), path)
        assert path.read_text() == ""
        assert len(load_memory(path)) == 0

    def test_corrupt_overlap_rejected(self, tmp_path):
        path = tmp_path / "memory.jsonl"
        path.write_text(
            '{"center": [0.0, 0.0], "radius": 1.0, "prediction": 0, '
            '"sigma": 0.25, "norm": "l2"}\n'
            '{"center": [0.5, 0.0], "radius": 1.0, "prediction": 1, '
            '"sigma": 0.25, "norm": "l2"}\n')
        with pytest.raises(MemoryInvariantError):
            load_memory(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "memory.jsonl"
        path.write_text(
            '{"center": [0.0], "radius": 1.0, "prediction": 0, '
            '"sigma": 0.25, "norm": "l2"}\n'
            'not json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_memory(path)

    def test_non_finite_radius_names_line(self, tmp_path):
        path = tmp_path / "memory.jsonl"
        path.write_text(
            '{"center": [0.0], "radius": 1.0, "prediction": 0, '
            '"sigma": 0.25, "norm": "l2"}\n'
            '{"center": [0.5], "radius": NaN, "prediction": 1, '
            '"sigma": 0.25, "norm": "l2"}\n')
        with pytest.raises(ValueError, match="line 2.*finite"):
            load_memory(path)

    def test_negative_prediction_names_line(self, tmp_path):
        path = tmp_path / "memory.jsonl"
        path.write_text(
            '{"center": [0.0], "radius": 1.0, "prediction": 0, '
            '"sigma": 0.25, "norm": "l2"}\n'
            '{"center": [5.0], "radius": 1.0, "prediction": -1, '
            '"sigma": 0.25, "norm": "l2"}\n')
        with pytest.raises(ValueError, match="line 2.*prediction"):
            load_memory(path)


class TestAudit:
    def test_no_overlaps_cost_model(self):
        store = MemoryStore()
        rng = np.random.default_rng(2)
        # widely separated inputs: pairwise distance far above any radius
        for i in range(10):
            memory_insert(store, region([100.0 * i, 0.0], 1.0, int(i % 2)))
        report = audit(store, cert_sample_cost=1000)
        assert report["overlap_events"] == 0
        assert report["comparisons"] == 45
        assert report["predicted_cost"] == pytest.approx(2 * 10 + 1000)

    def test_overlap_fraction_in_cost(self):
        store = MemoryStore()
        memory_insert(store, region((0.0, 0.0), 1.0, 0))
        memory_insert(store, region((0.5, 0.0), 0.5, 1))  # adjusted
        report = audit(store, cert_sample_cost=100)
        # p = 1/2 observed: cost = 2*0.5 + 0.5*(4 + 100)
        assert report["predicted_cost"] == pytest.approx(1.0 + 0.5 * 104)
