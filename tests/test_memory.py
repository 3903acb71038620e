"""Ball geometry and the non-overlap region memory."""

import builtins
import json
import math
import os
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smoothcert.memory import (CertifiedRegion, MemoryInvariantError,
                               MemoryStore, _checked_row, audit,
                               largest_in_subset, largest_out_subset,
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


# ---------------------------------------------------------------------------
# Reference: the pure-Python full scan and pair loop the numpy screen replaced
# ---------------------------------------------------------------------------

def ref_overlaps(d, r_a, r_b, scale=0.0):
    """Overlap by more than 4 ulps of the largest of d, the radii and scale."""
    return d < r_a + r_b - 4.0 * 2.0**-52 * max(d, r_a, r_b, scale)


class RefStore:
    def __init__(self, regions=()):
        self.regions = list(regions)
        self.comparisons = 0
        self.overlap_events = 0

    def __len__(self):
        return len(self.regions)


def ref_distance(a, b):
    if a.norm == "l2":
        return math.dist(a.center, b.center)
    return sum(abs(u - v) for u, v in zip(a.center, b.center))


def ref_insert(store, region):
    cand = region
    adjusted = False
    r_over = None  # radius of the entry that overrode the prediction
    scan = list(store.regions)
    store.comparisons += len(scan)
    for seen, entry in enumerate(scan, start=1):
        if entry.prediction == cand.prediction:
            continue
        d = ref_distance(entry, cand)
        if d <= entry.radius:
            new_r = max(0.0, min(cand.radius, entry.radius - d))
        elif d < entry.radius + cand.radius:
            new_r = max(0.0, min(cand.radius, d - entry.radius))
        else:
            continue
        if r_over is not None and ref_overlaps(d, entry.radius, cand.radius, r_over):
            raise MemoryInvariantError("shrink after override")
        if d <= entry.radius:
            if r_over is None:  # the skipped entries of the first prediction now differ
                scan.extend(e for e in scan[:seen] if e.prediction == cand.prediction)
            cand, r_over = replace(cand, prediction=entry.prediction), entry.radius
        cand = replace(cand, radius=new_r)
        adjusted = True
        store.overlap_events += 1
    store.regions.append(cand)
    return cand.prediction, cand, adjusted


def ref_first_overlap(regions):
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            a, b = regions[i], regions[j]
            if a.prediction == b.prediction:
                continue
            if ref_overlaps(ref_distance(a, b), a.radius, b.radius):
                return f"regions {i} and {j} predict differently but overlap"
    return None


def counters(store):
    return len(store), store.comparisons, store.overlap_events


def insert_both(store, ref, r):
    got = memory_insert(store, r)
    assert got == ref_insert(ref, r)
    assert store.regions == ref.regions
    assert counters(store) == counters(ref)
    return got


def insert_both_or_raise(store, ref, r):
    """``insert_both``, or None when both copies find the store invariant broken."""
    try:
        got = memory_insert(store, r)
    except MemoryInvariantError:
        with pytest.raises(MemoryInvariantError):
            ref_insert(ref, r)
        return None
    assert got == ref_insert(ref, r)
    assert store.regions == ref.regions
    assert counters(store) == counters(ref)
    return got


def write_regions(path, regions):
    path.write_text("".join(
        json.dumps({"center": list(r.center), "radius": r.radius,
                    "prediction": r.prediction, "sigma": r.sigma_used,
                    "norm": r.norm}) + "\n" for r in regions))


def crowded_regions(rng, d, norm, n):
    """Random regions dense enough that overrides and shrinks both fire."""
    typical = math.sqrt(2.0 * d / 3.0) if norm == "l2" else 2.0 * d / 3.0
    return [region(rng.uniform(-1.0, 1.0, size=d),
                   typical * 10.0 ** rng.uniform(-1.5, 0.3), int(rng.integers(0, 3)),
                   norm=norm)
            for _ in range(n)]


def translated_regions(rng, k, d, norm, n):
    """n small regions in [-1, 1]^d, then n // 4 probes whose radius, 0.7 times
    the typical distance, meets a few differently-predicted ones (every other
    probe centered on one), all moved by 10**k on every axis; beyond 10**8 the
    shape is scaled by 10**(k - 6), so that rounding does not merge centers."""
    typical = math.sqrt(2.0 * d / 3.0) if norm == "l2" else 2.0 * d / 3.0
    regions = [region(rng.uniform(-1.0, 1.0, size=d), typical * rng.uniform(0.01, 0.15),
                      int(rng.integers(0, 3)), norm=norm) for _ in range(n)]
    for j in range(n // 4):
        center = regions[rng.integers(n)].center if j % 2 else rng.uniform(-1.0, 1.0, size=d)
        regions.append(region(center, 0.7 * typical, int(rng.integers(0, 3)), norm=norm))
    scale = 1.0 if k <= 8 else 10.0 ** (k - 6)
    return [replace(r, center=tuple(10.0 ** k + scale * np.asarray(r.center)),
                    radius=scale * r.radius) for r in regions]


# Single lines, good and bad in each way a memory-file line can be.
_GOOD = '{{"center": [{}], "radius": 0.5, "prediction": {}, "sigma": 0.25, "norm": "l2"}}'
LINE_VARIANTS = [
    _GOOD.format("0.0", 0), _GOOD.format("10.0", 1), _GOOD.format("20", 2),
    _GOOD.format("0.25", 1), "", "  \t", "\x0b", "\u00a0", "\x0b" + _GOOD.format("30.0", 0),
    " " + _GOOD.format("40.0", 1) + "\t", _GOOD.format("50.0", 0) + " " + _GOOD.format("60.0", 1),
    _GOOD.format("70.0", 0)[:-1], "[]", "1", '"x"', "null", "{}",
    '{"center": [80.0], "radius": 0.5, "prediction": 0, "sigma": 0.25}',
    '{"center": [90.0], "radius": 0.5, "prediction": 0, "sigma": 0.25, "norm": "l2", "x": 1}',
    _GOOD.format("100.0", "true"), _GOOD.format("110.0", "1.0"), _GOOD.format("120.0", -1),
    _GOOD.format("130.0", 2**63), _GOOD.format("", 0), _GOOD.format("true", 0),
    _GOOD.format("140.0, 1.0", 0), _GOOD.format("Infinity", 0), _GOOD.format("1e400", 1),
    _GOOD.format("9" * 401, 0), _GOOD.format("150.0", 0).replace('"l2"', '"l1"'),
    _GOOD.format("160.0", 0).replace('"l2"', '"L2"'),
    _GOOD.format("170.0", 0).replace("0.5", "-0.0"), _GOOD.format("180.0", 0).replace("0.5", "-1"),
    _GOOD.format("190.0", 0).replace("0.25", "NaN"), _GOOD.format("200.0", 0).replace("0.5", "1"),
    '{"center": "12", "radius": 0.5, "prediction": 0, "sigma": 0.25, "norm": "l2"}',
]


def load_outcome(path):
    """The regions ``load_memory`` returns, or the type and text of its error."""
    try:
        return load_memory(path).regions
    except ValueError as exc:
        return type(exc), str(exc)


# Whole files, one for each outcome of a load; in a failing one the last line is at fault.
FILE_VARIANTS = {
    "valid": _GOOD.format("0.0", 0) + "\n\n" + _GOOD.format("10.0", 1) + "\n",
    "unparsable": _GOOD.format("0.0", 0) + "\n" + _GOOD.format("10.0", 1)[:-1] + "\n",
    "bad_value": _GOOD.format("0.0", 0) + "\n"
                 + _GOOD.format("10.0", 1).replace("0.5", "-1.0") + "\n",
    "overlap": _GOOD.format("0.0", 0) + "\n" + _GOOD.format("0.25", 1) + "\n",
}


class TestRegion:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            region((0.0,), -0.5, 0)

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError):
            region((0.0,), 0.5, 0, norm="linf")

    def test_empty_center_rejected(self):
        with pytest.raises(ValueError, match="center must have at least one coordinate"):
            region((), 0.5, 0)

    def test_abstain_prediction_rejected(self):
        with pytest.raises(ValueError, match="prediction"):
            region((0.0,), 0.5, -1)

    @pytest.mark.parametrize("prediction", [1.5, 1.0, True, np.float64(1.0), 2**63, "1"],
                             ids=["fraction", "whole_float", "bool", "numpy_float",
                                  "two_to_the_63", "string"])
    def test_prediction_that_the_store_cannot_keep_rejected(self, prediction):
        # the int64 column would keep 1 for 1.5 or True, so a reloaded store
        # would disagree with what memory_insert returned
        with pytest.raises(ValueError, match=r"prediction must be an integer in \[0, 2\*\*63\)"):
            memory_insert(MemoryStore(), CertifiedRegion((0.0, 0.0), 1.0, prediction, 0.25))

    @pytest.mark.parametrize("prediction", [0, 1, np.int64(2), np.uint8(3), 2**63 - 1])
    def test_integer_predictions_round_trip(self, tmp_path, prediction):
        store = MemoryStore()
        got, stored, _ = memory_insert(store, CertifiedRegion((0.0, 0.0), 1.0, prediction,
                                                              0.25))
        save_memory(store, tmp_path / "m.jsonl")
        assert got == stored.prediction == prediction
        assert load_memory(tmp_path / "m.jsonl").regions[0].prediction == prediction

    @pytest.mark.parametrize("center,radius,sigma", [
        ((math.nan, 0.0), 0.5, 0.25), ((0.0, math.inf), 0.5, 0.25),
        ((0.0, 0.0), math.nan, 0.25), ((0.0, 0.0), math.inf, 0.25),
        ((0.0, 0.0), 0.5, math.nan), ((0.0, 0.0), 0.5, -math.inf),
    ])
    def test_non_finite_rejected(self, center, radius, sigma):
        with pytest.raises(ValueError, match="finite"):
            region(center, radius, 0, sigma=sigma)


def insert_after(entry, cand):
    """memory_insert of cand into a store that holds only entry."""
    store = MemoryStore()
    memory_insert(store, entry)
    return memory_insert(store, cand)


class TestIntersect:
    """Which differently-predicted balls memory_insert treats as overlapping."""

    def test_clear_overlap(self):
        assert insert_after(region((0.0, 0.0), 1.0, 0), region((1.0, 0.0), 1.0, 1))[2]

    def test_clear_separation(self):
        assert not insert_after(region((0.0, 0.0), 1.0, 0),
                                region((3.0, 0.0), 1.5, 1))[2]

    def test_tangency_is_not_overlap(self):
        assert not insert_after(region((0.0, 0.0), 1.0, 0),
                                region((2.5, 0.0), 1.5, 1))[2]

    def test_norm_mismatch(self):
        with pytest.raises(ValueError, match="norm mismatch: 'l2' vs 'l1'"):
            insert_after(region((0.0,), 1.0, 0), region((0.0,), 1.0, 1, norm="l1"))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2"):
            insert_after(region((0.0,), 1.0, 0), region((0.0, 0.0), 1.0, 1))

    def test_rejected_region_is_not_stored(self):
        store = MemoryStore()
        memory_insert(store, region((0.0,), 1.0, 0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            memory_insert(store, region((5.0, 0.0), 1.0, 1))
        assert len(store) == 1 and counters(store) == (1, 0, 0)


def one_entry_cases(rng, norm):
    """(entry, candidate) pairs that predict differently, in d=1..5: centers
    inside and outside the entry, centers on its boundary, tangent balls and
    zero radii."""
    for d in range(1, 6):
        for shape in ("inside", "outside", "boundary", "tangent", "zero"):
            for _ in range(20):
                c = rng.normal(size=d)
                v = rng.normal(size=d)
                v /= np.linalg.norm(v, ord=2 if norm == "l2" else 1)
                r_entry = rng.uniform(0.1, 2.0)
                t = r_entry * rng.uniform(*(0.0, 1.0) if shape == "inside" else (1.0, 3.0))
                x = c + t * v
                r_cand = rng.uniform(0.0, 3.0)
                dist = ref_distance(region(c, 0.0, 0, norm=norm), region(x, 0.0, 1, norm=norm))
                if shape == "boundary":
                    r_entry = dist
                elif shape == "tangent":
                    r_cand = max(0.0, dist - r_entry)
                elif shape == "zero":
                    r_cand = 0.0
                    if rng.uniform() < 0.5:
                        r_entry, x = 0.0, c
                yield region(c, r_entry, 0, norm=norm), region(x, r_cand, 1, norm=norm)


class TestOneRule:
    @pytest.mark.parametrize("norm", ["l2", "l1"])
    def test_insert_matches_largest_subsets(self, norm):
        # memory_insert and the largest_*_subset helpers apply the same rule
        seen = set()
        for entry, cand in one_entry_cases(np.random.default_rng(44), norm):
            try:
                want = entry.prediction, largest_in_subset(entry, cand)
            except ValueError:  # the center lies outside the entry
                want = cand.prediction, largest_out_subset(entry, cand)
            pred, final, adjusted = insert_after(entry, cand)
            assert (pred, final.radius) == want and final.prediction == pred
            assert adjusted or final == cand
            seen.add((pred == entry.prediction, final.radius < cand.radius,
                      final.radius == 0.0))
        # overrides, shrinks and untouched inserts, with and without zero radii
        assert seen >= {(True, True, True), (True, True, False), (True, False, True),
                        (False, True, False), (False, False, False),
                        (False, False, True)}


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


class TestAgainstReferenceScan:
    @pytest.mark.parametrize("norm", ["l2", "l1"])
    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_random_stores_match(self, d, norm):
        rng = np.random.default_rng(100 * d + len(norm))
        store, ref = MemoryStore(), RefStore()
        overrides = shrinks = 0
        for r in crowded_regions(rng, d, norm, 150):
            pred, final, _ = insert_both(store, ref, r)
            overrides += pred != r.prediction
            shrinks += pred == r.prediction and final.radius < r.radius
        assert overrides > 0 and shrinks > 0

    @pytest.mark.parametrize("norm", ["l2", "l1"])
    def test_tangency_and_zero_radius_boundary(self, norm):
        store, ref = MemoryStore(), RefStore()
        insert_both(store, ref, region((0.0, 0.0), 1.0, 0, norm=norm))
        # tangent: d == r_entry + r, no overlap, no adjustment
        pred, final, adjusted = insert_both(store, ref,
                                            region((2.5, 0.0), 1.5, 1, norm=norm))
        assert (pred, final.radius, adjusted) == (1, 1.5, False)
        # zero radius on the entry's boundary: d == r_entry, overridden
        pred, final, adjusted = insert_both(store, ref,
                                            region((0.0, 1.0), 0.0, 2, norm=norm))
        assert (pred, final.radius, adjusted) == (0, 0.0, True)

    def test_squares_overflowing_to_inf(self, tmp_path):
        # numpy's squared differences overflow here; math.dist does not
        store, ref = MemoryStore(), RefStore()
        insert_both(store, ref, region((0.0, 0.0), 1e160, 0))
        pred, final, adjusted = insert_both(store, ref, region((1.5e160, 0.0), 1e160, 1))
        assert adjusted and final.radius == pytest.approx(0.5e160)
        path = tmp_path / "memory.jsonl"
        write_regions(path, [region((0.0, 0.0), 1e160, 0),
                             region((1.5e160, 0.0), 1e160, 1)])
        with pytest.raises(MemoryInvariantError, match="regions 0 and 1"):
            load_memory(path)

    @pytest.mark.parametrize("norm", ["l2", "l1"])
    @pytest.mark.parametrize("entry,cand", [
        (((1.5e154, 0.0), 9e153), ((0.0, 0.0), 9e153)),     # only |c_i|^2 overflows
        (((1e160, 0.0), 1.5e160), ((-1e160, 0.0), 1e160)),  # the product is inf - inf
    ])
    def test_screen_terms_overflowing(self, entry, cand, norm):
        # each pair overlaps, though a term of the insert screen is infinite
        store, ref = MemoryStore(), RefStore()
        insert_both(store, ref, region(*entry, 0, norm=norm))
        pred, final, adjusted = insert_both(store, ref, region(*cand, 1, norm=norm))
        assert adjusted and final.radius < cand[1]

    @pytest.mark.parametrize("norm,radii", [("l2", (2.0, 3.0)), ("l1", (3.0, 4.0))])
    @pytest.mark.parametrize("d", [2, 16])
    def test_centers_far_from_the_origin(self, tmp_path, d, norm, radii):
        # every coordinate is offset by 1e6, so a screen built from
        # |a|^2 + |b|^2 - 2 a.b would cancel away most of the distance
        base = np.full(d, 1e6)
        step = np.zeros(d)
        step[:2] = 3.0, 4.0  # exact distance 5 (L2) or 7 (L1): a tangent pair
        path = tmp_path / "memory.jsonl"
        store, ref = MemoryStore(), RefStore()
        first = region(base, radii[0], 0, norm=norm)
        insert_both(store, ref, first)
        pred, final, adjusted = insert_both(store, ref,
                                            region(base + step, radii[1], 1, norm=norm))
        assert (pred, final.radius, adjusted) == (1, radii[1], False)
        save_memory(store, path)
        assert load_memory(path) == store
        # move the second center 64 ulps closer: an overlap of a few 1e-9
        step[0] -= 64 * math.ulp(1e6)
        store, ref = MemoryStore(), RefStore()
        insert_both(store, ref, first)
        second = region(base + step, radii[1], 1, norm=norm)
        pred, final, adjusted = insert_both(store, ref, second)
        assert pred == 1 and adjusted and final.radius < radii[1]
        write_regions(path, [first, second])
        with pytest.raises(MemoryInvariantError, match="regions 0 and 1"):
            load_memory(path)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([0, 3, 8, 150, 160]), st.sampled_from([1, 2, 16]),
           st.sampled_from(["l2", "l1"]))
    @example(294, 160, 1, "l1")  # an absolute 1e-9 slack raised on row 24
    @example(1, 160, 1, "l2")  # ... on row 36
    @example(110, 150, 2, "l2")  # ... on row 49
    def test_translated_stores_match(self, seed, k, d, norm):
        # far from the origin |c_i|^2 + |c|^2 - 2 c_i.c cancels (10**8) or its
        # terms pass 1e300 and overflow (10**150, 10**160), and each probe
        # meets several entries, so the screen's slack, its overflow guard
        # and the re-screen after each adjustment are all exercised
        store, ref = MemoryStore(), RefStore()
        for r in translated_regions(np.random.default_rng(seed), k, d, norm, 40):
            if insert_both_or_raise(store, ref, r) is None:
                break

    @pytest.mark.parametrize("norm", ["l2", "l1"])
    @pytest.mark.parametrize("d", [1, 2, 16])
    @pytest.mark.parametrize("k", [0, 3, 8, 150, 160])
    def test_translated_stores_override_and_shrink(self, k, d, norm):
        store, ref = MemoryStore(), RefStore()
        overrides = shrinks = 0
        for r in translated_regions(np.random.default_rng(0), k, d, norm, 40):
            pred, final, _ = insert_both(store, ref, r)  # the invariant holds here
            overrides += pred != r.prediction
            shrinks += pred == r.prediction and final.radius < r.radius
        assert overrides > 0 and shrinks > 0

    def test_shrink_after_override_by_an_entry_of_the_original_prediction(
            self, tmp_path):
        # entry 1 predicts what the candidate first predicts and overlaps
        # entry 0 by one ulp of 2.0, below the load test's slack; after entry 0
        # overrides the candidate, entry 1 disagrees with it and shrinks it by that ulp
        path = tmp_path / "memory.jsonl"
        write_regions(path, [region((0.0, 0.0), 1.0, 0),
                             region((2.0 - math.ulp(2.0), 0.0), 1.0, 1)])
        store = load_memory(path)
        ref = RefStore(store.regions)
        pred, final, adjusted = insert_both(store, ref, region((0.5, 0.0), 1.0, 1))
        assert pred == 0 and adjusted
        assert 0.5 - 1e-9 < final.radius < 0.5
        assert store.overlap_events == 2

    def test_touch_after_override_keeps_the_invariant_check(self):
        # a broken store (entry 2 overlaps entry 0): entry 0 overrides the
        # candidate, entry 1 shrinks it by less than the slack, and
        # entry 2 must still trip the check, as in the reference scan
        regions = [region((0.0, 0.0), 1.0, 0), region((2.0 - math.ulp(2.0), 0.0), 1.0, 1),
                   region((0.5, 0.3), 0.2, 1)]
        store = MemoryStore()
        for r in regions:
            store._append(r)
        cand = region((0.5, 0.0), 1.0, 1)
        with pytest.raises(MemoryInvariantError):
            ref_insert(RefStore(regions), cand)
        with pytest.raises(MemoryInvariantError):
            memory_insert(store, cand)

    @pytest.mark.parametrize("norm", ["l2", "l1"])
    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_planted_overlap_names_the_same_pair(self, tmp_path, d, norm):
        rng = np.random.default_rng(7 * d + len(norm))
        store = MemoryStore()
        for r in crowded_regions(rng, d, norm, 120):
            memory_insert(store, r)
        regions = list(store.regions)
        path = tmp_path / "memory.jsonl"
        write_regions(path, regions)
        assert load_memory(path) == store
        # plant a region over a stored one, with another prediction
        k, m = sorted(rng.choice(len(regions), size=2, replace=False).tolist())
        regions[m] = replace(regions[k], prediction=regions[k].prediction + 1,
                             radius=regions[k].radius + 0.1)
        expected = ref_first_overlap(regions)
        assert expected is not None
        write_regions(path, regions)
        with pytest.raises(MemoryInvariantError) as exc:
            load_memory(path)
        assert str(exc.value) == expected

    def test_degenerate_first_coordinate_is_checked_in_bounded_memory(
            self, tmp_path):
        # every center shares x0, so the sweep yields all N(N-1)/2 pairs
        rng = np.random.default_rng(3)
        n, d = 2000, 16
        centers = np.zeros((n, d))
        centers[:, 1:] = rng.normal(size=(n, d - 1)) * 100.0
        regions = [region(c, 0.5, i % 3) for i, c in enumerate(centers)]
        path = tmp_path / "memory.jsonl"
        write_regions(path, regions)
        tracemalloc.start()
        try:
            store = load_memory(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(store) == n
        assert peak < 64 * 2**20
        regions[-1] = replace(regions[5], prediction=regions[5].prediction + 1)
        write_regions(path, regions)
        with pytest.raises(MemoryInvariantError,
                           match=f"regions 5 and {n - 1} predict"):
            load_memory(path)

    def test_all_overlap_store_is_checked_in_bounded_memory(self, tmp_path):
        # every pair overlaps and neighbours disagree: one sweep offset per
        # region, each holding nearly every remaining pair as a candidate
        rng = np.random.default_rng(4)
        n, d = 2000, 16
        regions = [region(c, 10.0, i % 2) for i, c in enumerate(rng.normal(size=(n, d)))]
        path = tmp_path / "memory.jsonl"
        write_regions(path, regions)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryInvariantError,
                               match="regions 0 and 1 predict differently but overlap"):
                load_memory(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("norm", ["l2", "l1"])
    def test_coordinates_near_the_float_range_screen_silently(self, tmp_path, norm):
        # differences of these centers overflow to inf in the numpy screens
        big = 1.7976931348623157e308
        disjoint = [region((big, -big), 1.0, 0, norm=norm),
                    region((-big, big), 1.0, 1, norm=norm),
                    region((0.0, 0.0), 1e300, 2, norm=norm)]
        path = tmp_path / "memory.jsonl"
        for regions in (disjoint, disjoint + [region((big, -big), 0.5, 1, norm=norm)]):
            write_regions(path, regions)
            expected = ref_first_overlap(regions)
            if expected is None:
                assert load_memory(path).regions == regions
            else:
                assert expected == "regions 0 and 3 predict differently but overlap"
                with pytest.raises(MemoryInvariantError, match=f"^{expected}$"):
                    load_memory(path)
        store, ref = MemoryStore(), RefStore()
        for r in disjoint + [region((big, big), big, 0, norm=norm),
                             region((-big, -big), 2.0, 1, norm=norm),
                             region((-big, big), 0.5, 0, norm=norm)]:
            insert_both(store, ref, r)


def scaled(regions, factor):
    return [replace(r, center=tuple(factor * np.asarray(r.center)), radius=factor * r.radius)
            for r in regions]


def insert_all(regions):
    """The store after inserting ``regions`` in order, (prediction, radius,
    adjusted, overlap events) after each insert, and whether an insert raised."""
    store, steps = MemoryStore(), []
    try:
        for r in regions:
            pred, final, adjusted = memory_insert(store, r)
            steps.append((pred, final.radius, adjusted, store.overlap_events))
    except MemoryInvariantError:
        return store, steps, True
    return store, steps, False


class TestScaleFree:
    @pytest.mark.parametrize("norm", ["l2", "l1"])
    @pytest.mark.parametrize("d", [2, 16])
    def test_power_of_two_scaling_changes_no_decision(self, d, norm):
        # scaling by 2**k is exact, so every overlap decision, and any raise,
        # must be the same at each scale, with radii scaled exactly
        for seed in range(20):
            base = crowded_regions(np.random.default_rng(seed), d, norm, 80)
            outcomes = []
            for k in (-200, -40, 23, 60, 200):
                _, steps, raised = insert_all(scaled(base, 2.0**k))
                outcomes.append(([(p, r * 2.0**-k, a, e) for p, r, a, e in steps], raised))
            assert all(o == outcomes[0] for o in outcomes), seed

    @pytest.mark.parametrize("norm", ["l2", "l1"])
    @pytest.mark.parametrize("d", [1, 2, 16])
    @pytest.mark.parametrize("kind,k", [("crowded", 4), ("crowded", 7), ("crowded", 8),
                                        ("crowded", 10), ("translated", 150),
                                        ("translated", 160)])
    def test_stores_far_from_unit_scale_insert_and_reload(self, tmp_path, kind, k, d, norm):
        # crowded regions scaled by 10**k, or small ones moved by 10**k
        path = tmp_path / "memory.jsonl"
        for seed in range(10):
            rng = np.random.default_rng(seed)
            regions = (scaled(crowded_regions(rng, d, norm, 60), 10.0**k) if kind == "crowded"
                       else translated_regions(rng, k, d, norm, 40))
            store, _, raised = insert_all(regions)
            assert not raised, seed
            save_memory(store, path)
            assert load_memory(path) == store, seed


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

    @pytest.mark.parametrize("prediction", ["1.7", "true", '"1"'])
    def test_non_integer_prediction_names_line(self, tmp_path, prediction):
        path = tmp_path / "memory.jsonl"
        path.write_text(
            '{"center": [0.0], "radius": 1.0, "prediction": 0, '
            '"sigma": 0.25, "norm": "l2"}\n'
            f'{{"center": [5.0], "radius": 1.0, "prediction": {prediction}, '
            '"sigma": 0.25, "norm": "l2"}\n')
        with pytest.raises(ValueError, match="line 2.*JSON integer"):
            load_memory(path)

    @pytest.mark.parametrize("name,value", [
        ("center", '"12"'), ("center", "[true, 2]"), ("center", "[]"), ("center", "1.0"),
        ("radius", "true"), ("radius", '"1.0"'), ("sigma", '"0.2"'), ("sigma", "false"),
        ("prediction", str(2**63)),
    ])
    def test_wrong_json_type_names_line(self, tmp_path, name, value):
        fields = {"center": "[5.0, 2.0]", "radius": "1.0", "prediction": "1",
                  "sigma": "0.25", name: value}
        path = tmp_path / "memory.jsonl"
        path.write_text(
            '{"center": [0.0, 0.0], "radius": 1.0, "prediction": 0, '
            '"sigma": 0.25, "norm": "l2"}\n'
            "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + ', "norm": "l2"}\n')
        with pytest.raises(ValueError, match=f"line 2: {name} must"):
            load_memory(path)

    @pytest.mark.parametrize("second,message", [
        ('"center": [5.0, 0.0, 0.0], "norm": "l2"', "dimension mismatch: 2 vs 3"),
        ('"center": [5.0, 0.0], "norm": "l1"', "norm mismatch: 'l2' vs 'l1'"),
    ])
    def test_mixed_norms_or_dimensions_name_path_and_line(self, tmp_path, second,
                                                         message):
        path = tmp_path / "memory.jsonl"
        path.write_text(
            '{"center": [0.0, 0.0], "radius": 1.0, "prediction": 0, '
            '"sigma": 0.25, "norm": "l2"}\n\n'
            f'{{{second}, "radius": 1.0, "prediction": 1, "sigma": 0.25}}\n')
        with pytest.raises(ValueError) as exc:
            load_memory(path)
        assert str(exc.value) == f"{path}: bad region on line 3: {message}"

    @pytest.mark.parametrize("name,value", [
        ("center", f"[1.0, {'9' * 401}]"), ("center", f"[{'9' * 401}, -{'9' * 401}]"),
        ("radius", "9" * 401), ("sigma", "9" * 401),
    ], ids=["center", "center-cancelling", "radius", "sigma"])
    def test_integer_beyond_float_range_names_line(self, tmp_path, name, value):
        fields = {"center": "[5.0, 2.0]", "radius": "1", "sigma": "1", name: value}
        path = tmp_path / "memory.jsonl"
        path.write_text(
            '{"center": [0.0, 0.0], "radius": 1.0, "prediction": 0, '
            '"sigma": 0.25, "norm": "l2"}\n'
            "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items())
            + ', "prediction": 1, "norm": "l2"}\n')
        with pytest.raises(ValueError) as exc:
            load_memory(path)
        assert str(exc.value).startswith(f"{path}: bad region on line 2: ")

    def test_finite_values_whose_sum_overflows_load(self, tmp_path):
        big = 1.7976931348623157e308
        path = tmp_path / "memory.jsonl"
        path.write_text(
            f'{{"center": [{big!r}, {big!r}], "radius": {big!r}, "prediction": 0, '
            f'"sigma": {big!r}, "norm": "l2"}}\n'
            '{"center": [3, -4], "radius": 1, "prediction": 0, "sigma": 0, "norm": "l2"}\n')
        assert load_memory(path).regions == [region((big, big), big, 0, sigma=big),
                                             region((3.0, -4.0), 1.0, 0, sigma=0.0)]

    def test_bad_value_before_an_unparsable_line_is_named_first(self, tmp_path):
        path = tmp_path / "memory.jsonl"
        path.write_text(
            '{"center": [0.0], "radius": -1.0, "prediction": 0, '
            '"sigma": 0.25, "norm": "l2"}\n'
            'not json\n')
        with pytest.raises(ValueError, match="line 1: .*radius >= 0"):
            load_memory(path)

    def test_lines_that_join_into_valid_json_are_rejected(self, tmp_path):
        # joined as "[" + ",".join(lines) + "]" these three lines are three
        # valid objects; line by line, line 1 is cut short
        good = '{"center": [5.0], "radius": 0.1, "prediction": 1, "sigma": 0.1, "norm": "l2"}'
        path = tmp_path / "memory.jsonl"
        path.write_text('{"center": [0.0], "radius": 0.1, "prediction": 0, "sigma": 0.1, '
                        '"norm": "l2", "x": [{}\n{}]}\n' + good + ", " + good + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_memory(path)
        assert str(exc.value) == (f"{path}: bad region on line 1: "
                                  "Expecting ',' delimiter: line 2 column 1 (char 87)")

    @pytest.mark.parametrize("space", ["\x0b", "\u00a0", "\u2003"])
    def test_whitespace_that_json_does_not_accept(self, tmp_path, space):
        # str.strip removes these characters but JSON does not: a line of them
        # alone is blank, a region wrapped in them does not parse
        path = tmp_path / "memory.jsonl"
        path.write_text(_GOOD.format("0.0", 0) + f"\n{space}\n" + _GOOD.format("5.0", 1) + "\n",
                        encoding="utf-8")
        assert len(load_memory(path)) == 2
        path.write_text(space + _GOOD.format("0.0", 0) + space + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_memory(path)
        assert str(exc.value) == (f"{path}: bad region on line 1: "
                                  "Expecting value: line 1 column 1 (char 0)")

    @pytest.mark.parametrize("name,value", [
        ("center", "[Infinity]"), ("center", "[-1e400]"), ("radius", "Infinity"),
        ("sigma", "-Infinity"), ("sigma", "NaN")])
    def test_non_finite_values_name_line(self, tmp_path, name, value):
        fields = {"center": "[5.0]", "radius": "1.0", "sigma": "0.25", name: value}
        path = tmp_path / "memory.jsonl"
        path.write_text(_GOOD.format("0.0", 0) + "\n{" + ", ".join(
            f'"{k}": {v}' for k, v in fields.items()) + ', "prediction": 1, "norm": "l2"}\n')
        with pytest.raises(ValueError, match="line 2: center, radius and sigma must be finite"):
            load_memory(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("line", LINE_VARIANTS + [
        "\ufeff" + _GOOD.format("0.0", 0), _GOOD.format("0.0", 0) + " x",
        "\x0c" + _GOOD.format("0.0", 0)])
    def test_a_line_fails_as_json_loads_or_the_row_check_does(self, tmp_path, line, newline):
        path = tmp_path / "memory.jsonl"
        path.write_bytes((line + newline).encode())
        if not line.strip():
            assert len(load_memory(path)) == 0
            return
        try:  # universal newlines end every line read with "\n"
            row = _checked_row(json.loads(line + "\n"), None)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            with pytest.raises(ValueError) as got:
                load_memory(path)
            assert str(got.value) == f"{path}: bad region on line 1: {exc}"
        else:
            center, radius, prediction, sigma, norm = row
            assert load_memory(path).regions == [region(center, radius, prediction, sigma, norm)]

    def test_a_deeply_nested_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "memory.jsonl"
        path.write_text(_GOOD.format("0.0", 0) + "\n" + "[" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_memory(path)
        assert str(exc.value).startswith(f"{path}: bad region on line 2: maximum recursion depth")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("name", FILE_VARIANTS)
    def test_a_pipe_loads_as_the_file_does(self, tmp_path, name):
        path = tmp_path / "memory.jsonl"
        path.write_text(FILE_VARIANTS[name], encoding="utf-8")
        r, w = os.pipe()
        try:
            with os.fdopen(w, "wb") as fh:  # the file fits in the pipe's buffer
                fh.write(path.read_bytes())
            piped = load_outcome(f"/dev/fd/{r}")
        finally:
            os.close(r)
        expected = load_outcome(path)
        if name == "valid":
            assert piped == expected and len(expected) == 2
        else:
            assert expected[0] is (MemoryInvariantError if name == "overlap" else ValueError)
            assert piped == (expected[0], expected[1].replace(f"{path}: ", f"/dev/fd/{r}: "))

    @pytest.mark.parametrize("name", FILE_VARIANTS)
    def test_each_load_opens_the_file_once(self, tmp_path, name):
        path = tmp_path / "memory.jsonl"
        path.write_text(FILE_VARIANTS[name], encoding="utf-8")
        opened, real_open = [], builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        with mock.patch("builtins.open", counting_open):
            load_outcome(path)
        assert opened == [path]

    def test_file_format_is_pinned(self, tmp_path):
        l2, l1 = MemoryStore(), MemoryStore()
        memory_insert(l2, region((0.1, -2.0), 0.1 + 0.2, 1, sigma=0.25))
        memory_insert(l2, region((1e16, 1e-07), 2.0, 0, sigma=1.0 / 3.0))
        memory_insert(l1, region((-0.0, 3.5, 7.0), 0.0, 2, sigma=2.0, norm="l1"))
        memory_insert(l1, region((0.5, 3.5, 7.0), 1.25, 0, sigma=0.5, norm="l1"))
        expected = [
            (l2, '{"center": [0.1, -2.0], "radius": 0.30000000000000004, '
                '"prediction": 1, "sigma": 0.25, "norm": "l2"}\n'
                '{"center": [1e+16, 1e-07], "radius": 2.0, "prediction": 0, '
                '"sigma": 0.3333333333333333, "norm": "l2"}\n'),
            (l1, '{"center": [-0.0, 3.5, 7.0], "radius": 0.0, "prediction": 2, '
                '"sigma": 2.0, "norm": "l1"}\n'
                '{"center": [0.5, 3.5, 7.0], "radius": 0.5, "prediction": 0, '
                '"sigma": 0.5, "norm": "l1"}\n'),
        ]
        for store, text in expected:
            path = tmp_path / "memory.jsonl"
            save_memory(store, path)
            assert path.read_bytes() == text.encode()
            assert load_memory(path) == store

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(min_value=1, max_value=16),
           st.sampled_from(["l2", "l1"]), st.integers(min_value=1, max_value=5))
    def test_writer_matches_json_dumps(self, tmp_path_factory, data, d, norm, n):
        special = st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308])
        value = special | st.floats(allow_nan=False, allow_infinity=False)
        size = special | st.floats(min_value=0.0, allow_infinity=False)
        regions = [CertifiedRegion(
            tuple(data.draw(st.lists(value, min_size=d, max_size=d))), data.draw(size),
            data.draw(st.integers(min_value=0, max_value=2**63 - 1)), data.draw(value),
            norm) for _ in range(n)]
        store = MemoryStore()
        for r in regions:
            store._append(r)
        path = tmp_path_factory.mktemp("writer") / "memory.jsonl"
        save_memory(store, path)
        assert path.read_bytes() == "".join(
            json.dumps({"center": list(r.center), "radius": r.radius,
                        "prediction": r.prediction, "sigma": r.sigma_used,
                        "norm": norm}) + "\n" for r in regions).encode()
        expected = ref_first_overlap(regions)
        if expected is None:
            assert load_memory(path) == store
        else:
            with pytest.raises(MemoryInvariantError) as exc:
                load_memory(path)
            assert str(exc.value) == expected

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
        report = audit(store)
        assert report["overlap_events"] == 0
        assert report["comparisons"] == 45
