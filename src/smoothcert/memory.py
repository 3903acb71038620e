"""Region memory keeping differently-predicted certified balls disjoint.

Each certified input is stored as a closed ball. New regions are compared
against the stored regions in insertion order: a center falling inside a
differently-predicted ball has its prediction overridden and its region
shrunk to the largest ball inside both; a mere overlap shrinks the region to
the largest ball clear of the obstacle. Same-prediction overlaps are left
untouched. Boundary contact does not count as overlap, which maximizes the
retained radius and keeps the shrink formulas exact.

The formulas hold for L2 and L1 balls in any dimension: by the triangle
inequality a ball of radius R - ||c - c'|| at c' lies inside the ball of
radius R at c, and balls with ||c - c'|| >= r + r' share no interior point.

Every decision is made in two steps. A vectorised numpy screen over the
stored centers and radii keeps the entries that could touch, with a margin
of ``_SCREEN_EPS`` (relative and absolute) that covers the rounding gap
between numpy and ``math.dist``; the exact scalar test then runs over those
entries only, in insertion order (on insert) or in (i, j) order (on load),
so the results equal those of a full scalar scan.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "CertifiedRegion",
    "MemoryStore",
    "MemoryInvariantError",
    "intersect",
    "largest_in_subset",
    "largest_out_subset",
    "memory_insert",
    "save_memory",
    "load_memory",
    "audit",
]

NORM_L2 = "l2"
NORM_L1 = "l1"

# Slack used when validating the no-overlap invariant; shrunken radii are
# exact min() formulas, so violations beyond a few ulps indicate real bugs.
_INVARIANT_TOL = 1e-9

# Screen margin. numpy's sum of squares (or of absolute values) differs from
# math.dist and the scalar L1 sum by a few ulps per coordinate, far below
# this in any dimension under 10^6.
_SCREEN_EPS = 1e-9

# Candidate pairs checked per numpy pass in load validation; bounds the
# temporaries to a few (chunk, d) arrays even when every pair is a candidate.
_PAIR_CHUNK = 1 << 13


class MemoryInvariantError(ValueError):
    """The store would contain overlapping differently-predicted regions."""


@dataclass(frozen=True)
class CertifiedRegion:
    """Closed ball with a prediction and the smoothing scale that produced it."""
    center: tuple[float, ...]
    radius: float
    prediction: int
    sigma_used: float
    norm: str = NORM_L2

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (all(map(math.isfinite, self.center)) and math.isfinite(self.radius)
                and math.isfinite(self.sigma_used)):
            raise ValueError(
                "center, radius and sigma_used must be finite, got center="
                f"{self.center}, radius={self.radius}, sigma_used={self.sigma_used}")
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.prediction < 0:
            raise ValueError(f"prediction must be a class index >= 0, got {self.prediction}")
        if self.norm not in (NORM_L2, NORM_L1):
            raise ValueError(f"unknown norm {self.norm!r}")
        if len(self.center) < 1:
            raise ValueError("center must have at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.center)


def _distance(a: CertifiedRegion, b: CertifiedRegion) -> float:
    if a.norm == NORM_L2:
        return math.dist(a.center, b.center)
    return sum(abs(u - v) for u, v in zip(a.center, b.center))


def _row_distances(diff: np.ndarray, norm: str) -> np.ndarray:
    """Norm of each row of ``diff``."""
    if norm == NORM_L2:
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return np.abs(diff).sum(axis=1)


def _within(dist: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Screen: True wherever the exact distance may be <= limit.

    An infinite numpy distance (squares overflowing) is kept, since the exact
    distance may still be finite.
    """
    return (dist <= limit * (1.0 + _SCREEN_EPS) + _SCREEN_EPS) | np.isinf(dist)


def _check_compatible(a: CertifiedRegion, b: CertifiedRegion) -> None:
    if a.norm != b.norm:
        raise ValueError(f"norm mismatch: {a.norm!r} vs {b.norm!r}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def intersect(a: CertifiedRegion, b: CertifiedRegion) -> bool:
    """Whether two closed balls overlap; tangency does not count."""
    _check_compatible(a, b)
    return _distance(a, b) < a.radius + b.radius


def largest_in_subset(outer: CertifiedRegion, cand: CertifiedRegion) -> float:
    """Radius of the largest ball at cand.center inside both outer and cand.

    Requires cand.center to lie in the outer ball; the answer is
    min(cand.radius, outer.radius - distance).
    """
    _check_compatible(outer, cand)
    d = _distance(outer, cand)
    if d > outer.radius:
        raise ValueError(
            f"candidate center lies outside the outer ball (distance {d} > "
            f"radius {outer.radius})")
    return max(0.0, min(cand.radius, outer.radius - d))


def largest_out_subset(obstacle: CertifiedRegion, cand: CertifiedRegion) -> float:
    """Radius of the largest ball at cand.center inside cand but clear of obstacle.

    Requires cand.center to lie outside the obstacle; the answer is
    min(cand.radius, distance - obstacle.radius).
    """
    _check_compatible(obstacle, cand)
    d = _distance(obstacle, cand)
    if d <= obstacle.radius:
        raise ValueError(
            f"candidate center lies inside the obstacle (distance {d} <= "
            f"radius {obstacle.radius})")
    return max(0.0, min(cand.radius, d - obstacle.radius))


class MemoryStore:
    """Ordered region collection; single-writer, cross-prediction disjoint.

    ``regions`` is the record, in insertion order; the centers (N, d) and
    radii (N,) are mirrored in numpy arrays, grown by doubling, for the
    screen. Only ``memory_insert`` and ``load_memory`` add regions.

    Insertions are strictly serialized because overlap handling is order
    sensitive; reads may run concurrently between insertions.
    """

    def __init__(self):
        self.regions: list[CertifiedRegion] = []
        self._centers = np.empty((0, 0))
        self._radii = np.empty(0)
        self.insertions = 0
        self.comparisons = 0
        self.overlap_events = 0
        self.adjusted_insertions = 0

    def __len__(self) -> int:
        return len(self.regions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MemoryStore):
            return NotImplemented
        return self.regions == other.regions

    def _append(self, region: CertifiedRegion) -> None:
        n = len(self.regions)
        if n == len(self._radii):
            capacity = max(16, 2 * n)
            self._centers = np.resize(self._centers, (capacity, region.dim))
            self._radii = np.resize(self._radii, capacity)
        self._centers[n] = region.center
        self._radii[n] = region.radius
        self.regions.append(region)


def memory_insert(store: MemoryStore, region: CertifiedRegion
                  ) -> tuple[int, CertifiedRegion, bool]:
    """Insert a freshly certified region, shrinking it against the memory.

    Scans stored regions in insertion order. For each differently-predicted
    entry: if the new center lies inside the entry, the prediction is
    overridden to the entry's and the region shrunk to the largest ball
    inside both; otherwise an overlap shrinks the region to the largest ball
    clear of the entry. Returns (final prediction, final region, adjusted).

    Only entries within r_entry + r of the new center can act (the region
    only shrinks), so the scan visits just the entries the screen keeps. The
    screen ignores predictions, because an override changes the prediction
    mid-scan. ``comparisons`` still counts every stored region.
    """
    n = len(store.regions)
    hits: list[int] = []
    if n:
        _check_compatible(store.regions[0], region)
        dist = _row_distances(store._centers[:n] - np.asarray(region.center),
                              region.norm)
        hits = np.flatnonzero(_within(dist, store._radii[:n] + region.radius)).tolist()
    store.comparisons += n
    cand = region
    adjusted = False
    overridden = False
    for idx in hits:
        entry = store.regions[idx]
        if entry.prediction == cand.prediction:
            continue
        d = _distance(entry, cand)
        if d <= entry.radius:  # center inside: take the entry's prediction
            new_r, prediction = min(cand.radius, entry.radius - d), entry.prediction
        elif d < entry.radius + cand.radius:
            new_r, prediction = min(cand.radius, d - entry.radius), cand.prediction
        else:
            continue
        new_r = max(0.0, new_r)
        if overridden and new_r < cand.radius - _INVARIANT_TOL:
            raise MemoryInvariantError(
                "a second differently-predicted entry forced shrinking "
                "after a prediction override; the store invariant is broken")
        overridden = overridden or prediction != cand.prediction
        cand = replace(cand, radius=new_r, prediction=prediction)
        adjusted = True
        store.overlap_events += 1
    store._append(cand)
    store.insertions += 1
    if adjusted:
        store.adjusted_insertions += 1
    return cand.prediction, cand, adjusted


def _validate_invariant(store: MemoryStore) -> None:
    """Raise on the first pair (i < j, in index order) of overlapping
    differently-predicted regions.

    Both norms bound |x0 - x0'|, so only pairs whose first-coordinate
    intervals [x0 - r, x0 + r] meet can overlap. A sort and sweep over those
    intervals (padded against rounding) lists the candidate pairs, a numpy
    screen checks them chunk by chunk, and the exact scalar test decides
    over the survivors.
    """
    regions = store.regions
    n = len(regions)
    if n < 2:
        return
    centers, radii = store._centers[:n], store._radii[:n]
    preds = np.fromiter((r.prediction for r in regions), dtype=np.int64, count=n)
    x0 = centers[:, 0]
    pad = _SCREEN_EPS * (np.abs(x0) + radii + 1.0)
    lo, hi = x0 - radii - pad, x0 + radii + pad
    order = np.argsort(lo)
    lo, hi, centers, radii, preds = (v[order] for v in (lo, hi, centers, radii, preds))
    # sorted position a meets positions a+1 .. a+counts[a]
    counts = np.searchsorted(lo, hi, side="right") - np.arange(1, n + 1)
    starts = np.cumsum(counts) - counts
    total = int(counts.sum())
    first: tuple[int, int] | None = None
    for k0 in range(0, total, _PAIR_CHUNK):
        k = np.arange(k0, min(k0 + _PAIR_CHUNK, total))
        a = np.searchsorted(starts, k, side="right") - 1
        b = a + 1 + (k - starts[a])
        differ = preds[a] != preds[b]
        a, b = a[differ], b[differ]
        near = _within(_row_distances(centers[a] - centers[b], regions[0].norm),
                       radii[a] + radii[b] - _INVARIANT_TOL)
        a, b = order[a[near]], order[b[near]]
        for i, j in sorted(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist())):
            if first is not None and (i, j) >= first:
                break
            ra, rb = regions[i], regions[j]
            if _distance(ra, rb) < ra.radius + rb.radius - _INVARIANT_TOL:
                first = (i, j)
                break
    if first is not None:
        raise MemoryInvariantError(
            f"regions {first[0]} and {first[1]} predict differently but overlap")


def save_memory(store: MemoryStore, path) -> None:
    """Write the store as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in store.regions:
            fh.write(json.dumps({"center": list(r.center), "radius": r.radius,
                                 "prediction": r.prediction, "sigma": r.sigma_used,
                                 "norm": r.norm}) + "\n")


def load_memory(path) -> MemoryStore:
    """Read a JSON-lines memory file, re-validating the no-overlap invariant.

    Predictions must be JSON integers; every pair of differently-predicted
    regions is checked, and the first overlapping pair (i < j) is named.
    """
    store = MemoryStore()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if type(obj["prediction"]) is not int:
                    raise ValueError("prediction must be a JSON integer, got "
                                     f"{obj['prediction']!r}")
                region = CertifiedRegion(center=obj["center"], radius=obj["radius"],
                                         prediction=obj["prediction"],
                                         sigma_used=float(obj["sigma"]),
                                         norm=obj["norm"])
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ValueError(f"{path}: bad region on line {lineno}: {exc}") from exc
            if store.regions:
                _check_compatible(store.regions[0], region)
            store._append(region)
    _validate_invariant(store)
    return store


def audit(store: MemoryStore, cert_sample_cost: int = 100_000) -> dict:
    """Overlap and cost report for the current store.

    ``predicted_cost`` evaluates the expected per-insert work
    N*p + (1-p)*(2N + n) at the observed overlap frequency p, where N is the
    store size and n the Monte Carlo cost of one certification.
    """
    n_regions = len(store.regions)
    p = (store.adjusted_insertions / store.insertions) if store.insertions else 0.0
    cost = n_regions * p + (1.0 - p) * (2.0 * n_regions + cert_sample_cost)
    return {
        "overlap_events": store.overlap_events,
        "comparisons": store.comparisons,
        "predicted_cost": cost,
    }
