"""Region memory keeping differently-predicted certified balls disjoint.

Each certified input is stored as a closed ball. New regions are compared
against the stored regions in insertion order: a center falling inside a
differently-predicted ball has its prediction overridden and its region
shrunk to the largest ball inside both; a mere overlap shrinks the region to
the largest ball clear of the obstacle. Same-prediction overlaps are left
untouched. Boundary contact does not count as overlap, which maximizes the
retained radius and keeps the shrink formulas exact. ``_shrink`` is the one
place this rule is written; ``memory_insert`` and the ``largest_*_subset``
helpers all apply it.

The formulas hold for L2 and L1 balls in any dimension: by the triangle
inequality a ball of radius R - ||c - c'|| at c' lies inside the ball of
radius R at c, and balls with ||c - c'|| >= r + r' share no interior point.

The store keeps its regions only as numpy arrays; ``CertifiedRegion``
objects exist only where regions enter or leave it. A memory file is read in
one pass that checks each line in full as it is read, and written one
formatted line per region. Every overlap decision is made in two steps. A
vectorised numpy screen over the stored centers and radii keeps the entries
that could touch, with a margin of ``_SCREEN_EPS`` (relative and absolute)
that covers the rounding gap between numpy and ``math.dist``; the exact
scalar test then runs over those entries only, in insertion order (on
insert) or in (i, j) order (on load), so the results equal those of a full
scalar scan.
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

_NUMBERS = {int, float}  # the types json gives JSON numbers; bool is not one


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


def _distance(u, v, norm: str) -> float:
    if norm == NORM_L2:
        return math.dist(u, v)
    return sum(abs(a - b) for a, b in zip(u, v))


def _row_distances(diff: np.ndarray, norm: str) -> np.ndarray:
    """Norm of each row of ``diff``."""
    if norm == NORM_L2:
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return np.abs(diff).sum(axis=1)


def _within(dist: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Screen: True wherever the exact distance may be <= limit.

    An infinite numpy distance (squares overflowing) is kept, since the exact
    distance may still be finite; callers silence the overflow warnings.
    """
    return (dist <= limit * (1.0 + _SCREEN_EPS) + _SCREEN_EPS) | np.isinf(dist)


def _check_compatible(a: tuple[str, int], b: tuple[str, int]) -> None:
    """Raise unless two (norm, dim) pairs agree."""
    if a[0] != b[0]:
        raise ValueError(f"norm mismatch: {a[0]!r} vs {b[0]!r}")
    if a[1] != b[1]:
        raise ValueError(f"dimension mismatch: {a[1]} vs {b[1]}")


def _shrink(d: float, r_entry: float, radius: float) -> tuple[float, bool] | None:
    """The overlap rule for a region of ``radius`` whose center lies at
    distance ``d`` from a differently-predicted entry of radius ``r_entry``.

    Returns (new radius, whether the region takes the entry's prediction), or
    None when the two balls do not overlap. A center inside the entry keeps
    min(radius, r_entry - d); any other overlap keeps min(radius, d - r_entry).
    """
    if d <= r_entry:
        return max(0.0, min(radius, r_entry - d)), True
    if d < r_entry + radius:
        return max(0.0, min(radius, d - r_entry)), False
    return None


def largest_in_subset(outer: CertifiedRegion, cand: CertifiedRegion) -> float:
    """Radius of the largest ball at cand.center inside both outer and cand.

    Requires cand.center to lie in the outer ball; the answer is
    min(cand.radius, outer.radius - distance).
    """
    _check_compatible((outer.norm, outer.dim), (cand.norm, cand.dim))
    d = _distance(outer.center, cand.center, outer.norm)
    if d > outer.radius:
        raise ValueError(
            f"candidate center lies outside the outer ball (distance {d} > "
            f"radius {outer.radius})")
    return _shrink(d, outer.radius, cand.radius)[0]


def largest_out_subset(obstacle: CertifiedRegion, cand: CertifiedRegion) -> float:
    """Radius of the largest ball at cand.center inside cand but clear of obstacle.

    Requires cand.center to lie outside the obstacle; the answer is
    min(cand.radius, distance - obstacle.radius).
    """
    _check_compatible((obstacle.norm, obstacle.dim), (cand.norm, cand.dim))
    d = _distance(obstacle.center, cand.center, obstacle.norm)
    if d <= obstacle.radius:
        raise ValueError(
            f"candidate center lies inside the obstacle (distance {d} <= "
            f"radius {obstacle.radius})")
    shrunk = _shrink(d, obstacle.radius, cand.radius)
    return cand.radius if shrunk is None else shrunk[0]


class MemoryStore:
    """Ordered region collection; single-writer, cross-prediction disjoint.

    The record is four arrays in insertion order, grown by doubling:
    centers (N, d), radii, predictions and sigmas, plus the one ``norm`` of
    the store (None while it is empty). ``regions`` builds the list of
    ``CertifiedRegion`` from them on each access. Only ``memory_insert``
    (through ``_append``) and ``load_memory`` write.

    Insertions are strictly serialized because overlap handling is order
    sensitive; reads may run concurrently between insertions.
    """

    def __init__(self):
        self.norm: str | None = None
        self._size = 0
        self._centers = np.empty((0, 0))
        self._radii = np.empty(0)
        self._preds = np.empty(0, dtype=np.int64)
        self._sigmas = np.empty(0)
        self.insertions = 0
        self.comparisons = 0
        self.overlap_events = 0
        self.adjusted_insertions = 0

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other) -> bool:
        if not isinstance(other, MemoryStore):
            return NotImplemented
        return self.regions == other.regions

    @property
    def dim(self) -> int | None:
        return self._centers.shape[1] if self._size else None

    @property
    def regions(self) -> list[CertifiedRegion]:
        """The stored regions in insertion order, built from the arrays."""
        return [CertifiedRegion(tuple(c), r, p, s, self.norm)
                for c, r, p, s in self._rows()]

    def _rows(self):
        """(center list, radius, prediction, sigma) per region, as Python scalars."""
        n = self._size
        return zip(self._centers[:n].tolist(), self._radii[:n].tolist(),
                   self._preds[:n].tolist(), self._sigmas[:n].tolist())

    def _append(self, region: CertifiedRegion) -> None:
        n = self._size
        if n == len(self._radii):
            capacity = max(16, 2 * n)
            self._centers = np.resize(self._centers, (capacity, region.dim))
            self._radii, self._preds, self._sigmas = (
                np.resize(v, capacity) for v in (self._radii, self._preds, self._sigmas))
        self._centers[n] = region.center
        self._radii[n] = region.radius
        self._preds[n] = region.prediction
        self._sigmas[n] = region.sigma_used
        self.norm = region.norm
        self._size = n + 1


@np.errstate(over="ignore", invalid="ignore")
def memory_insert(store: MemoryStore, region: CertifiedRegion
                  ) -> tuple[int, CertifiedRegion, bool]:
    """Insert a freshly certified region, shrinking it against the memory.

    Scans stored regions in insertion order, applying ``_shrink`` to each
    differently-predicted entry: a new center inside the entry takes the
    entry's prediction and shrinks to the largest ball inside both; any other
    overlap shrinks the region to the largest ball clear of the entry.
    Returns (final prediction, final region, adjusted).

    Only entries within r_entry + r of the new center can act (the region
    only shrinks), so the scan visits just the entries the screen keeps. The
    screen ignores predictions, because an override changes the prediction
    mid-scan. ``comparisons`` still counts every stored region.
    """
    n = len(store)
    hits = []
    if n:
        _check_compatible((store.norm, store.dim), (region.norm, region.dim))
        dist = _row_distances(store._centers[:n] - np.asarray(region.center),
                              region.norm)
        hits = np.flatnonzero(_within(dist, store._radii[:n] + region.radius))
    store.comparisons += n
    radius, prediction = region.radius, region.prediction
    adjusted = overridden = False
    for center, r_entry, p_entry in zip(store._centers[hits].tolist(),
                                        store._radii[hits].tolist(),
                                        store._preds[hits].tolist()):
        if p_entry == prediction:
            continue
        shrunk = _shrink(_distance(center, region.center, region.norm), r_entry, radius)
        if shrunk is None:
            continue
        new_r, inside = shrunk
        if overridden and new_r < radius - _INVARIANT_TOL:
            raise MemoryInvariantError(
                "a second differently-predicted entry forced shrinking "
                "after a prediction override; the store invariant is broken")
        radius = new_r
        if inside:  # center inside: take the entry's prediction
            prediction, overridden = p_entry, True
        adjusted = True
        store.overlap_events += 1
    cand = replace(region, radius=radius, prediction=prediction) if adjusted else region
    store._append(cand)
    store.insertions += 1
    if adjusted:
        store.adjusted_insertions += 1
    return cand.prediction, cand, adjusted


@np.errstate(over="ignore", invalid="ignore")
def _validate_invariant(store: MemoryStore) -> None:
    """Raise on the first pair (i < j) of overlapping differently-predicted regions.

    Both norms bound |x0 - x0'|, so only pairs whose first-coordinate
    intervals [x0 - r, x0 + r] (padded against rounding) meet can overlap;
    sorted by lower end, positions a and a+k meet for k <= reach[a]. One
    numpy screen per offset k over the pairs (a, a+k) keeps temporaries O(N);
    the exact test runs over its survivors in (i, j) order, and only pairs
    before the first overlap found so far stay in play.
    """
    n, norm = len(store), store.norm
    if n < 2:
        return
    centers, radii, preds = store._centers[:n], store._radii[:n], store._preds[:n]
    x0 = centers[:, 0]
    pad = _SCREEN_EPS * (np.abs(x0) + radii + 1.0)
    order = np.argsort(x0 - radii - pad)
    centers, radii, preds, x0, pad = (v[order] for v in (centers, radii, preds, x0, pad))
    reach = (np.searchsorted(x0 - radii - pad, x0 + radii + pad, side="right")
             - np.arange(1, n + 1))
    first: tuple[int, int] | None = None
    a, k = np.flatnonzero(reach > 0), 1
    while a.size:  # sorted positions a and a + k
        s = a[preds[a] != preds[a + k]]
        s = s[_within(_row_distances(centers[s] - centers[s + k], norm),
                      radii[s] + radii[s + k] - _INVARIANT_TOL)]
        i, j = np.minimum(order[s], order[s + k]), np.maximum(order[s], order[s + k])
        if first is not None:
            ahead = (i < first[0]) | ((i == first[0]) & (j < first[1]))
            s, i, j = s[ahead], i[ahead], j[ahead]
        for pair, p in sorted(zip(zip(i.tolist(), j.tolist()), s.tolist())):
            if (_distance(centers[p].tolist(), centers[p + k].tolist(), norm)
                    < radii[p] + radii[p + k] - _INVARIANT_TOL):
                first = pair
                break
        k += 1
        a = a[reach[a] >= k]
    if first is not None:
        raise MemoryInvariantError(
            f"regions {first[0]} and {first[1]} predict differently but overlap")


def save_memory(store: MemoryStore, path) -> None:
    """Write the store as one JSON object per line, formatted directly: ``repr``
    of the finite floats the store holds gives the bytes ``json.dumps`` would."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f'{{"center": {c!r}, "radius": {r!r}, "prediction": {p}, '
                      f'"sigma": {s!r}, "norm": "{store.norm}"}}\n'
                      for c, r, p, s in store._rows())


def _checked_row(obj: dict, first: tuple | None) -> tuple:
    """(center, radius, prediction, sigma, norm) of a memory-file line, checked
    in full: JSON types, norm and dimension against ``first``, then finite
    values and radius >= 0."""
    row = center, radius, pred, sigma, norm = (
        obj["center"], obj["radius"], obj["prediction"], obj["sigma"], obj["norm"])
    if type(pred) is not int or not 0 <= pred < 2**63:  # stored as int64
        raise ValueError(f"prediction must be a JSON integer in [0, 2**63), got {pred!r}")
    if type(center) is not list or not center or not {*map(type, center)} <= _NUMBERS:
        raise ValueError("center must be a non-empty JSON array of numbers, got "
                         f"{center!r}")
    for name, value in (("radius", radius), ("sigma", sigma)):
        if type(value) not in _NUMBERS:
            raise ValueError(f"{name} must be a JSON number, got {value!r}")
    if norm not in (NORM_L2, NORM_L1):
        raise ValueError(f"unknown norm {norm!r}")
    first = first or row
    if norm != first[4] or len(center) != len(first[0]):
        _check_compatible((first[4], len(first[0])), (norm, len(center)))
    if not all(map(math.isfinite, (*center, radius, sigma))) or radius < 0:
        raise ValueError("center, radius and sigma must be finite and radius >= 0, "
                         f"got {row[:4]}")
    return row


def load_memory(path) -> MemoryStore:
    """Read a JSON-lines memory file, re-validating the no-overlap invariant.

    One pass checks each line in full as it is read (JSON types, the first
    line's norm and dimension, finite values, radius >= 0; an integer beyond
    float range fails too) and raises on the first bad line, naming path and
    line. Then the first overlapping differently-predicted pair (i < j) is named.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                if line.strip():
                    rows.append(_checked_row(json.loads(line), rows[0] if rows else None))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}: bad region on line {lineno}: {exc}") from exc
    store = MemoryStore()
    if rows:
        centers, radii, preds, sigmas, norms = zip(*rows)
        store._centers, store._radii, store._sigmas = (
            np.asarray(v, dtype=float) for v in (centers, radii, sigmas))
        store._preds = np.asarray(preds, dtype=np.int64)
        store.norm, store._size = norms[0], len(rows)
    _validate_invariant(store)
    return store


def audit(store: MemoryStore, cert_sample_cost: int = 100_000) -> dict:
    """Overlap and cost report for the current store.

    ``predicted_cost`` evaluates the expected per-insert work
    N*p + (1-p)*(2N + n) at the observed overlap frequency p, where N is the
    store size and n the Monte Carlo cost of one certification.
    """
    n_regions = len(store)
    p = (store.adjusted_insertions / store.insertions) if store.insertions else 0.0
    cost = n_regions * p + (1.0 - p) * (2.0 * n_regions + cert_sample_cost)
    return {
        "overlap_events": store.overlap_events,
        "comparisons": store.comparisons,
        "predicted_cost": cost,
    }
