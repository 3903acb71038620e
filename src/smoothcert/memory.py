"""Region memory keeping differently-predicted certified balls disjoint.

Each certified input is stored as a closed ball. New regions are compared
against every stored region in insertion order: a center falling inside a
differently-predicted ball has its prediction overridden and its region
shrunk to the largest ball inside both; a mere overlap shrinks the region to
the largest ball clear of the obstacle. Same-prediction overlaps are left
untouched. Boundary contact does not count as overlap, which maximizes the
retained radius and keeps the shrink formulas exact.

The formulas hold for L2 and L1 balls in any dimension: by the triangle
inequality a ball of radius R - ||c - c'|| at c' lies inside the ball of
radius R at c, and balls with ||c - c'|| >= r + r' share no interior point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

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

    Insertions are strictly serialized because overlap handling is order
    sensitive; reads may run concurrently between insertions.
    """

    def __init__(self):
        self.regions: list[CertifiedRegion] = []
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


def memory_insert(store: MemoryStore, region: CertifiedRegion
                  ) -> tuple[int, CertifiedRegion, bool]:
    """Insert a freshly certified region, shrinking it against the memory.

    Scans stored regions in insertion order. For each differently-predicted
    entry: if the new center lies inside the entry, the prediction is
    overridden to the entry's and the region shrunk to the largest ball
    inside both; otherwise an overlap shrinks the region to the largest ball
    clear of the entry. Returns (final prediction, final region, adjusted).
    """
    if store.regions:
        _check_compatible(store.regions[0], region)
    cand = region
    adjusted = False
    overridden = False
    for entry in store.regions:
        store.comparisons += 1
        if entry.prediction == cand.prediction:
            continue
        d = _distance(entry, cand)
        if d <= entry.radius:
            new_r = max(0.0, min(cand.radius, entry.radius - d))
            if overridden and new_r < cand.radius - _INVARIANT_TOL:
                raise MemoryInvariantError(
                    "a second differently-predicted entry forced shrinking "
                    "after a prediction override; the store invariant is broken")
            cand = replace(cand, radius=new_r, prediction=entry.prediction)
            adjusted = True
            overridden = True
            store.overlap_events += 1
        elif d < entry.radius + cand.radius:
            new_r = max(0.0, min(cand.radius, d - entry.radius))
            if overridden and new_r < cand.radius - _INVARIANT_TOL:
                raise MemoryInvariantError(
                    "a second differently-predicted entry forced shrinking "
                    "after a prediction override; the store invariant is broken")
            cand = replace(cand, radius=new_r)
            adjusted = True
            store.overlap_events += 1
    store.regions.append(cand)
    store.insertions += 1
    if adjusted:
        store.adjusted_insertions += 1
    return cand.prediction, cand, adjusted


def _validate_invariant(regions: list[CertifiedRegion]) -> None:
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            a, b = regions[i], regions[j]
            if a.prediction == b.prediction:
                continue
            if _distance(a, b) < a.radius + b.radius - _INVARIANT_TOL:
                raise MemoryInvariantError(
                    f"regions {i} and {j} predict differently but overlap")


def save_memory(store: MemoryStore, path) -> None:
    """Write the store as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in store.regions:
            fh.write(json.dumps({"center": list(r.center), "radius": r.radius,
                                 "prediction": r.prediction, "sigma": r.sigma_used,
                                 "norm": r.norm}) + "\n")


def load_memory(path) -> MemoryStore:
    """Read a JSON-lines memory file, re-validating the no-overlap invariant."""
    regions: list[CertifiedRegion] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                region = CertifiedRegion(center=obj["center"], radius=obj["radius"],
                                         prediction=int(obj["prediction"]),
                                         sigma_used=float(obj["sigma"]),
                                         norm=obj["norm"])
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ValueError(f"{path}: bad region on line {lineno}: {exc}") from exc
            if regions:
                _check_compatible(regions[0], region)
            regions.append(region)
    _validate_invariant(regions)
    store = MemoryStore()
    store.regions = regions
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
