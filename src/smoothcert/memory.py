"""Region memory keeping differently-predicted certified balls disjoint.

Each certified input is stored as a closed ball. New regions are compared
against the stored regions in insertion order: a center falling inside a
differently-predicted ball has its prediction overridden and its region
shrunk to the largest ball inside both; a mere overlap shrinks the region to
the largest ball clear of the obstacle. Same-prediction overlaps and boundary
contact are left untouched, which keeps the shrink formulas exact; ``_shrink``
is the one place this rule is written. The formulas hold for L2 and L1 balls
in any dimension: by the triangle inequality a ball of radius R - ||c - c'||
at c' lies inside the ball of radius R at c, and balls with
||c - c'|| >= r + r' share no interior point. Stored balls overlap when r + r'
exceeds ||c - c'|| by more than a few ulps of the largest magnitude (``_overlaps``).

The store keeps its regions only as numpy arrays. A memory file is parsed
and checked line by line, and written one formatted line per region. Every
overlap decision is a numpy screen that keeps each entry that could touch,
then the exact scalar test over those in insertion order (on insert) or in
(i, j) order (on load), so results equal a full scalar scan's.
On insert that screen is one matrix-vector product over cached squared norms
(an L2 screen, valid for L1 stores since ||x||_2 <= ||x||_1), and each entry
it keeps is screened again against the region's current radius.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

__all__ = ["CertifiedRegion", "MemoryStore", "MemoryInvariantError", "largest_in_subset",
           "largest_out_subset", "memory_insert", "save_memory", "load_memory", "audit"]

NORM_L2, NORM_L1 = "l2", "l1"

# Screen margin: numpy's distances differ from math.dist and the scalar L1
# sum by a few ulps per coordinate, far below this for d < 10^6. The insert
# screen's slack, 2 eps (|c_i|^2 + |c|^2 + r_i^2 + r^2) + _SCREEN_TINY, bounds
# its cancellation and underflow; a ball with |c|^2 + r^2 > _SCREEN_BIG is
# always a hit, so no sum in the product overflows.
_SCREEN_EPS, _SCREEN_TINY, _SCREEN_BIG = 1e-9, 1e-300, 1e300

_NUMBERS = {int, float}  # the types json gives JSON numbers; bool is not one
_FIELDS = itemgetter("center", "radius", "prediction", "sigma", "norm")
_JSON_WS = " \t\n\r"


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
            raise ValueError("center, radius and sigma_used must be finite, got center="
                             f"{self.center}, radius={self.radius}, sigma_used={self.sigma_used}")
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if not (np.issubdtype(type(pred := self.prediction), np.integer)  # bool is not one
                and 0 <= pred < 2**63):  # the store keeps predictions as int64
            raise ValueError(f"prediction must be an integer in [0, 2**63), got {pred!r}")
        if self.norm not in (NORM_L2, NORM_L1):
            raise ValueError(f"unknown norm {self.norm!r}")
        if len(self.center) < 1:
            raise ValueError("center must have at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.center)


def _distance(u, v, norm: str) -> float:
    return math.dist(u, v) if norm == NORM_L2 else sum(abs(a - b) for a, b in zip(u, v))


def _row_distances(diff: np.ndarray, norm: str) -> np.ndarray:
    """Norm of each row of ``diff``."""
    if norm == NORM_L2:
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return np.abs(diff).sum(axis=1)


def _screen_term(center, radius: float) -> float:
    """|c|^2 (1 - 2 eps) - r^2 (1 + 2 eps), or -inf (always a hit) above _SCREEN_BIG;
    ``MemoryStore._use`` computes the same for many balls."""
    h = math.hypot(*center)
    sq, rr = h * h, radius * radius
    return (sq * (1.0 - 2.0 * _SCREEN_EPS) - rr * (1.0 + 2.0 * _SCREEN_EPS)
            if sq + rr <= _SCREEN_BIG else -math.inf)


def _check_compatible(a: tuple[str, int], b: tuple[str, int]) -> None:
    """Raise unless two (norm, dim) pairs agree."""
    if a[0] != b[0]:
        raise ValueError(f"norm mismatch: {a[0]!r} vs {b[0]!r}")
    if a[1] != b[1]:
        raise ValueError(f"dimension mismatch: {a[1]} vs {b[1]}")


def _shrink(d: float, r_entry: float, radius: float) -> tuple[float, bool] | None:
    """The overlap rule for a region of ``radius`` at distance ``d`` from a
    differently-predicted entry of radius ``r_entry``: (new radius, whether the
    region takes the entry's prediction), or None when the balls do not overlap.
    A center inside the entry keeps min(radius, r_entry - d), else min(radius,
    d - r_entry)."""
    if d <= r_entry:
        return max(0.0, min(radius, r_entry - d)), True
    if d < r_entry + radius:
        return max(0.0, min(radius, d - r_entry)), False
    return None


def _overlaps(d: float, r_a: float, r_b: float, scale: float = 0.0) -> bool:
    """Balls r_a, r_b at distance d overlap by over 4 ulps of max(d, r_a, r_b, scale)."""
    return d < r_a + r_b - 2.0**-50 * max(d, r_a, r_b, scale)


def largest_in_subset(outer: CertifiedRegion, cand: CertifiedRegion) -> float:
    """Radius of the largest ball at cand.center inside both outer and cand:
    min(cand.radius, outer.radius - distance), for cand.center in outer."""
    _check_compatible((outer.norm, outer.dim), (cand.norm, cand.dim))
    d = _distance(outer.center, cand.center, outer.norm)
    if d > outer.radius:
        raise ValueError(f"candidate center lies outside the outer ball (distance {d} > "
                         f"radius {outer.radius})")
    return _shrink(d, outer.radius, cand.radius)[0]


def largest_out_subset(obstacle: CertifiedRegion, cand: CertifiedRegion) -> float:
    """Radius of the largest ball at cand.center inside cand but clear of obstacle:
    min(cand.radius, distance - obstacle.radius), for cand.center outside it."""
    _check_compatible((obstacle.norm, obstacle.dim), (cand.norm, cand.dim))
    d = _distance(obstacle.center, cand.center, obstacle.norm)
    if d <= obstacle.radius:
        raise ValueError(f"candidate center lies inside the obstacle (distance {d} <= "
                         f"radius {obstacle.radius})")
    shrunk = _shrink(d, obstacle.radius, cand.radius)
    return cand.radius if shrunk is None else shrunk[0]


class MemoryStore:
    """Ordered region collection; single-writer, cross-prediction disjoint.

    The record is three arrays in insertion order, grown by doubling: the
    column-major ``_screen`` (N, d + 2) of centers, radii and ``_screen_term``
    (``_centers`` and ``_radii`` are views of it), predictions and sigmas,
    plus the one ``norm`` (None while empty). ``regions`` builds the list of
    ``CertifiedRegion`` from them on each access. Only ``memory_insert``
    (through ``_append``) and ``load_memory`` write. Insertions are strictly
    serialized (overlap handling is order sensitive); reads may run between.
    """

    def __init__(self):
        self.norm: str | None = None  # of every region; None while empty
        self._size = 0
        self._use(np.empty((0, 1)), (), (), (), 0)
        self.comparisons = 0
        self.overlap_events = 0

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other) -> bool:
        if isinstance(other, MemoryStore):
            return self.regions == other.regions
        return NotImplemented

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
        return zip(*(v[:self._size].tolist()
                     for v in (self._centers, self._radii, self._preds, self._sigmas)))

    @np.errstate(over="ignore", invalid="ignore")
    def _use(self, centers: np.ndarray, radii, preds, sigmas, capacity: int) -> None:
        """Hold the given n regions (centers (n, d)) in new arrays of ``capacity`` rows."""
        n = len(radii)
        self._screen = np.empty((capacity, centers.shape[1] + 2), order="F")
        self._centers, self._radii = self._screen[:, :-2], self._screen[:, -2]
        self._preds, self._sigmas = np.empty(capacity, dtype=np.int64), np.empty(capacity)
        self._centers[:n], self._radii[:n] = centers, radii
        self._preds[:n], self._sigmas[:n] = preds, sigmas
        sq, rr = np.einsum("ij,ij->i", centers, centers), self._radii[:n] ** 2
        self._screen[:n, -1] = np.where(sq + rr <= _SCREEN_BIG, sq * (1.0 - 2.0 * _SCREEN_EPS)
                                        - rr * (1.0 + 2.0 * _SCREEN_EPS), -np.inf)

    def _append(self, region: CertifiedRegion) -> None:
        n = self._size
        if n == len(self._preds):
            self._use(self._centers[:n].reshape(n, region.dim), self._radii[:n],
                      self._preds[:n], self._sigmas[:n], max(16, 2 * n))
        self._screen[n] = (*region.center, region.radius,
                           _screen_term(region.center, region.radius))
        self._preds[n], self._sigmas[n] = region.prediction, region.sigma_used
        self.norm, self._size = region.norm, n + 1


@np.errstate(over="ignore", invalid="ignore")
def memory_insert(store: MemoryStore, region: CertifiedRegion
                  ) -> tuple[int, CertifiedRegion, bool]:
    """Insert a freshly certified region, shrinking it against the memory.

    Applies ``_shrink`` to each differently-predicted entry in insertion
    order and returns (final prediction, final region, adjusted). Only
    entries within r_entry + r can act (the region only shrinks): one product
    ``_screen @ v`` keeps those, whatever their prediction, since an override
    changes it mid-scan. The scan then skips a kept entry of the current
    prediction or whose numpy distance clears the current radius, and runs
    ``_shrink`` on the rest. The first override rescans the passed hits of the old
    prediction; a further overlap at the overriding entry's scale means the store
    already had one. ``comparisons`` adds N as a full scan does, not the checks run.
    """
    n, norm = len(store), region.norm
    radius, prediction = region.radius, region.prediction
    adjusted, r_over = False, None  # r_over: radius of the entry that overrode
    if n:
        _check_compatible((store.norm, store.dim), (norm, region.dim))
        v = np.array([*(-2.0 * x for x in region.center), -2.0 * radius, 1.0])
        bound = _SCREEN_TINY - _screen_term(region.center, radius)
        hits = np.flatnonzero(~(store._screen[:n] @ v > bound))  # NaN is a hit
        dist = _row_distances(store._centers[hits] - region.center, norm)
        scan = list(zip(hits.tolist(), dist.tolist(), store._radii[hits].tolist(),
                        store._preds[hits].tolist()))
        for seen, (i, d, r_entry, p_entry) in enumerate(scan, start=1):  # scan may grow
            if p_entry == prediction or math.inf > d > (
                    r_entry + radius) * (1.0 + _SCREEN_EPS) + _SCREEN_EPS:
                continue  # an infinite numpy distance may be finite: tested
            d = _distance(store._centers[i].tolist(), region.center, norm)
            shrunk = _shrink(d, r_entry, radius)
            if shrunk is None:
                continue
            if r_over is not None and _overlaps(d, r_entry, radius, r_over):
                raise MemoryInvariantError("a second differently-predicted entry forced "
                                           "shrinking after a prediction override; the "
                                           "store invariant is broken")
            radius, inside = shrunk
            if inside:  # center inside: take the entry's prediction
                if r_over is None:
                    scan += [h for h in scan[:seen] if h[3] == prediction]
                prediction, r_over = p_entry, r_entry
            adjusted = True
            store.overlap_events += 1
    store.comparisons += n
    cand = replace(region, radius=radius, prediction=prediction) if adjusted else region
    store._append(cand)
    return cand.prediction, cand, adjusted


@np.errstate(over="ignore", invalid="ignore")
def _validate_invariant(store: MemoryStore) -> None:
    """Raise on the first pair (i < j) of overlapping differently-predicted regions.

    Both norms bound |x0 - x0'|, so only pairs whose padded intervals
    [x0 - r, x0 + r] meet can overlap; sorted by lower end, positions a and
    a+k meet for k <= reach[a]. One numpy screen per offset k keeps
    temporaries O(N); the exact test runs over its survivors in (i, j) order,
    and only pairs before the first overlap found so far stay in play.
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
        dist = _row_distances(centers[s] - centers[s + k], norm)  # inf may be finite
        s = s[(dist <= (radii[s] + radii[s + k]) * (1.0 + _SCREEN_EPS) + _SCREEN_EPS)
              | np.isinf(dist)]
        i, j = np.minimum(order[s], order[s + k]), np.maximum(order[s], order[s + k])
        if first is not None:
            ahead = (i < first[0]) | ((i == first[0]) & (j < first[1]))
            s, i, j = s[ahead], i[ahead], j[ahead]
        for pair, p in sorted(zip(zip(i.tolist(), j.tolist()), s.tolist())):
            if _overlaps(_distance(centers[p].tolist(), centers[p + k].tolist(), norm),
                         radii[p], radii[p + k]):
                first = pair
                break
        k += 1
        a = a[reach[a] >= k]
    if first is not None:
        raise MemoryInvariantError(f"regions {first[0]} and {first[1]} predict "
                                   "differently but overlap")


def save_memory(store: MemoryStore, path) -> None:
    """Write the store as one JSON object per line, formatted directly: ``repr``
    of the finite floats the store holds gives the bytes ``json.dumps`` would."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f'{{"center": {c!r}, "radius": {r!r}, "prediction": {p}, '
                      f'"sigma": {s!r}, "norm": "{store.norm}"}}\n'
                      for c, r, p, s in store._rows())


def _checked_row(obj: dict, first: tuple | None) -> tuple:
    """(center, radius, prediction, sigma, norm) of a memory-file line: JSON types,
    norm and dimension against ``first``, then finite values and radius >= 0."""
    row = center, radius, pred, sigma, norm = _FIELDS(obj)
    if type(pred) is not int or not 0 <= pred < 2**63:  # stored as int64
        raise ValueError(f"prediction must be a JSON integer in [0, 2**63), got {pred!r}")
    if type(center) is not list or not center or not _NUMBERS.issuperset(map(type, center)):
        raise ValueError("center must be a non-empty JSON array of numbers, got "
                         f"{center!r}")
    if type(radius) not in _NUMBERS or type(sigma) not in _NUMBERS:
        name, value = ("radius", radius) if type(radius) not in _NUMBERS else ("sigma", sigma)
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    if norm not in (NORM_L2, NORM_L1):
        raise ValueError(f"unknown norm {norm!r}")
    first = first or row
    if norm != first[4] or len(center) != len(first[0]):
        _check_compatible((first[4], len(first[0])), (norm, len(center)))
    if not (all(map(math.isfinite, center)) and math.isfinite(radius)
            and math.isfinite(sigma)) or radius < 0:
        raise ValueError("center, radius and sigma must be finite and radius >= 0, "
                         f"got {row[:4]}")
    return row


def load_memory(path) -> MemoryStore:
    """Read a JSON-lines memory file once (it may be a pipe), re-validating the
    no-overlap invariant. Each non-blank line is decoded and checked in full by
    ``_checked_row`` (JSON types, the first line's norm and dimension, finite
    values, radius >= 0); the first bad line raises, naming path and line, with
    ``json.loads``'s own message when it does not parse. Then the first
    overlapping differently-predicted pair (i < j) is named."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()  # universal newlines, as iterating fh; not str.splitlines
    decode, rows = json.JSONDecoder().raw_decode, []
    for lineno, line in enumerate(lines, start=1):
        try:
            if line.strip():
                text = line.strip(_JSON_WS)
                try:
                    obj, end = decode(text)
                except (ValueError, RecursionError):
                    end = None
                if end != len(text):  # json.loads raises, with offsets into the line
                    obj = json.loads(line)
                rows.append(_checked_row(obj, rows[0] if rows else None))
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ValueError(f"{path}: bad region on line {lineno}: {exc}") from exc
    store = MemoryStore()
    if rows:
        centers, radii, preds, sigmas, norms = zip(*rows)
        store._use(np.asarray(centers, dtype=float), radii, preds, sigmas, len(radii))
        store.norm, store._size = norms[0], len(radii)
    _validate_invariant(store)
    return store


def audit(store: MemoryStore) -> dict:
    """Overlap events and comparisons counted over the store's insertions."""
    return {"overlap_events": store.overlap_events, "comparisons": store.comparisons}
