"""Pluggable base classifiers plus closed-form smoothed-probability oracles.

A :class:`ClassifierHandle` wraps a batch evaluation function mapping points
to rows of the probability simplex, optionally with an input-Jacobian for
analytic gradients. The built-in classifiers are chosen so that their
Gaussian- or uniform-smoothed expectations have closed forms, which the test
suite uses as independent oracles, plus a tiny trainable perceptron. The
half-space oracles hold in any dimension, and so does the ball's: scipy's
noncentral chi-square CDF.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special as sps

from .stats import std_normal_cdf, std_normal_pdf

__all__ = [
    "ClassifierHandle",
    "DerivativeUnsupportedError",
    "as_point",
    "validate_simplex",
    "constant_classifier",
    "affine_softmax_classifier",
    "hard_halfspace_classifier",
    "probit_halfspace_classifier",
    "nested_ball_classifier",
    "mlp_classifier",
    "TinyMLP",
    "halfspace_smoothed_prob",
    "probit_halfspace_smoothed_prob",
    "nested_ball_smoothed_prob",
    "classifier_from_config",
    "classifier_to_config",
    "load_classifier",
    "save_classifier",
]

SIMPLEX_ATOL = 1e-9
_ONE_HOT = np.eye(2)


def _ndtr_tie() -> float:
    """The largest double t with ``ndtr(t) <= 1/2`` under the installed scipy (a
    literal could go stale), bisecting the bits of [0, 1], which sort as values.
    argmax([1 - q, q]) at q = ndtr(u) is 1 iff u > t: 1 - q is exact for q >= 1/2
    (Sterbenz), so it is 1 iff q > 1/2, and ndtr is monotone."""
    lo, hi = 0, int(np.float64(1.0).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if sps.ndtr(np.int64(mid).view(np.float64)) <= 0.5 else (lo, mid)
    return float(np.int64(lo).view(np.float64))


_NDTR_TIE = _ndtr_tie()


class DerivativeUnsupportedError(RuntimeError):
    """Raised when analytic derivatives are requested from a value-only classifier."""


def as_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"a point must be a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point entries must be finite")
    return x


def validate_simplex(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if (not np.all(np.isfinite(p)) or np.any(p < -SIMPLEX_ATOL)
            or abs(float(p.sum()) - 1.0) > SIMPLEX_ATOL):
        raise ValueError(f"not a simplex vector: {p}")
    return p


def _require_finite(**params) -> None:
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")


def _require_dim(dim) -> int:
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
    return int(dim)


@dataclass
class ClassifierHandle:
    """Soft classifier with batch evaluation and optional input gradients.

    ``probs_fn`` maps an (m, dim) array of points to (m, num_classes) simplex
    rows. ``grad_fn``, when present, maps the same points to the full input
    Jacobian of shape (m, num_classes, dim). ``labels_fn``, when present,
    gives one class index per point for Monte Carlo votes and must equal
    ``argmax(probs_fn(points), axis=1)``, ties going to the lowest index, or
    booleans if binary; votes overwrite ``points`` after it returns, so it must
    not keep them. ``run_campaign`` calls these from several threads at once:
    mutable state needs a lock, and a trainable ``backend`` must not train then.
    """
    kind: str
    dim: int
    num_classes: int
    probs_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray] | None = None
    params: dict = field(default_factory=dict)
    backend: object | None = None
    labels_fn: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def trainable(self) -> bool:
        return self.backend is not None

    def _points(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(
                f"expected points of shape (m, {self.dim}), got {points.shape}")
        return points

    def probs(self, points: np.ndarray) -> np.ndarray:
        return self.probs_fn(self._points(points))

    def vote_labels(self, points: np.ndarray) -> np.ndarray:
        """One class index per point, the argmax of ``probs`` (lowest on ties), as
        ``labels_fn`` gave them; booleans skip the range pass with 2+ classes."""
        if self.labels_fn is None:
            return np.argmax(self.probs(points), axis=1)
        points = self._points(points)
        labels = np.asarray(self.labels_fn(points))
        if (labels.shape != (len(points),) or labels.dtype.kind not in "biu"
                or labels.size and (labels.dtype.kind != "b" or self.num_classes < 2)
                and not 0 <= labels.min() <= labels.max() < self.num_classes):
            raise ValueError(
                f"classifier kind={self.kind!r} labels_fn must return {len(points)} "
                f"class indices in [0, {self.num_classes}), got {labels!r}")
        return labels

    def input_grads(self, points: np.ndarray) -> np.ndarray:
        if self.grad_fn is None:
            raise DerivativeUnsupportedError(
                f"classifier kind={self.kind!r} does not provide derivatives")
        return self.grad_fn(self._points(points))


# ---------------------------------------------------------------------------
# Built-in classifiers
# ---------------------------------------------------------------------------

def constant_classifier(probs, dim: int) -> ClassifierHandle:
    """Classifier that outputs the same simplex vector everywhere."""
    dim = _require_dim(dim)
    p = validate_simplex(np.asarray(probs, dtype=float))
    k = p.size

    def probs_fn(points):
        return np.tile(p, (len(points), 1))

    def grad_fn(points):
        return np.zeros((len(points), k, points.shape[1]))

    return ClassifierHandle("constant", dim, k, probs_fn, grad_fn,
                            params={"probs": p.tolist(), "dim": dim})


def affine_softmax_classifier(weights, bias) -> ClassifierHandle:
    """softmax(W x + b) with the analytic softmax input-Jacobian."""
    W = np.asarray(weights, dtype=float)
    b = np.asarray(bias, dtype=float)
    if W.ndim != 2 or b.shape != (W.shape[0],):
        raise ValueError("weights must be (k, d) and bias (k,)")
    _require_finite(weights=W, bias=b)
    k, d = W.shape

    def probs_fn(points):
        return _softmax(points @ W.T + b)

    def grad_fn(points):
        p = probs_fn(points)                      # (m, k)
        avg = p @ W                               # (m, d)
        return p[:, :, None] * (W[None, :, :] - avg[:, None, :])

    return ClassifierHandle("affine_softmax", d, k, probs_fn, grad_fn,
                            params={"weights": W.tolist(), "bias": b.tolist()})


def _hard_classifier(kind: str, dim: int, labels_fn, params: dict) -> ClassifierHandle:
    """Value-only binary classifier whose soft output is the one-hot of its labels."""
    return ClassifierHandle(kind, dim, 2,
                            lambda points: _ONE_HOT.take(labels_fn(points), axis=0),
                            None, params=params, labels_fn=labels_fn)


def hard_halfspace_classifier(w, b: float) -> ClassifierHandle:
    """Hard binary classifier: class 1 iff w.x > b (one-hot output, value-only)."""
    w = as_point(w)
    if not np.linalg.norm(w) > 0:
        raise ValueError("w must be nonzero")
    b = float(b)
    _require_finite(b=b)
    return _hard_classifier("hard_halfspace", w.size, lambda points: points @ w > b,
                            {"w": w.tolist(), "b": b})


def probit_halfspace_classifier(w, b: float, s: float) -> ClassifierHandle:
    """Soft binary classifier with class-1 probability Phi((w.x - b) / s); its
    votes compare (w.x - b) / s with ``_NDTR_TIE`` and call no ``ndtr``."""
    w = as_point(w)
    if not np.linalg.norm(w) > 0:
        raise ValueError("w must be nonzero")
    b, s = float(b), float(s)
    _require_finite(b=b, s=s)
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")

    def probs_fn(points):
        q = sps.ndtr((points @ w - b) / s)
        return np.stack([1.0 - q, q], axis=1)

    def labels_fn(points):  # the argmax of probs_fn, ties included, in place
        u = points @ w
        u -= b
        return np.divide(u, s, out=u) > _NDTR_TIE

    def grad_fn(points):
        u = (points @ w - b) / s
        g1 = std_normal_pdf(u)[:, None] * (w / s)  # (m, d)
        return np.stack([-g1, g1], axis=1)

    return ClassifierHandle("probit_halfspace", w.size, 2, probs_fn, grad_fn,
                            params={"w": w.tolist(), "b": b, "s": s},
                            labels_fn=labels_fn)


def nested_ball_classifier(rho: float, dim: int) -> ClassifierHandle:
    """Hard binary classifier: class 1 iff ||x||_2 <= rho (value-only)."""
    rho, dim = float(rho), _require_dim(dim)
    if not 0 < rho < np.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    return _hard_classifier("nested_ball", dim,
                            lambda points: np.linalg.norm(points, axis=1) <= rho,
                            {"rho": rho, "dim": dim})


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class TinyMLP:
    """Two-layer perceptron: tanh hidden layer, softmax head, no autodiff framework.

    Forward, input-Jacobian, and the cross-entropy parameter step are all
    written out explicitly. Mutation happens only through ``train_step``;
    callers must serialize training.
    """

    def __init__(self, dim: int, hidden: int, num_classes: int, rng=None):
        if hidden < 1 or hidden > 32:
            raise ValueError(f"hidden width must be in [1, 32], got {hidden}")
        rng = np.random.default_rng(rng)
        self.dim = int(dim)
        self.hidden = int(hidden)
        self.num_classes = int(num_classes)
        self.w1 = rng.normal(0.0, 1.0 / math.sqrt(dim), size=(hidden, dim))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.normal(0.0, 1.0 / math.sqrt(hidden), size=(num_classes, hidden))
        self.b2 = np.zeros(num_classes)

    def _forward(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = np.tanh(points @ self.w1.T + self.b1)         # (m, H)
        return h, _softmax(h @ self.w2.T + self.b2)       # (m, k)

    def probs(self, points: np.ndarray) -> np.ndarray:
        return self._forward(points)[1]

    def input_grads(self, points: np.ndarray) -> np.ndarray:
        h, p = self._forward(points)
        gate = 1.0 - h * h                                # (m, H)
        # d logits_c / dx = W2[c] @ diag(gate) @ W1
        jac = np.einsum("kh,mh,hd->mkd", self.w2, gate, self.w1)
        avg = np.einsum("mk,mkd->md", p, jac)
        return p[:, :, None] * (jac - avg[:, None, :])

    def train_step(self, points: np.ndarray, labels: np.ndarray, lr: float) -> float:
        """One SGD step on mean cross-entropy; returns the pre-step loss."""
        points = np.asarray(points, dtype=float)
        labels = np.asarray(labels, dtype=int)
        m = len(points)
        h, p = self._forward(points)
        loss = float(-np.mean(np.log(np.maximum(p[np.arange(m), labels], 1e-300))))
        dlogits = p.copy()
        dlogits[np.arange(m), labels] -= 1.0
        dlogits /= m
        dw2 = dlogits.T @ h
        db2 = dlogits.sum(axis=0)
        dh = dlogits @ self.w2
        dz1 = dh * (1.0 - h * h)
        dw1 = dz1.T @ points
        db1 = dz1.sum(axis=0)
        self.w2 -= lr * dw2
        self.b2 -= lr * db2
        self.w1 -= lr * dw1
        self.b1 -= lr * db1
        return loss

    def state(self) -> dict:
        return {"w1": self.w1.tolist(), "b1": self.b1.tolist(),
                "w2": self.w2.tolist(), "b2": self.b2.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "TinyMLP":
        arrays = {k: np.asarray(state[k], dtype=float) for k in ("w1", "b1", "w2", "b2")}
        for name in ("w1", "w2"):
            if arrays[name].ndim != 2:
                raise ValueError(f"mlp field {name} must be a matrix, got shape "
                                 f"{arrays[name].shape}")
        (hidden, dim), k = arrays["w1"].shape, arrays["w2"].shape[0]
        mlp = cls(dim=dim, hidden=hidden, num_classes=k)
        for name, shape in (("w1", (hidden, dim)), ("b1", (hidden,)),
                            ("w2", (k, hidden)), ("b2", (k,))):
            if arrays[name].shape != shape:
                raise ValueError(f"mlp field {name} must have shape {shape}, got "
                                 f"{arrays[name].shape}")
            setattr(mlp, name, arrays[name])
        return mlp


def mlp_classifier(mlp: TinyMLP) -> ClassifierHandle:
    _require_finite(w1=mlp.w1, b1=mlp.b1, w2=mlp.w2, b2=mlp.b2)
    return ClassifierHandle("mlp", mlp.dim, mlp.num_classes,
                            mlp.probs, mlp.input_grads, params={}, backend=mlp)


# ---------------------------------------------------------------------------
# Closed-form smoothed probabilities (analytic oracles)
# ---------------------------------------------------------------------------

def halfspace_smoothed_prob(w, b: float, x, sigma: float) -> float:
    """E[1{w.(x+eps) > b}] under eps ~ N(0, sigma^2 I): Phi((w.x - b) / (sigma ||w||))."""
    w = as_point(w)
    x = as_point(x)
    nw = float(np.linalg.norm(w))
    if nw <= 0:
        raise ValueError("w must be nonzero")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return std_normal_cdf((float(w @ x) - b) / (sigma * nw))


def probit_halfspace_smoothed_prob(w_unit, b: float, s: float, x, sigma: float) -> float:
    """E[Phi((w.(x+eps) - b) / s)] for unit w: Phi((w.x - b) / sqrt(s^2 + sigma^2))."""
    w = as_point(w_unit)
    x = as_point(x)
    if abs(float(np.linalg.norm(w)) - 1.0) > 1e-9:
        raise ValueError("w_unit must have unit Euclidean norm")
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    return std_normal_cdf((float(w @ x) - b) / math.hypot(s, sigma))


def nested_ball_smoothed_prob(rho: float, x, sigma: float) -> float:
    """P(||x + eps||_2 <= rho) under eps ~ N(0, sigma^2 I), in any dimension d.

    ||x + eps||^2 / sigma^2 is noncentral chi-square with d degrees of freedom
    and noncentrality ||x||^2 / sigma^2, so this is its CDF at (rho / sigma)^2.
    """
    x = as_point(x)
    rho, sigma = float(rho), float(sigma)
    for name, value in (("rho", rho), ("sigma", sigma)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    t, a = rho / sigma, float(np.linalg.norm(x)) / sigma
    p = float(sps.chndtr(t * t, x.size, a * a))
    if math.isnan(p):  # scipy's series gives up near rho ~ ||x|| once ||x||/sigma > ~3e5
        raise ValueError(f"no ball probability at ||x||/sigma={a:g}, rho/sigma={t:g}")
    return p


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

_BUILDERS = {
    "constant": constant_classifier,
    "affine_softmax": affine_softmax_classifier,
    "hard_halfspace": hard_halfspace_classifier,
    "probit_halfspace": probit_halfspace_classifier,
    "nested_ball": nested_ball_classifier,
    "mlp": lambda *, w1, b1, w2, b2: mlp_classifier(
        TinyMLP.from_state({"w1": w1, "b1": b1, "w2": w2, "b2": b2})),
}


def classifier_from_config(cfg: dict) -> ClassifierHandle:
    """Build a classifier from a {"kind": ..., builder arguments...} document."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValueError("classifier config must be an object with a 'kind' field")
    kind, params = cfg["kind"], {k: v for k, v in cfg.items() if k != "kind"}
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    return _BUILDERS[kind](**params)


def classifier_to_config(c: ClassifierHandle) -> dict:
    if c.kind == "mlp":
        return {"kind": "mlp", **c.backend.state()}
    return {"kind": c.kind, **c.params}


def load_classifier(path) -> ClassifierHandle:
    with open(path, "r", encoding="utf-8") as fh:
        return classifier_from_config(json.load(fh))


def save_classifier(c: ClassifierHandle, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(classifier_to_config(c), fh, sort_keys=True)
        fh.write("\n")
