"""Pluggable base classifiers plus closed-form smoothed-probability oracles.

A :class:`ClassifierHandle` wraps a batch evaluation function mapping points
to rows of the probability simplex, optionally with an input-Jacobian for
analytic gradients. The built-in classifiers are chosen so that their
Gaussian- or uniform-smoothed expectations have closed forms, which the test
suite uses as independent oracles, plus a tiny trainable perceptron.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special as sps

from .stats import std_normal_cdf

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
    ``argmax(probs_fn(points), axis=1)``, ties going to the lowest index.
    ``run_campaign`` calls them from several threads at once: mutable state
    needs a lock, and a trainable ``backend`` must not train during a campaign.
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

    def labels(self, points: np.ndarray) -> np.ndarray:
        """One class index per point: the argmax of ``probs``, lowest on ties."""
        if self.labels_fn is None:
            return np.argmax(self.probs(points), axis=1)
        points = self._points(points)
        labels = np.asarray(self.labels_fn(points))
        if (labels.shape != (len(points),) or labels.dtype.kind not in "biu"
                or labels.size and not 0 <= labels.min() <= labels.max() < self.num_classes):
            raise ValueError(
                f"classifier kind={self.kind!r} labels_fn must return {len(points)} "
                f"class indices in [0, {self.num_classes}), got {labels!r}")
        return labels.astype(np.intp, copy=False)

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
    """Soft binary classifier with class-1 probability Phi((w.x - b) / s)."""
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

    def labels_fn(points):  # the argmax of probs_fn, ties included
        q = sps.ndtr((points @ w - b) / s)
        return q > 1.0 - q

    def grad_fn(points):
        u = (points @ w - b) / s
        dens = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        g1 = dens[:, None] * (w / s)              # (m, d)
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
    """Two-layer perceptron: tanh hidden layer, softmax head, numpy-only.

    Forward, input-Jacobian, and the cross-entropy parameter step are all
    written out explicitly so training needs no autodiff framework. Mutation
    happens only through ``train_step``; callers must serialize training.
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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _quad(f, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    n_panels = max(1, int(math.ceil((hi - lo) / 0.5)))  # panels at most 0.5 wide
    edges = np.linspace(lo, hi, n_panels + 1)
    total = 0.0
    for a, bb in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + bb), 0.5 * (bb - a)
        total += half * float(np.sum(_GL_WEIGHTS * f(mid + half * _GL_NODES)))
    return total


def nested_ball_smoothed_prob(rho: float, x, sigma: float) -> float:
    """P(||x + eps||_2 <= rho) under eps ~ N(0, sigma^2 I).

    Exact at the origin (chi CDF with d degrees of freedom). Off-origin the
    value comes from the closed form in d=1 and from 1-D radial quadrature of
    the norm density in d=2 and d=3, accurate to well below 1e-8; other
    dimensions are unsupported off-origin.
    """
    x = as_point(x)
    rho, sigma = float(rho), float(sigma)
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    d = x.size
    a = float(np.linalg.norm(x)) / sigma
    t = rho / sigma
    if a < 1e-12:
        return float(sps.gammainc(d / 2.0, 0.5 * t * t))
    if d == 1:
        m = x[0] / sigma
        return std_normal_cdf(t - m) - std_normal_cdf(-t - m)
    if d == 2:
        def rice_pdf(r):
            return r * np.exp(-0.5 * (r - a) ** 2) * sps.i0e(a * r)
    elif d == 3:
        def rice_pdf(r):
            c = 1.0 / math.sqrt(2.0 * math.pi)
            return (r / a) * c * (np.exp(-0.5 * (r - a) ** 2)
                                  - np.exp(-0.5 * (r + a) ** 2))
    else:
        raise ValueError(f"off-origin smoothed ball probability supports d <= 3, got d={d}")
    lo = max(0.0, min(t, a - 38.0))
    hi = min(t, a + 38.0)
    return min(1.0, max(0.0, _quad(rice_pdf, lo, hi)))


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def classifier_from_config(cfg: dict) -> ClassifierHandle:
    """Build a classifier from a {"kind": ..., parameters...} document."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValueError("classifier config must be an object with a 'kind' field")
    kind = cfg["kind"]
    if kind == "constant":
        return constant_classifier(cfg["probs"], cfg["dim"])
    if kind == "affine_softmax":
        return affine_softmax_classifier(cfg["weights"], cfg["bias"])
    if kind == "hard_halfspace":
        return hard_halfspace_classifier(cfg["w"], cfg["b"])
    if kind == "probit_halfspace":
        return probit_halfspace_classifier(cfg["w"], cfg["b"], cfg["s"])
    if kind == "nested_ball":
        return nested_ball_classifier(cfg["rho"], cfg["dim"])
    if kind == "mlp":
        return mlp_classifier(TinyMLP.from_state(cfg))
    raise ValueError(f"unknown classifier kind {kind!r}")


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
