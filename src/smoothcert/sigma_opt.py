"""Per-input smoothing-scale optimization.

Gradient ascent on the plug-in certified radius, reparameterized so one batch
of standard noise draws serves every scale value: the objective is then a
deterministic function of the scale, the slope is a central secant of that
realized function, and the best iterate can never fall below the start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import ClassifierHandle
from .smoothing import NoiseBatch, plugin_radii, proxy_radius, proxy_radius_l1

__all__ = [
    "GRAD_SCALAR_FD",
    "RETURN_FAITHFUL",
    "RETURN_BEST_ITERATE",
    "SigmaOptConfig",
    "TraceEntry",
    "SigmaTrace",
    "optimize_sigma",
    # One-scale views of the objective, kept importable from this module
    # because the benchmark's span tracer hooks them here by name.
    "proxy_radius",
    "proxy_radius_l1",
]

GRAD_SCALAR_FD = "scalar_fd"

RETURN_FAITHFUL = "faithful"
RETURN_BEST_ITERATE = "best_iterate"


@dataclass(frozen=True)
class SigmaOptConfig:
    """Ascent hyperparameters for the per-input scale optimization.

    ``faithful`` return mode hands back the final iterate; ``best_iterate``
    returns the trace argmax, which is guaranteed not to fall below the
    starting radius under the shared noise batch. The start scale and the
    noise are ``optimize_sigma`` arguments: a campaign starts row i at its
    ``sigma0`` with noise from ``rng_for_input(cert.seed, i, STREAM_OPT)``.
    ``grad_mode`` has one legal value, ``GRAD_SCALAR_FD``: the slope is the
    central secant over sigma +- h, h = min(fd_step * max(1, sigma), sigma / 2).
    """
    step_alpha: float = 1e-4
    iters_k: int = 100
    n_samples: int = 1
    sigma_min: float = 1e-3
    sigma_max: float = 2.0
    grad_mode: str = GRAD_SCALAR_FD
    return_mode: str = RETURN_FAITHFUL
    fd_step: float = 1e-3

    def __post_init__(self):
        if not (0 < self.step_alpha < np.inf and 0 < self.fd_step < np.inf):
            raise ValueError("step_alpha and fd_step must be positive and finite, "
                             f"got {self.step_alpha} and {self.fd_step}")
        if not 0 < self.sigma_min <= self.sigma_max < np.inf:
            raise ValueError("need finite bounds 0 < sigma_min <= sigma_max, got "
                             f"({self.sigma_min}, {self.sigma_max})")
        if self.iters_k < 0:
            raise ValueError(f"iters_k must be >= 0, got {self.iters_k}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.grad_mode != GRAD_SCALAR_FD:
            raise ValueError(f"unknown grad mode {self.grad_mode!r}")
        if self.return_mode not in (RETURN_FAITHFUL, RETURN_BEST_ITERATE):
            raise ValueError(f"unknown return mode {self.return_mode!r}")


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    sigma: float
    proxy_radius: float
    top_class: int


@dataclass(frozen=True, eq=False)
class SigmaTrace:
    """Iterate history of one input as arrays, start included (length K + 1)."""
    sigmas: np.ndarray
    radii: np.ndarray
    tops: np.ndarray

    @property
    def entries(self) -> list[TraceEntry]:
        return [TraceEntry(k, *e) for k, e in enumerate(zip(
            self.sigmas.tolist(), self.radii.tolist(), self.tops.tolist()))]

    def __len__(self) -> int:
        return len(self.sigmas)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, idx) -> TraceEntry:
        return self.entries[idx]

    def best(self) -> TraceEntry:
        """Entry with the largest plug-in radius (earliest wins ties)."""
        return self[int(np.argmax(self.radii))]

    def class_flips(self) -> int:
        """Number of iterations where the top class changed."""
        return int(np.count_nonzero(np.diff(self.tops)))


def _score(c, x, sigma: np.ndarray, noise: NoiseBatch, fd_step: float,
           slope: bool = True):
    """Plug-in radius, top class and (if ``slope``) its central secant at sigma,
    elementwise over the inputs, from one ``plugin_radii`` call."""
    h = np.minimum(fd_step * np.maximum(1.0, sigma), 0.5 * sigma)
    scales = np.stack([sigma, sigma + h, sigma - h], axis=-1) if slope else sigma[..., None]
    r, top = plugin_radii(c, x, scales, noise)
    g = (r[..., 1] - r[..., 2]) / (2.0 * h) if slope else None
    return r[..., 0], top[..., 0], g


def optimize_sigma(c: ClassifierHandle, x, cfg: SigmaOptConfig,
                   noise: NoiseBatch, sigma0):
    """K steps of projected gradient ascent on the plug-in radius.

    ``x`` is one point (d,) with noise draws (n, d), or a batch (B, d) with
    draws (B, n, d). The draws are shared by every iterate (they do not depend
    on the scale). Each input starts at its entry of ``sigma0`` (a scalar
    serves every input), which must be positive and finite; the start and
    every iterate are projected onto [sigma_min, sigma_max]. The trace shows
    top-class flips, and the norm follows the noise kind. Each iterate makes
    one classifier call for the batch. Returns (sigma_star, trace), or for a
    batch (B,) scales and traces.
    """
    x = np.asarray(x, dtype=float)
    start = np.broadcast_to(np.asarray(sigma0, dtype=float), x.shape[:-1])
    if not np.all((start > 0) & (start < np.inf)):
        raise ValueError(f"sigma0 must be positive and finite, got {sigma0}")
    sigma = np.clip(start, cfg.sigma_min, cfg.sigma_max)
    steps = []
    for k in range(cfg.iters_k + 1):
        r, top, g = _score(c, x, sigma, noise, cfg.fd_step, slope=k < cfg.iters_k)
        steps.append((sigma, r, top))
        if g is not None:
            sigma = np.clip(sigma + cfg.step_alpha * g, cfg.sigma_min, cfg.sigma_max)
    sigmas, radii, tops = map(np.array, zip(*steps))
    if cfg.return_mode == RETURN_BEST_ITERATE:
        sigma = np.take_along_axis(sigmas, np.argmax(radii, axis=0)[None], axis=0)[0]
    if x.ndim == 1:
        return float(sigma), SigmaTrace(sigmas, radii, tops)
    return sigma, [SigmaTrace(sigmas[:, i], radii[:, i], tops[:, i])
                   for i in range(len(x))]
