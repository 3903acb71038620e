"""Per-input smoothing-scale optimization.

Gradient ascent on the plug-in certified radius, reparameterized so one batch
of standard noise draws serves every scale value: the objective is then a
deterministic function of the scale, finite differences are exact secants of
that realized function, and the best iterate can never fall below the start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import ClassifierHandle
from .smoothing import (NOISE_UNIFORM, NoiseBatch, _pick, plugin_radii,
                        proxy_radius, proxy_radius_l1)
from .stats import P_CLAMP, clamp_probability, std_normal_pdf, std_normal_quantile

__all__ = [
    "GRAD_ANALYTIC",
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

GRAD_ANALYTIC = "analytic"
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
        if self.grad_mode not in (GRAD_ANALYTIC, GRAD_SCALAR_FD):
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


def _score(c, x, sigma: np.ndarray, noise: NoiseBatch, mode: str, fd_step: float,
           slope: bool = True):
    """Plug-in radius, top class and (if ``slope``) its scale derivative at sigma.

    Elementwise over the inputs. The radius and both secant points come from
    one ``plugin_radii`` call; the analytic slope adds one ``input_grads`` call.
    """
    h = np.minimum(fd_step * np.maximum(1.0, sigma), 0.5 * sigma)
    fd = slope and mode == GRAD_SCALAR_FD
    scales = np.stack([sigma, sigma + h, sigma - h], axis=-1) if fd else sigma[..., None]
    r, top, runner, psi = plugin_radii(c, x, scales, noise)
    r0, a = r[..., 0], top[..., 0]
    if not slope:
        return r0, a, None
    if fd:
        return r0, a, (r[..., 1] - r[..., 2]) / (2.0 * h)
    return r0, a, _analytic_slope(c, x, sigma, noise, psi[..., 0, :], a, runner[..., 0])


def _analytic_slope(c, x, sigma, noise, psi, a, b):
    """Chain-rule slope from the means psi at sigma, top class a, runner-up b:
    for L2, dR/ds = (Phi^{-1}(E_A) - Phi^{-1}(E_B)) / 2
                   + s/2 * (E_A' / phi(Phi^{-1}(E_A)) - E_B' / phi(Phi^{-1}(E_B)))
    with E_c' the mean of eps_i . grad f^c over the batch (a clamped mean
    contributes zero slope); for L1, dR/ds = E_A - E_B + s * (E_A' - E_B').
    """
    pts = x[..., None, :] + sigma[..., None, None] * noise.draws
    grads = c.input_grads(pts.reshape(-1, c.dim)).reshape(
        pts.shape[:-1] + (c.num_classes, c.dim))  # (..., n, k, d)
    eprime = np.einsum("...nd,...nkd->...k", noise.draws, grads) / len(noise)
    pa, pb, ea, eb = _pick(psi, a), _pick(psi, b), _pick(eprime, a), _pick(eprime, b)
    if noise.kind == NOISE_UNIFORM:
        return (pa - pb) + sigma * (ea - eb)
    za = std_normal_quantile(clamp_probability(pa))
    zb = std_normal_quantile(clamp_probability(pb))

    def term(p, z, e):  # a clamped mean contributes zero slope
        inside = (P_CLAMP < p) & (p < 1.0 - P_CLAMP)
        return np.where(inside, 0.5 * sigma * e / std_normal_pdf(z), 0.0)

    return 0.5 * (za - zb) + term(pa, za, ea) - term(pb, zb, eb)


def optimize_sigma(c: ClassifierHandle, x, cfg: SigmaOptConfig,
                   noise: NoiseBatch, sigma0):
    """K steps of projected gradient ascent on the plug-in radius.

    ``x`` is one point (d,) with noise draws (n, d), or a batch (B, d) with
    draws (B, n, d). The draws are shared by every iterate (they do not depend
    on the scale). Each input starts at its entry of ``sigma0`` (a scalar
    serves every input), which must be positive and finite; the start and
    every iterate are projected onto [sigma_min, sigma_max]. The trace shows
    top-class flips, and the norm follows the noise kind. Each iterate makes
    one classifier call for the batch, plus one gradient call in analytic
    mode. Returns (sigma_star, trace), or for a batch (B,) scales and traces.
    """
    x = np.asarray(x, dtype=float)
    start = np.broadcast_to(np.asarray(sigma0, dtype=float), x.shape[:-1])
    if not np.all((start > 0) & (start < np.inf)):
        raise ValueError(f"sigma0 must be positive and finite, got {sigma0}")
    sigma = np.clip(start, cfg.sigma_min, cfg.sigma_max)
    steps = []
    for k in range(cfg.iters_k + 1):
        r, top, g = _score(c, x, sigma, noise, cfg.grad_mode, cfg.fd_step,
                           slope=k < cfg.iters_k)
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
