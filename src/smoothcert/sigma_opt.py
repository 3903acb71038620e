"""Per-input smoothing-scale optimization.

Gradient ascent on the plug-in certified radius, reparameterized so one batch
of standard noise draws serves every scale value: the objective is then a
deterministic function of the scale, finite differences are exact secants of
that realized function, and the best iterate can never fall below the start.
A grid-search baseline under a matched evaluation budget is included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import ClassifierHandle, as_point
from .smoothing import (NOISE_UNIFORM, NoiseBatch, _pick, draw_noise,
                        plugin_radii, proxy_radius, proxy_radius_l1)
from .stats import P_CLAMP, clamp_probability, std_normal_pdf, std_normal_quantile

__all__ = [
    "GRAD_ANALYTIC",
    "GRAD_SCALAR_FD",
    "RETURN_FAITHFUL",
    "RETURN_BEST_ITERATE",
    "SigmaOptConfig",
    "TraceEntry",
    "SigmaTrace",
    "grad_sigma",
    "optimize_sigma",
    "sigma_grid",
    "grid_search_sigma",
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
    starting radius under the shared noise batch. ``sigma0`` is the start
    scale unless ``optimize_sigma`` gets one per input. ``seed`` only seeds
    the noise ``optimize_sigma`` draws when given none; campaigns run the
    ascent on blocks of rows, row idx with noise from
    ``rng_for_input(cert.seed, idx, 1)``.
    """
    sigma0: float
    step_alpha: float = 1e-4
    iters_k: int = 100
    n_samples: int = 1
    sigma_min: float = 1e-3
    sigma_max: float = 2.0
    grad_mode: str = GRAD_SCALAR_FD
    return_mode: str = RETURN_FAITHFUL
    seed: int = 0
    fd_step: float = 1e-3

    def __post_init__(self):
        floats = (self.sigma0, self.step_alpha, self.sigma_min, self.sigma_max,
                  self.fd_step)
        if not np.all(np.isfinite(floats)):
            raise ValueError(
                "sigma0, step_alpha, sigma_min, sigma_max and fd_step must be "
                f"finite, got {floats}")
        if not 0 < self.sigma_min <= self.sigma0 <= self.sigma_max:
            raise ValueError(
                f"need 0 < sigma_min <= sigma0 <= sigma_max, got "
                f"({self.sigma_min}, {self.sigma0}, {self.sigma_max})")
        if self.step_alpha <= 0:
            raise ValueError(f"step_alpha must be positive, got {self.step_alpha}")
        if self.iters_k < 0:
            raise ValueError(f"iters_k must be >= 0, got {self.iters_k}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.grad_mode not in (GRAD_ANALYTIC, GRAD_SCALAR_FD):
            raise ValueError(f"unknown grad mode {self.grad_mode!r}")
        if self.return_mode not in (RETURN_FAITHFUL, RETURN_BEST_ITERATE):
            raise ValueError(f"unknown return mode {self.return_mode!r}")
        if self.fd_step <= 0:
            raise ValueError(f"fd_step must be positive, got {self.fd_step}")


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
    """Chain-rule slope from the means psi at sigma, top class a, runner-up b."""
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


def grad_sigma(c: ClassifierHandle, x, sigma: float, noise: NoiseBatch,
               mode: str, fd_step: float = 1e-3) -> float:
    """Derivative of the plug-in radius with respect to the noise scale.

    ``scalar_fd`` takes a central difference of the realized objective with
    the same noise batch on both sides. ``analytic`` expands the chain rule:
    for L2, dR/ds = (Phi^{-1}(E_A) - Phi^{-1}(E_B)) / 2
                   + s/2 * (E_A' / phi(Phi^{-1}(E_A)) - E_B' / phi(Phi^{-1}(E_B)))
    with E_c' the mean of eps_i . grad f^c over the batch; a clamped mean
    contributes zero slope, matching the differentiated objective. The norm
    follows the noise kind.
    """
    if mode not in (GRAD_ANALYTIC, GRAD_SCALAR_FD):
        raise ValueError(f"unknown grad mode {mode!r}")
    return float(_score(c, as_point(x), np.asarray(float(sigma)), noise, mode,
                        fd_step)[2])


def optimize_sigma(c: ClassifierHandle, x, cfg: SigmaOptConfig,
                   noise: NoiseBatch | None = None, sigma0=None):
    """K steps of projected gradient ascent on the plug-in radius.

    ``x`` is one point (d,) with noise draws (n, d), or a batch (B, d) with
    draws (B, n, d); without noise a gaussian batch is drawn from
    ``cfg.seed``. The draws are shared by every iterate (they do not depend on
    the scale). Each input starts at its entry of ``sigma0`` (default
    ``cfg.sigma0``) and every iterate is projected onto [sigma_min,
    sigma_max]; the trace shows top-class flips, and the norm follows the
    noise kind. Each iterate makes one classifier call for the whole batch,
    plus one gradient call in analytic mode. Returns (sigma_star, trace), or
    for a batch a (B,) array of scales and a list of traces.
    """
    x = np.asarray(x, dtype=float)
    if noise is None:
        rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed)]))
        noise = draw_noise(rng, cfg.n_samples, c.dim, lead=x.shape[:-1])
    start = cfg.sigma0 if sigma0 is None else sigma0
    sigma = np.clip(np.broadcast_to(start, x.shape[:-1]), cfg.sigma_min, cfg.sigma_max)
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


def sigma_grid(n_samples: int, budget: int, sigma_grid_max: float = 1.0) -> np.ndarray:
    """Evaluation grid of scales with exactly budget/n_samples points.

    Spacing is sigma_grid_max * n_samples / budget, which must be positive
    and finite.
    """
    if n_samples < 1 or budget < 1:
        raise ValueError("n_samples and budget must be >= 1")
    if budget % n_samples != 0:
        raise ValueError(f"budget {budget} must be divisible by n_samples {n_samples}")
    m = budget // n_samples
    delta = sigma_grid_max / m
    if not 0.0 < delta < np.inf:
        raise ValueError(f"sigma_grid_max must be positive and finite, got {sigma_grid_max!r}")
    return delta * np.arange(1, m + 1)


def grid_search_sigma(c: ClassifierHandle, x, n_samples: int, budget: int,
                      sigma_grid_max: float = 1.0, noise: NoiseBatch | None = None,
                      rng: np.random.Generator | None = None) -> float:
    """Crude baseline: evaluate the plug-in radius on an even grid of scales.

    Every grid point is scored with the same noise batch in one classifier
    call, keeping the total number of point evaluations at exactly
    ``budget``. Returns the argmax scale (earliest grid point on ties). The
    norm follows the noise kind; without noise a gaussian batch is drawn.
    """
    grid = sigma_grid(n_samples, budget, sigma_grid_max)
    if noise is None:
        if rng is None:
            rng = np.random.default_rng(0)
        noise = draw_noise(rng, n_samples, c.dim)
    radii, _, _, _ = plugin_radii(c, x, grid, noise)
    return float(grid[int(np.argmax(radii))])
