"""Per-input smoothing-scale optimization.

Gradient ascent on the plug-in certified radius, reparameterized so one batch
of standard noise draws serves every scale value: the objective is then a
deterministic function of the scale, finite differences are exact secants of
that realized function, and the best iterate can never fall below the start.
A grid-search baseline under a matched evaluation budget is included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classifiers import ClassifierHandle, as_point
from .smoothing import (NOISE_UNIFORM, NoiseBatch, draw_noise, plugin_radii,
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
    starting radius under the shared noise batch. ``seed`` only seeds the
    noise ``optimize_sigma`` draws when given neither noise nor a generator;
    campaigns pass noise drawn from ``rng_for_input(cert.seed, idx, 1)``.
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


@dataclass
class SigmaTrace:
    """Iterate history: one entry per iterate, start included (length K + 1)."""
    entries: list[TraceEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, idx) -> TraceEntry:
        return self.entries[idx]

    def best(self) -> TraceEntry:
        """Entry with the largest plug-in radius (earliest wins ties)."""
        best = self.entries[0]
        for e in self.entries[1:]:
            if e.proxy_radius > best.proxy_radius:
                best = e
        return best

    def class_flips(self) -> int:
        """Number of iterations where the top class changed."""
        return sum(1 for a, b in zip(self.entries, self.entries[1:])
                   if a.top_class != b.top_class)


def _score(c, x, sigma: float, noise: NoiseBatch, mode: str, fd_step: float,
           slope: bool = True) -> tuple[float, int, float | None]:
    """Plug-in radius, top class and (if ``slope``) its scale derivative at sigma.

    The radius and both secant points come from one ``plugin_radii`` call;
    the analytic slope adds one ``input_grads`` call at sigma.
    """
    h = min(fd_step * max(1.0, sigma), 0.5 * sigma)
    fd = slope and mode == GRAD_SCALAR_FD
    r, top, runner, psi = plugin_radii(c, x, [sigma, sigma + h, sigma - h] if fd
                                       else [sigma], noise)
    r0, a = float(r[0]), int(top[0])
    if not slope:
        return r0, a, None
    if fd:
        return r0, a, float((r[1] - r[2]) / (2.0 * h))
    return r0, a, _analytic_slope(c, x, sigma, noise, psi[0], a, int(runner[0]))


def _analytic_slope(c, x, sigma, noise, psi, a, b) -> float:
    """Chain-rule slope from the means psi at sigma, top class a, runner-up b."""
    grads = c.input_grads(x[None, :] + sigma * noise.draws)  # (n, k, d)
    eprime = np.einsum("nd,nkd->k", noise.draws, grads) / len(noise)
    if noise.kind == NOISE_UNIFORM:
        return float((psi[a] - psi[b]) + sigma * (eprime[a] - eprime[b]))
    za = std_normal_quantile(clamp_probability(psi[a]))
    zb = std_normal_quantile(clamp_probability(psi[b]))
    g = 0.5 * (za - zb)
    if P_CLAMP < psi[a] < 1.0 - P_CLAMP:
        g += 0.5 * sigma * eprime[a] / std_normal_pdf(za)
    if P_CLAMP < psi[b] < 1.0 - P_CLAMP:
        g -= 0.5 * sigma * eprime[b] / std_normal_pdf(zb)
    return float(g)


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
    return _score(c, as_point(x), float(sigma), noise, mode, fd_step)[2]


def optimize_sigma(c: ClassifierHandle, x, cfg: SigmaOptConfig,
                   noise: NoiseBatch | None = None,
                   rng: np.random.Generator | None = None) -> tuple[float, SigmaTrace]:
    """K steps of projected gradient ascent on the plug-in radius.

    One noise batch is drawn up front and shared by every iteration (the
    standardized draws do not depend on the scale), each step is projected
    onto [sigma_min, sigma_max], and the top class is re-resolved at every
    iterate; flips are visible in the trace. The norm follows the noise
    kind; without noise a gaussian (L2) batch is drawn. Each iterate costs
    one classifier call, plus one gradient call in analytic mode.
    """
    x = as_point(x)
    if noise is None:
        if rng is None:
            rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed)]))
        noise = draw_noise(rng, cfg.n_samples, c.dim)
    sigma = float(np.clip(cfg.sigma0, cfg.sigma_min, cfg.sigma_max))
    trace = SigmaTrace()
    for k in range(cfg.iters_k + 1):
        r, top, g = _score(c, x, sigma, noise, cfg.grad_mode, cfg.fd_step,
                           slope=k < cfg.iters_k)
        trace.entries.append(TraceEntry(k, sigma, r, top))
        if g is not None:
            sigma = float(np.clip(sigma + cfg.step_alpha * g, cfg.sigma_min,
                                  cfg.sigma_max))
    if cfg.return_mode == RETURN_BEST_ITERATE:
        return trace.best().sigma, trace
    return sigma, trace


def sigma_grid(n_samples: int, budget: int, sigma_grid_max: float = 1.0,
               sigma_floor: float = 1e-3) -> np.ndarray:
    """Evaluation grid of scales with exactly budget/n_samples points.

    Spacing is sigma_grid_max * n_samples / budget; a grid point landing at
    zero is replaced by ``sigma_floor``.
    """
    if n_samples < 1 or budget < 1:
        raise ValueError("n_samples and budget must be >= 1")
    if budget % n_samples != 0:
        raise ValueError(f"budget {budget} must be divisible by n_samples {n_samples}")
    m = budget // n_samples
    if m < 1:
        raise ValueError("empty grid")
    delta = sigma_grid_max / m
    grid = delta * np.arange(1, m + 1)
    grid[grid <= 0.0] = sigma_floor
    return grid


def grid_search_sigma(c: ClassifierHandle, x, n_samples: int, budget: int,
                      sigma_grid_max: float = 1.0, sigma_floor: float = 1e-3,
                      noise: NoiseBatch | None = None,
                      rng: np.random.Generator | None = None) -> float:
    """Crude baseline: evaluate the plug-in radius on an even grid of scales.

    Every grid point is scored with the same noise batch in one classifier
    call, keeping the total number of point evaluations at exactly
    ``budget``. Returns the argmax scale (earliest grid point on ties). The
    norm follows the noise kind; without noise a gaussian batch is drawn.
    """
    grid = sigma_grid(n_samples, budget, sigma_grid_max, sigma_floor)
    if noise is None:
        if rng is None:
            rng = np.random.default_rng(0)
        noise = draw_noise(rng, n_samples, c.dim)
    radii, _, _, _ = plugin_radii(c, x, grid, noise)
    return float(grid[int(np.argmax(radii))])
