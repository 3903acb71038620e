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

from .classifiers import ClassifierHandle, DerivativeUnsupportedError, as_point
from .smoothing import (NOISE_GAUSSIAN, NOISE_UNIFORM, NoiseBatch, draw_noise,
                        proxy_radius, proxy_radius_l1, soft_means)
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
]

GRAD_ANALYTIC = "analytic"
GRAD_SCALAR_FD = "scalar_fd"

RETURN_FAITHFUL = "faithful"
RETURN_BEST_ITERATE = "best_iterate"

NORM_L2 = "l2"
NORM_L1 = "l1"


@dataclass(frozen=True)
class SigmaOptConfig:
    """Ascent hyperparameters for the per-input scale optimization.

    ``faithful`` return mode hands back the final iterate; ``best_iterate``
    returns the trace argmax, which is guaranteed not to fall below the
    starting radius under the shared noise batch.
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
    p_clamp: float = P_CLAMP

    def __post_init__(self):
        floats = (self.sigma0, self.step_alpha, self.sigma_min, self.sigma_max,
                  self.fd_step, self.p_clamp)
        if not np.all(np.isfinite(floats)):
            raise ValueError(
                "sigma0, step_alpha, sigma_min, sigma_max, fd_step and p_clamp "
                f"must be finite, got {floats}")
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


def _proxy(c, x, scale, noise, p_clamp, norm):
    if norm == NORM_L2:
        return proxy_radius(c, x, scale, noise, p_clamp)
    return proxy_radius_l1(c, x, scale, noise)


def grad_sigma(c: ClassifierHandle, x, sigma: float, noise: NoiseBatch,
               mode: str, fd_step: float = 1e-3, p_clamp: float = P_CLAMP,
               norm: str = NORM_L2) -> float:
    """Derivative of the plug-in radius with respect to the noise scale.

    ``scalar_fd`` takes a central difference of the realized objective with
    the same noise batch on both sides. ``analytic`` expands the chain rule:
    for L2, dR/ds = (Phi^{-1}(E_A) - Phi^{-1}(E_B)) / 2
                   + s/2 * (E_A' / phi(Phi^{-1}(E_A)) - E_B' / phi(Phi^{-1}(E_B)))
    with E_c' the mean of eps_i . grad f^c over the batch; a clamped mean
    contributes zero slope, matching the differentiated objective.
    """
    x = as_point(x)
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if mode == GRAD_SCALAR_FD:
        h = min(fd_step * max(1.0, sigma), 0.5 * sigma)
        hi, _ = _proxy(c, x, sigma + h, noise, p_clamp, norm)
        lo, _ = _proxy(c, x, sigma - h, noise, p_clamp, norm)
        return float((hi - lo) / (2.0 * h))
    if mode != GRAD_ANALYTIC:
        raise ValueError(f"unknown grad mode {mode!r}")
    if c.grad_fn is None:
        raise DerivativeUnsupportedError(
            f"analytic gradient requested but classifier kind={c.kind!r} "
            "provides no derivatives")
    psi = soft_means(c, x, sigma, noise)
    top = int(np.argmax(psi))
    rest = psi.copy()
    rest[top] = -1.0
    runner = int(np.argmax(rest))
    pts = x[None, :] + sigma * noise.draws
    grads = c.input_grads(pts)  # (n, k, d)
    eprime = np.einsum("nd,nkd->k", noise.draws, grads) / len(noise)
    if norm == NORM_L1:
        return float((psi[top] - psi[runner])
                     + sigma * (eprime[top] - eprime[runner]))
    ea = clamp_probability(psi[top], p_clamp)
    eb = clamp_probability(psi[runner], p_clamp)
    za = std_normal_quantile(ea)
    zb = std_normal_quantile(eb)
    g = 0.5 * (za - zb)
    if p_clamp < psi[top] < 1.0 - p_clamp:
        g += 0.5 * sigma * eprime[top] / std_normal_pdf(za)
    if p_clamp < psi[runner] < 1.0 - p_clamp:
        g -= 0.5 * sigma * eprime[runner] / std_normal_pdf(zb)
    return float(g)


def optimize_sigma(c: ClassifierHandle, x, cfg: SigmaOptConfig,
                   noise: NoiseBatch | None = None,
                   rng: np.random.Generator | None = None,
                   norm: str = NORM_L2) -> tuple[float, SigmaTrace]:
    """K steps of projected gradient ascent on the plug-in radius.

    One noise batch is drawn up front and shared by every iteration (the
    standardized draws do not depend on the scale), each step is projected
    onto [sigma_min, sigma_max], and the top class is re-resolved at every
    iterate; flips are visible in the trace.
    """
    x = as_point(x)
    if norm not in (NORM_L2, NORM_L1):
        raise ValueError(f"unknown norm {norm!r}")
    if noise is None:
        if rng is None:
            rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed)]))
        kind = NOISE_GAUSSIAN if norm == NORM_L2 else NOISE_UNIFORM
        noise = draw_noise(rng, cfg.n_samples, c.dim, kind)
    sigma = float(np.clip(cfg.sigma0, cfg.sigma_min, cfg.sigma_max))
    r, top = _proxy(c, x, sigma, noise, cfg.p_clamp, norm)
    trace = SigmaTrace([TraceEntry(0, sigma, r, top)])
    for k in range(1, cfg.iters_k + 1):
        g = grad_sigma(c, x, sigma, noise, cfg.grad_mode,
                       fd_step=cfg.fd_step, p_clamp=cfg.p_clamp, norm=norm)
        sigma = float(np.clip(sigma + cfg.step_alpha * g, cfg.sigma_min, cfg.sigma_max))
        r, top = _proxy(c, x, sigma, noise, cfg.p_clamp, norm)
        trace.entries.append(TraceEntry(k, sigma, r, top))
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
                      rng: np.random.Generator | None = None,
                      norm: str = NORM_L2) -> float:
    """Crude baseline: evaluate the plug-in radius on an even grid of scales.

    Every grid point is scored with the same noise batch, keeping the total
    number of classifier evaluations at exactly ``budget``. Returns the
    argmax scale (earliest grid point on ties).
    """
    x = as_point(x)
    grid = sigma_grid(n_samples, budget, sigma_grid_max, sigma_floor)
    if noise is None:
        if rng is None:
            rng = np.random.default_rng(0)
        kind = NOISE_GAUSSIAN if norm == NORM_L2 else NOISE_UNIFORM
        noise = draw_noise(rng, n_samples, c.dim, kind)
    best_sigma, best_r = None, -np.inf
    for s in grid:
        r, _ = _proxy(c, x, float(s), noise, P_CLAMP, norm)
        if r > best_r:
            best_sigma, best_r = float(s), r
    return best_sigma
