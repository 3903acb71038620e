"""Monte Carlo smooth-classifier prediction and sound certification.

Gaussian noise yields L2 certificates, coordinate-wise uniform noise yields
L1 certificates. The plug-in radius used inside the scale optimizer lives
here too; it shares the sampling conventions but is *not* a sound bound, and
``plugin_radii`` scores it at many scales with one classifier call.

Sampling is counter-based: every (seed, input_index, stream) triple maps to
an independent deterministic stream, so certification of distinct inputs
runs concurrently, in any order, without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import ClassifierHandle, as_point
from .memory import NORM_L1, NORM_L2
from .stats import (binom_lower_confidence, binom_two_sided_pvalue,
                    clamp_probability, std_normal_quantile)

__all__ = [
    "ABSTAIN",
    "GaussianCertConfig",
    "CertificationOutcome",
    "NoiseBatch",
    "rng_for_input",
    "draw_noise",
    "vote_counts",
    "smooth_predict",
    "certify_l2",
    "certify_l1",
    "plugin_radii",
    "proxy_radius",
    "proxy_radius_l1",
]

# Returned as the prediction when the confidence test fails.
ABSTAIN = -1

_VOTE_BATCH = 1 << 14

NOISE_GAUSSIAN = "gaussian"
NOISE_UNIFORM = "uniform"


@dataclass(frozen=True)
class GaussianCertConfig:
    """Monte Carlo certification budget.

    ``n0`` selection samples pick the candidate class, ``n_cert`` estimation
    samples bound its probability, and the whole procedure is allowed to be
    wrong with probability at most ``alpha_fail``.
    """
    sigma: float
    n0: int = 100
    n_cert: int = 100_000
    alpha_fail: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.n0 < 1:
            raise ValueError(f"n0 must be >= 1, got {self.n0}")
        if self.n_cert < self.n0:
            raise ValueError(f"n_cert must be >= n0, got {self.n_cert} < {self.n0}")
        if not 0.0 < self.alpha_fail < 1.0:
            raise ValueError(f"alpha_fail must lie in (0, 1), got {self.alpha_fail}")


@dataclass(frozen=True)
class CertificationOutcome:
    """Per-input certification result; ABSTAIN carries radius 0."""
    prediction: int
    radius: float
    p_lower: float
    sigma_used: float
    norm: str
    samples_used: int

    def __post_init__(self):
        if self.radius < 0.0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.prediction == ABSTAIN and self.radius != 0.0:
            raise ValueError("an abstention must carry radius 0")

    @property
    def abstained(self) -> bool:
        return self.prediction == ABSTAIN


@dataclass(frozen=True)
class NoiseBatch:
    """Standard noise draws reused across scale values (common random numbers)."""
    kind: str
    draws: np.ndarray  # (n, d) per input, (B, n, d) for B inputs; N(0, 1) or U[-1, 1]

    def __post_init__(self):
        if self.kind not in (NOISE_GAUSSIAN, NOISE_UNIFORM):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.draws.ndim < 2 or self.draws.shape[-2] < 1:
            raise ValueError(f"draws must be (..., n, d) with n >= 1, got {self.draws.shape}")

    def __len__(self) -> int:  # draws per input
        return self.draws.shape[-2]


def rng_for_input(seed: int, input_index: int, stream: int = 0) -> np.random.Generator:
    """Deterministic per-(seed, input, stream) generator, scheduling-independent."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, int(input_index), int(stream)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def draw_noise(rng: np.random.Generator, n: int, dim: int,
               kind: str = NOISE_GAUSSIAN, lead: tuple[int, ...] = ()) -> NoiseBatch:
    """n draws per input for inputs of shape ``lead``, in input order."""
    size = (*lead, n, dim)
    if kind == NOISE_UNIFORM:
        return NoiseBatch(kind, rng.uniform(-1.0, 1.0, size=size))
    return NoiseBatch(kind, rng.standard_normal(size))  # rejects unknown kinds


def vote_counts(c: ClassifierHandle, x, scale: float, n: int,
                rng: np.random.Generator, kind: str = NOISE_GAUSSIAN) -> np.ndarray:
    """Per-class counts of ``c.labels`` at x + scale * noise.

    A label is the argmax of the soft output, ties going to the lowest class
    index. Each batch of draws is scaled and shifted in place, which gives
    the bits of x + scale * draws. A generator's draws do not depend on how
    they are chunked, so the batch size bounds memory and changes no count.
    """
    x = as_point(x)
    if x.size != c.dim:
        raise ValueError(f"point has dim {x.size}, classifier expects {c.dim}")
    counts = np.zeros(c.num_classes, dtype=np.int64)
    remaining = int(n)
    while remaining > 0:
        m = min(_VOTE_BATCH, remaining)
        draws = draw_noise(rng, m, c.dim, kind).draws
        draws *= scale
        draws += x
        counts += np.bincount(c.labels(draws), minlength=c.num_classes)
        remaining -= m
    return counts


def _top_two(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest and runner-up index along the last axis; ties go to the lowest."""
    top = np.argmax(values, axis=-1)
    rest = np.where(np.arange(values.shape[-1]) == top[..., None], -np.inf, values)
    return top, np.argmax(rest, axis=-1)


def smooth_predict(c: ClassifierHandle, x, cfg: GaussianCertConfig,
                   input_index: int = 0, rng: np.random.Generator | None = None) -> int:
    """Monte Carlo prediction of the smoothed classifier at x.

    Draws ``cfg.n0`` hard votes at noise scale ``cfg.sigma`` and returns the
    top class only when the exact two-sided binomial test against the
    runner-up is significant at ``cfg.alpha_fail``; otherwise ABSTAIN.
    """
    if rng is None:
        rng = rng_for_input(cfg.seed, input_index)
    counts = vote_counts(c, x, cfg.sigma, cfg.n0, rng)
    top, runner = map(int, _top_two(counts))
    n_two = int(counts[top] + counts[runner])
    pval = binom_two_sided_pvalue(int(counts[top]), n_two, 0.5)
    return top if pval <= cfg.alpha_fail else ABSTAIN


def _certify(c, x, scale, cfg, kind, norm, rng, input_index) -> CertificationOutcome:
    if rng is None:
        rng = rng_for_input(cfg.seed, input_index)
    counts0 = vote_counts(c, x, scale, cfg.n0, rng, kind)
    candidate = int(np.argmax(counts0))
    counts = vote_counts(c, x, scale, cfg.n_cert, rng, kind)
    p_lower = binom_lower_confidence(int(counts[candidate]), cfg.n_cert, cfg.alpha_fail)
    samples = cfg.n0 + cfg.n_cert
    if p_lower <= 0.5:
        return CertificationOutcome(ABSTAIN, 0.0, p_lower, scale, norm, samples)
    p_safe = clamp_probability(p_lower)
    if norm == NORM_L2:
        radius = scale * std_normal_quantile(p_safe)
    else:
        radius = scale * (2.0 * p_safe - 1.0)
    return CertificationOutcome(candidate, float(max(0.0, radius)), p_lower,
                                scale, norm, samples)


def certify_l2(c: ClassifierHandle, x, cfg: GaussianCertConfig,
               input_index: int = 0,
               rng: np.random.Generator | None = None) -> CertificationOutcome:
    """Sound L2 certification of the Gaussian-smoothed classifier at x.

    With probability at least 1 - alpha_fail over the sampling, the returned
    class matches the smoothed classifier and its prediction is constant on
    the L2 ball of the returned radius: a one-sided Clopper-Pearson bound
    p_lower on the candidate class probability yields radius
    sigma * Phi^{-1}(p_lower), abstaining whenever p_lower <= 1/2.
    """
    return _certify(c, x, cfg.sigma, cfg, NOISE_GAUSSIAN, NORM_L2, rng, input_index)


def certify_l1(c: ClassifierHandle, x, lam: float, cfg: GaussianCertConfig,
               input_index: int = 0,
               rng: np.random.Generator | None = None) -> CertificationOutcome:
    """Sound L1 certification under uniform noise on [-lam, lam]^d.

    Bounds the runner-up probability by 1 - p_lower, giving radius
    lam * (2 * p_lower - 1), floored at zero with an abstention.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return _certify(c, x, float(lam), cfg, NOISE_UNIFORM, NORM_L1, rng, input_index)


def plugin_radii(c: ClassifierHandle, x, scales, noise: NoiseBatch):
    """Plug-in (non-sound) radius at every scale, from one classifier call.

    With E_A, E_B the top-two mean soft outputs at x + s * draws, the radius
    is s/2 * (Phi^{-1}(E_A) - Phi^{-1}(E_B)) for gaussian noise (means
    clamped away from {0, 1} first) and s * (E_A - E_B) for uniform noise.
    Leading input axes broadcast: points (..., d), scales (..., S) and
    draws (..., n, d) give (radii, top, runner) of shape (..., S) and means
    (..., S, k). Ties in the means go to the lowest class.
    """
    x = np.asarray(x, dtype=float)
    scales = np.asarray(scales, dtype=float)
    if scales.ndim < 1 or not np.all(scales > 0):
        raise ValueError(f"scales must be an array of positive values, got {scales}")
    if x.ndim < 1 or not np.all(np.isfinite(x)):
        raise ValueError("point entries must be finite")
    if x.shape[-1] != c.dim or noise.draws.shape[-1] != c.dim:
        raise ValueError("noise/point dimension mismatch with classifier")
    pts = x[..., None, None, :] + scales[..., None, None] * noise.draws[..., None, :, :]
    probs = c.probs(pts.reshape(-1, c.dim)).reshape(pts.shape[:-1] + (-1,))
    means = probs.mean(axis=-2)
    top, runner = _top_two(means)
    if noise.kind == NOISE_UNIFORM:
        return scales * (_pick(means, top) - _pick(means, runner)), top, runner, means
    z = std_normal_quantile(clamp_probability(means))
    return 0.5 * scales * (_pick(z, top) - _pick(z, runner)), top, runner, means


def _pick(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """values[..., idx] along the last axis, one index per leading position."""
    return np.take_along_axis(values, idx[..., None], axis=-1)[..., 0]


def _one_scale(c, x, scale, noise, kind) -> tuple[float, int]:
    if noise.kind != kind:
        raise ValueError(f"expected {kind} noise, got {noise.kind}")
    r, top, _, _ = plugin_radii(c, x, [scale], noise)
    return float(r[0]), int(top[0])


def proxy_radius(c: ClassifierHandle, x, sigma: float,
                 noise: NoiseBatch) -> tuple[float, int]:
    """Plug-in L2 radius and top class at one scale under gaussian noise."""
    return _one_scale(c, x, sigma, noise, NOISE_GAUSSIAN)


def proxy_radius_l1(c: ClassifierHandle, x, lam: float,
                    noise: NoiseBatch) -> tuple[float, int]:
    """Plug-in L1 radius and top class under uniform noise on [-lam, lam]^d."""
    return _one_scale(c, x, lam, noise, NOISE_UNIFORM)
