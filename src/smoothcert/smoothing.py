"""Monte Carlo smooth-classifier prediction and sound certification.

Gaussian noise yields L2 certificates, coordinate-wise uniform noise yields
L1 certificates. The plug-in radius used inside the scale optimizer lives
here too; it shares the sampling conventions but is *not* a sound bound.

Sampling is counter-based: every (seed, input_index, stream) triple maps to
an independent deterministic stream, so certification of distinct inputs can
run concurrently in any order without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import ClassifierHandle, as_point
from .stats import (P_CLAMP, binom_lower_confidence, binom_two_sided_pvalue,
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
    "proxy_radius",
    "proxy_radius_l1",
]

# Returned as the prediction when the confidence test fails.
ABSTAIN = -1

_VOTE_BATCH = 1 << 16

NORM_L2 = "l2"
NORM_L1 = "l1"

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
    draws: np.ndarray  # (n, d) standard normal or U[-1, 1]

    def __post_init__(self):
        if self.kind not in (NOISE_GAUSSIAN, NOISE_UNIFORM):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.draws.ndim != 2 or self.draws.shape[0] < 1:
            raise ValueError(f"draws must be (n, d) with n >= 1, got {self.draws.shape}")

    def __len__(self) -> int:
        return self.draws.shape[0]


def rng_for_input(seed: int, input_index: int, stream: int = 0) -> np.random.Generator:
    """Deterministic per-(seed, input, stream) generator, scheduling-independent."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, int(input_index), int(stream)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def draw_noise(rng: np.random.Generator, n: int, dim: int,
               kind: str = NOISE_GAUSSIAN) -> NoiseBatch:
    if kind == NOISE_GAUSSIAN:
        draws = rng.standard_normal((n, dim))
    elif kind == NOISE_UNIFORM:
        draws = rng.uniform(-1.0, 1.0, size=(n, dim))
    else:
        raise ValueError(f"unknown noise kind {kind!r}")
    return NoiseBatch(kind, draws)


def vote_counts(c: ClassifierHandle, x, scale: float, n: int,
                rng: np.random.Generator, kind: str = NOISE_GAUSSIAN) -> np.ndarray:
    """Per-class counts of hard argmax predictions at x + scale * noise.

    Ties in the soft output break toward the lowest class index. The batch
    size is fixed so the stream layout (and hence every count) is a pure
    function of the generator state.
    """
    x = as_point(x)
    if x.size != c.dim:
        raise ValueError(f"point has dim {x.size}, classifier expects {c.dim}")
    counts = np.zeros(c.num_classes, dtype=np.int64)
    remaining = int(n)
    while remaining > 0:
        m = min(_VOTE_BATCH, remaining)
        if kind == NOISE_GAUSSIAN:
            draws = rng.standard_normal((m, c.dim))
        else:
            draws = rng.uniform(-1.0, 1.0, size=(m, c.dim))
        votes = np.argmax(c.probs(x[None, :] + scale * draws), axis=1)
        counts += np.bincount(votes, minlength=c.num_classes)
        remaining -= m
    return counts


def _top_two(counts: np.ndarray) -> tuple[int, int]:
    top = int(np.argmax(counts))
    rest = counts.copy()
    rest[top] = -1
    return top, int(np.argmax(rest))


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
    top, runner = _top_two(counts)
    n_two = int(counts[top] + counts[runner])
    if n_two == 0:
        return ABSTAIN
    pval = binom_two_sided_pvalue(int(counts[top]), n_two, 0.5)
    return top if pval <= cfg.alpha_fail else ABSTAIN


def _certify(c, x, scale, cfg, kind, norm, rng) -> CertificationOutcome:
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
    if rng is None:
        rng = rng_for_input(cfg.seed, input_index)
    return _certify(c, x, cfg.sigma, cfg, NOISE_GAUSSIAN, NORM_L2, rng)


def certify_l1(c: ClassifierHandle, x, lam: float, cfg: GaussianCertConfig,
               input_index: int = 0,
               rng: np.random.Generator | None = None) -> CertificationOutcome:
    """Sound L1 certification under uniform noise on [-lam, lam]^d.

    Bounds the runner-up probability by 1 - p_lower, giving radius
    lam * (2 * p_lower - 1), floored at zero with an abstention.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if rng is None:
        rng = rng_for_input(cfg.seed, input_index)
    return _certify(c, x, float(lam), cfg, NOISE_UNIFORM, NORM_L1, rng)


def soft_means(c: ClassifierHandle, x, scale: float, noise: NoiseBatch) -> np.ndarray:
    """Sample mean of the soft classifier outputs at x + scale * draws."""
    x = as_point(x)
    if x.size != c.dim or noise.draws.shape[1] != c.dim:
        raise ValueError("noise/point dimension mismatch with classifier")
    return c.probs(x[None, :] + scale * noise.draws).mean(axis=0)


def proxy_radius(c: ClassifierHandle, x, sigma: float, noise: NoiseBatch,
                 p_clamp: float = P_CLAMP) -> tuple[float, int]:
    """Plug-in (non-sound) L2 radius from sample means, used by the optimizer.

    R = sigma/2 * (Phi^{-1}(E_A) - Phi^{-1}(E_B)) with E_A, E_B the top-two
    mean soft outputs, clamped away from {0, 1} before the quantile.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if noise.kind != NOISE_GAUSSIAN:
        raise ValueError("proxy_radius expects gaussian noise")
    psi = soft_means(c, x, sigma, noise)
    top, runner = _top_two(psi)
    ea = clamp_probability(psi[top], p_clamp)
    eb = clamp_probability(psi[runner], p_clamp)
    r = 0.5 * sigma * (std_normal_quantile(ea) - std_normal_quantile(eb))
    return float(r), top


def proxy_radius_l1(c: ClassifierHandle, x, lam: float,
                    noise: NoiseBatch) -> tuple[float, int]:
    """Plug-in L1 radius lam * (E_A - E_B) under uniform noise on [-lam, lam]^d."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if noise.kind != NOISE_UNIFORM:
        raise ValueError("proxy_radius_l1 expects uniform noise")
    psi = soft_means(c, x, lam, noise)
    top, runner = _top_two(psi)
    return float(lam * (psi[top] - psi[runner])), top
