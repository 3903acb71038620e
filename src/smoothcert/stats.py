"""Standard-normal special functions and exact binomial statistics.

Thin validated wrappers: the normal quantile and the Clopper-Pearson bound
come from ``scipy.special``, the CDF and density from ``math``. Monte Carlo
probability estimates produced elsewhere must pass through
``clamp_probability`` before reaching ``std_normal_quantile``, which is
singular at 0 and 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sps

__all__ = [
    "P_CLAMP",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "clamp_probability",
    "binom_lower_confidence",
    "binom_two_sided_pvalue",
]

# Default clamp applied to estimated probabilities before the normal quantile.
P_CLAMP = 1e-4

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def std_normal_cdf(z: float) -> float:
    """Phi(z), the standard normal CDF, via the complementary error function."""
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    return 0.5 * math.erfc(-z / _SQRT2)


def std_normal_pdf(z):
    """phi(z), the standard normal density, elementwise over arrays."""
    z = np.asarray(z, dtype=float)
    d = np.exp(-0.5 * z * z) / _SQRT_2PI
    return float(d) if d.ndim == 0 else d


def std_normal_quantile(p):
    """Phi^{-1}(p) for p strictly inside (0, 1), elementwise over arrays."""
    q = np.asarray(p, dtype=float)
    if not np.all((q > 0.0) & (q < 1.0)):
        raise ValueError(f"p must lie strictly in (0, 1), got {p!r}")
    z = sps.ndtri(q)
    return float(z) if z.ndim == 0 else z


def clamp_probability(p, clamp: float = P_CLAMP):
    """Pull p into [clamp, 1 - clamp] so the normal quantile stays finite."""
    if not 0.0 < clamp < 0.5:
        raise ValueError(f"clamp must lie in (0, 0.5), got {clamp!r}")
    q = np.clip(np.asarray(p, dtype=float), clamp, 1.0 - clamp)
    return float(q) if q.ndim == 0 else q


def _validate_counts(k: int, n: int) -> tuple[int, int]:
    if int(k) != k or int(n) != n:
        raise ValueError(f"k and n must be integers, got k={k!r}, n={n!r}")
    k, n = int(k), int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    return k, n


def binom_lower_confidence(k: int, n: int, alpha: float) -> float:
    """One-sided Clopper-Pearson lower confidence bound on a binomial proportion.

    Returns the largest p such that observing k or more successes out of n
    still has probability alpha under Bin(n, p); equivalently, the bound
    satisfies P(p <= p_true) >= 1 - alpha over repeated experiments. That p
    is the alpha quantile of Beta(k, n - k + 1).
    """
    k, n = _validate_counts(k, n)
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    if k == 0:
        return 0.0
    return float(sps.betaincinv(k, n - k + 1, alpha))


def binom_two_sided_pvalue(k: int, n: int, p0: float) -> float:
    """Exact two-sided binomial p-value for H0: success probability = p0.

    Uses the minimum-likelihood convention: the p-value sums the probability
    of every outcome no more likely than the observed k (with a 1e-7 relative
    slack absorbing ties that differ only in rounding).
    """
    k, n = _validate_counts(k, n)
    p0 = float(p0)
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"p0 must lie strictly in (0, 1), got {p0!r}")
    i = np.arange(n + 1)
    log_pmf = (sps.gammaln(n + 1) - sps.gammaln(i + 1) - sps.gammaln(n - i + 1)
               + i * math.log(p0) + (n - i) * math.log1p(-p0))
    total = np.exp(log_pmf[log_pmf <= log_pmf[k] + 1e-7]).sum()
    return min(1.0, float(total))
