"""Standard-normal special functions and the exact Clopper-Pearson bound.

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
    scalar = type(p) is float  # skips the array wrapping; ndtri gives the same bits
    q = p if scalar else np.asarray(p, dtype=float)
    if not (0.0 < q < 1.0 if scalar else np.all((q > 0.0) & (q < 1.0))):
        raise ValueError(f"p must lie strictly in (0, 1), got {p!r}")
    z = sps.ndtri(q)
    return float(z) if z.ndim == 0 else z


def clamp_probability(p):
    """Pull p into [P_CLAMP, 1 - P_CLAMP] so the normal quantile stays finite."""
    if type(p) is float and p == p:  # min/max select what np.clip selects
        return min(max(p, P_CLAMP), 1.0 - P_CLAMP)
    q = np.clip(np.asarray(p, dtype=float), P_CLAMP, 1.0 - P_CLAMP)
    return float(q) if q.ndim == 0 else q


def binom_lower_confidence(k: int, n: int, alpha: float) -> float:
    """One-sided Clopper-Pearson lower confidence bound on a binomial proportion.

    Returns the largest p such that observing k or more successes out of n
    still has probability alpha under Bin(n, p); equivalently, the bound
    satisfies P(p <= p_true) >= 1 - alpha over repeated experiments. That p
    is the alpha quantile of Beta(k, n - k + 1).
    """
    if int(k) != k or int(n) != n:
        raise ValueError(f"k and n must be integers, got k={k!r}, n={n!r}")
    k, n = int(k), int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    if k == 0:
        return 0.0
    return float(sps.betaincinv(k, n - k + 1, alpha))
