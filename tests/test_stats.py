"""Oracle and property tests for the special functions and binomial bounds.

Reference values are frozen from independent routes: high-order quadrature of
the normal density, bisection on the CDF, the closed form alpha**(1/n) for
the all-successes confidence bound, and scipy's beta-quantile Clopper-Pearson
as a cross-implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats as sstats

from smoothcert.stats import (P_CLAMP, binom_lower_confidence,
                              clamp_probability, std_normal_cdf, std_normal_pdf,
                              std_normal_quantile)


def _phi_by_quadrature(z: float) -> float:
    """Oracle: Phi(z) = 0.5 + integral of the density over [0, z], 50-point
    Gauss-Legendre per half-unit panel (error far below 1e-13)."""
    nodes, weights = np.polynomial.legendre.leggauss(50)
    lo, hi = (0.0, z) if z >= 0 else (z, 0.0)
    total = 0.0
    edges = np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / 0.5)) + 1))
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = mid + half * nodes
        total += half * float(np.sum(weights * np.exp(-0.5 * x * x)))
    total /= math.sqrt(2.0 * math.pi)
    return 0.5 + total if z >= 0 else 0.5 - total


def _quantile_by_bisection(p: float) -> float:
    """Oracle: invert std_normal_cdf by plain bisection on [-40, 40]."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_phi_one_frozen(self):
        # quadrature oracle gives 0.841344746068543 at z=1
        assert std_normal_cdf(1.0) == pytest.approx(0.841344746068543, abs=1e-12)
        assert abs(std_normal_cdf(1.0) - _phi_by_quadrature(1.0)) < 1e-13

    def test_negative_reflection(self):
        assert std_normal_cdf(-1.0) == pytest.approx(1.0 - std_normal_cdf(1.0),
                                                     abs=1e-15)

    @pytest.mark.parametrize("z", [-5.0, -2.5, -0.3, 0.7, 2.0, 4.5])
    def test_matches_quadrature_oracle(self, z):
        assert abs(std_normal_cdf(z) - _phi_by_quadrature(z)) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            std_normal_cdf(float("nan"))
        with pytest.raises(ValueError):
            std_normal_cdf(float("inf"))

    @given(st.floats(min_value=-8.0, max_value=6.0))
    def test_strictly_increasing(self, z):
        # beyond z ~ 7.9 a 0.01 step moves Phi by less than one ulp of 1.0,
        # so strictness is only checkable on the representable range
        assert std_normal_cdf(z + 0.01) > std_normal_cdf(z)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_inverse_of_phi_one(self):
        # bisection oracle on std_normal_cdf puts the root at 1.0 for
        # p = 0.841344746068543
        p = 0.841344746068543
        assert std_normal_quantile(p) == pytest.approx(1.0, abs=1e-10)
        assert _quantile_by_bisection(p) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.4])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            std_normal_quantile(p)

    @given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_roundtrip_through_cdf(self, p):
        assert abs(std_normal_cdf(std_normal_quantile(p)) - p) < 1e-10

    def test_roundtrip_on_z_grid(self):
        zs = np.arange(-6.0, 6.0 + 1e-12, 0.01)
        worst = max(abs(std_normal_quantile(std_normal_cdf(z)) - z) for z in zs)
        assert worst <= 1e-8

    @given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_matches_scipy(self, p):
        assert std_normal_quantile(p) == pytest.approx(sstats.norm.ppf(p),
                                                       abs=1e-8)


class TestClamp:
    def test_interior_untouched(self):
        assert clamp_probability(0.37) == 0.37

    def test_edges_pulled_in(self):
        assert clamp_probability(0.0) == P_CLAMP
        assert clamp_probability(1.0) == 1.0 - P_CLAMP


class TestScalarPath:
    """A plain float takes a path without array wrapping; it must give the
    array path's bits and errors."""

    SWEEP = [P_CLAMP, 0.5, 1.0 - 1e-16, 1e-300, 5e-324, 1.0 - P_CLAMP,
             0.841344746068543, *np.random.default_rng(19).random(500).tolist(),
             *(np.random.default_rng(20).random(100) ** 60).tolist()]

    @staticmethod
    def bits(v):
        return np.float64(v).view(np.int64)

    def test_quantile_equals_the_array_path(self):
        for p in self.SWEEP:
            got = std_normal_quantile(p)
            assert type(got) is float
            assert self.bits(got) == self.bits(std_normal_quantile(np.array([p]))[0])
            assert self.bits(got) == self.bits(std_normal_quantile(np.array(p)))

    def test_clamp_equals_the_array_path(self):
        for p in [*self.SWEEP, 0.0, -0.0, 1.0, -3.0, 7.5, 1e-5, math.inf, -math.inf]:
            got = clamp_probability(p)
            assert type(got) is float
            assert self.bits(got) == self.bits(clamp_probability(np.array([p]))[0])
        assert math.isnan(clamp_probability(math.nan))

    @pytest.mark.parametrize("p", [0.0, -0.0, 1.0, math.nan, -0.5, 1.5, math.inf,
                                   -math.inf])
    def test_quantile_domain_errors_match(self, p):
        message = f"p must lie strictly in (0, 1), got {p!r}"
        with pytest.raises(ValueError) as float_error:
            std_normal_quantile(p)
        assert str(float_error.value) == message
        with pytest.raises(ValueError, match=r"p must lie strictly in \(0, 1\)"):
            std_normal_quantile(np.array([p]))

    def test_numpy_scalars_and_zero_d_arrays_keep_the_array_path(self):
        for p in (0.3, P_CLAMP, 1.0 - 1e-16):
            for wrapped in (np.float64(p), np.array(p)):
                z, q = std_normal_quantile(wrapped), clamp_probability(wrapped)
                assert type(z) is float and type(q) is float
                assert self.bits(z) == self.bits(std_normal_quantile(p))
                assert self.bits(q) == self.bits(clamp_probability(p))
        for p in (np.float64(0.0), np.array(1.0)):
            with pytest.raises(ValueError) as error:
                std_normal_quantile(p)
            assert str(error.value) == f"p must lie strictly in (0, 1), got {p!r}"


class TestBinomLowerConfidence:
    def test_all_successes_small(self):
        # closed form: alpha ** (1/n)
        assert binom_lower_confidence(10, 10, 0.05) == pytest.approx(
            0.05 ** 0.1, abs=1e-12)

    def test_no_successes(self):
        assert binom_lower_confidence(0, 50, 0.001) == 0.0

    def test_all_successes_hundred(self):
        assert binom_lower_confidence(100, 100, 0.001) == pytest.approx(
            0.001 ** 0.01, abs=1e-12)

    @pytest.mark.parametrize("k,n,alpha", [
        (7, 10, 0.05), (73, 100, 0.001), (1, 2, 0.5), (999, 1000, 0.01),
        (52_000, 100_000, 0.001),
    ])
    def test_matches_beta_quantile_oracle(self, k, n, alpha):
        # classic Clopper-Pearson closed form through the beta distribution
        ref = sstats.beta.ppf(alpha, k, n - k + 1)
        assert binom_lower_confidence(k, n, alpha) == pytest.approx(ref, abs=1e-9)

    def test_monotone_in_k_and_alpha(self):
        # exhaustive for n <= 50: nondecreasing in k; nondecreasing in alpha
        # (a smaller failure probability can only push the bound down)
        for n in range(1, 51):
            prev = -1.0
            for k in range(n + 1):
                lo_strict = binom_lower_confidence(k, n, 0.001)
                lo_loose = binom_lower_confidence(k, n, 0.05)
                assert lo_strict >= prev
                assert lo_loose >= lo_strict
                prev = lo_strict

    def test_coverage_simulation(self):
        # fraction of simulated Bin(100, 0.7) draws whose bound stays below
        # the truth must be >= 1 - alpha, up to 3 binomial standard errors
        n, p_true, alpha, trials = 100, 0.7, 0.05, 100_000
        bounds = np.array([binom_lower_confidence(k, n, alpha)
                           for k in range(n + 1)])
        rng = np.random.default_rng(20240817)
        ks = rng.binomial(n, p_true, size=trials)
        hit = float(np.mean(bounds[ks] <= p_true))
        slack = 3.0 * math.sqrt(alpha * (1 - alpha) / trials)
        assert hit >= 1.0 - alpha - slack

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binom_lower_confidence(-1, 10, 0.05)
        with pytest.raises(ValueError):
            binom_lower_confidence(11, 10, 0.05)
        with pytest.raises(ValueError):
            binom_lower_confidence(5, 0, 0.05)
        with pytest.raises(ValueError):
            binom_lower_confidence(5, 10, 0.0)

    @pytest.mark.parametrize("k,n", [(2.5, 10), (2, 10.5)])
    def test_non_integer_counts_rejected(self, k, n):
        with pytest.raises(ValueError, match=f"k and n must be integers, got k={k}, n={n}"):
            binom_lower_confidence(k, n, 0.05)

    @given(st.integers(min_value=1, max_value=300))
    def test_k_equals_n_closed_form(self, n):
        for alpha in (0.05, 0.001):
            assert binom_lower_confidence(n, n, alpha) == pytest.approx(
                alpha ** (1.0 / n), abs=1e-12)
