"""Scale-ascent optimizer against closed-form and grid-scan oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothcert.classifiers import (ClassifierHandle,
                                    DerivativeUnsupportedError,
                                    affine_softmax_classifier,
                                    constant_classifier,
                                    hard_halfspace_classifier,
                                    nested_ball_classifier,
                                    probit_halfspace_classifier)
from smoothcert.sigma_opt import (GRAD_ANALYTIC, GRAD_SCALAR_FD,
                                  RETURN_BEST_ITERATE, RETURN_FAITHFUL,
                                  SigmaOptConfig, grad_sigma, grid_search_sigma,
                                  optimize_sigma, sigma_grid)
from smoothcert.smoothing import NoiseBatch, draw_noise, proxy_radius
from smoothcert.stats import clamp_probability, std_normal_quantile


def ball_radius_true(sigma: float, rho: float = 1.0) -> float:
    """Analytic plug-in radius of the ball classifier at the origin, d=2."""
    psi = 1.0 - math.exp(-rho * rho / (2.0 * sigma * sigma))
    return sigma * std_normal_quantile(clamp_probability(psi))


def counting(c):
    """Copy of c that counts its probs and input_grads calls."""
    calls = {"probs": 0, "grads": 0}

    def probs_fn(points):
        calls["probs"] += 1
        return c.probs_fn(points)

    def grad_fn(points):
        calls["grads"] += 1
        return c.grad_fn(points)

    return ClassifierHandle(c.kind, c.dim, c.num_classes, probs_fn, grad_fn), calls


class TestConfig:
    def test_bounds_ordering_enforced(self):
        with pytest.raises(ValueError):
            SigmaOptConfig(sigma0=0.25, sigma_min=0.5, sigma_max=2.0)
        with pytest.raises(ValueError):
            SigmaOptConfig(sigma0=3.0, sigma_max=2.0)
        with pytest.raises(ValueError):
            SigmaOptConfig(sigma0=0.25, grad_mode="newton")

    @pytest.mark.parametrize("field", ["sigma0", "step_alpha", "sigma_min",
                                       "sigma_max", "fd_step"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            SigmaOptConfig(**{"sigma0": 0.25, field: value})


class TestOptimizeSigma:
    def test_zero_iterations(self):
        c = constant_classifier([0.8, 0.2], dim=2)
        cfg = SigmaOptConfig(sigma0=0.4, iters_k=0, n_samples=10, seed=1)
        sigma_star, trace = optimize_sigma(c, [0.0, 0.0], cfg)
        assert sigma_star == 0.4
        assert len(trace) == 1

    def test_trace_length_is_k_plus_one(self):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        cfg = SigmaOptConfig(sigma0=0.3, iters_k=25, n_samples=50, seed=2)
        _, trace = optimize_sigma(c, [1.0, 0.0], cfg)
        assert len(trace) == 26
        assert [e.iteration for e in trace] == list(range(26))

    def test_probit_monotone_objective_climbs_to_sigma_max(self):
        # R(sigma) = sigma / sqrt(s^2 + sigma^2) increases toward sigma_max;
        # R(2) = 2/sqrt(4.25) = 0.970 far above R(0.25) = 0.447
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        cfg = SigmaOptConfig(sigma0=0.25, step_alpha=0.05, iters_k=400,
                             n_samples=2000, sigma_max=2.0,
                             grad_mode=GRAD_SCALAR_FD, seed=0)
        noise = draw_noise(np.random.default_rng(77), 2000, 2)
        sigma_star, trace = optimize_sigma(c, [1.0, 0.0], cfg, noise=noise)
        assert sigma_star > 1.9
        assert trace[-1].proxy_radius > 2.0 * trace[0].proxy_radius
        assert trace[-1].proxy_radius == pytest.approx(2.0 / math.sqrt(4.25),
                                                       rel=0.02)

    def test_ball_best_iterate_near_grid_scan_max(self):
        # 4000-point scan of the analytic objective is the oracle
        grid = np.linspace(0.05, 2.0, 4000)
        vals = [ball_radius_true(s) for s in grid]
        best_idx = int(np.argmax(vals))
        r_star, s_star = vals[best_idx], grid[best_idx]
        c = nested_ball_classifier(1.0, dim=2)
        cfg = SigmaOptConfig(sigma0=0.5, step_alpha=0.01, iters_k=500,
                             n_samples=10_000, sigma_min=0.05, sigma_max=2.0,
                             grad_mode=GRAD_SCALAR_FD,
                             return_mode=RETURN_BEST_ITERATE, fd_step=1e-3)
        noise = draw_noise(np.random.default_rng(1234), 10_000, 2)
        sigma_best, trace = optimize_sigma(c, [0.0, 0.0], cfg, noise=noise)
        assert trace.best().proxy_radius >= 0.90 * r_star
        assert abs(sigma_best - s_star) <= 0.10 * s_star + 0.05

    def test_best_iterate_never_below_start(self):
        rng = np.random.default_rng(55)
        for trial in range(50):
            w = rng.normal(size=2)
            w /= np.linalg.norm(w)
            c = probit_halfspace_classifier(w, rng.normal() * 0.3,
                                            rng.uniform(0.2, 1.0))
            x = rng.normal(size=2)
            cfg = SigmaOptConfig(sigma0=rng.uniform(0.1, 1.5),
                                 step_alpha=10 ** rng.uniform(-4, -1),
                                 iters_k=10, n_samples=20,
                                 return_mode=RETURN_BEST_ITERATE,
                                 seed=trial)
            noise = draw_noise(np.random.default_rng(trial), 20, 2)
            _, trace = optimize_sigma(c, x, cfg, noise=noise)
            assert trace.best().proxy_radius >= trace[0].proxy_radius

    def test_bit_reproducible(self):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        cfg = SigmaOptConfig(sigma0=0.3, step_alpha=0.01, iters_k=30,
                             n_samples=40, seed=9)
        a = optimize_sigma(c, [0.6, 0.1], cfg)
        b = optimize_sigma(c, [0.6, 0.1], cfg)
        assert a[0] == b[0]
        assert a[1].entries == b[1].entries

    @settings(max_examples=40)
    @given(sigma0=st.floats(min_value=0.05, max_value=1.9),
           alpha=st.floats(min_value=1e-4, max_value=0.5),
           seed=st.integers(min_value=0, max_value=100))
    def test_iterates_stay_in_bounds(self, sigma0, alpha, seed):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.4)
        cfg = SigmaOptConfig(sigma0=sigma0, step_alpha=alpha, iters_k=8,
                             n_samples=8, sigma_min=0.05, sigma_max=1.9,
                             seed=seed)
        _, trace = optimize_sigma(c, [0.5, -0.3], cfg)
        for e in trace:
            assert cfg.sigma_min <= e.sigma <= cfg.sigma_max

    @pytest.mark.parametrize("mode,grads", [(GRAD_SCALAR_FD, 0), (GRAD_ANALYTIC, 7)])
    def test_one_probs_call_per_iterate(self, mode, grads):
        c, calls = counting(probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5))
        cfg = SigmaOptConfig(sigma0=0.3, step_alpha=0.01, iters_k=7,
                             n_samples=5, grad_mode=mode, seed=4)
        optimize_sigma(c, [0.6, 0.1], cfg)
        assert calls == {"probs": 8, "grads": grads}

    def test_zero_iterations_analytic_on_value_only(self):
        c = hard_halfspace_classifier([1.0, 0.0], 0.0)
        cfg = SigmaOptConfig(sigma0=0.4, iters_k=0, n_samples=10,
                             grad_mode=GRAD_ANALYTIC, seed=1)
        sigma_star, trace = optimize_sigma(c, [1.0, 0.0], cfg)
        assert sigma_star == 0.4 and len(trace) == 1

    def test_faithful_returns_last_iterate(self):
        c = nested_ball_classifier(1.0, dim=2)
        cfg = SigmaOptConfig(sigma0=0.5, step_alpha=0.05, iters_k=60,
                             n_samples=500, sigma_min=0.05,
                             return_mode=RETURN_FAITHFUL, seed=12)
        sigma_star, trace = optimize_sigma(c, [0.0, 0.0], cfg)
        assert sigma_star == trace[-1].sigma


BATCH_CLASSIFIERS = {
    "probit": lambda: probit_halfspace_classifier([1.0, 0.3], 0.1, 0.5),
    "constant": lambda: constant_classifier([0.7, 0.2, 0.1], dim=2),
    "ball": lambda: nested_ball_classifier(1.0, dim=2),
    "affine3": lambda: affine_softmax_classifier(
        [[1.0, 0.2], [-0.8, 0.5], [0.1, -1.0]], [0.1, -0.2, 0.05]),
}


class TestBatchedAscent:
    @pytest.mark.parametrize("name,mode", [
        (name, mode) for name in BATCH_CLASSIFIERS
        for mode in (GRAD_SCALAR_FD, GRAD_ANALYTIC)
        if not (name == "ball" and mode == GRAD_ANALYTIC)])  # ball: value-only
    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    @pytest.mark.parametrize("ret", [RETURN_FAITHFUL, RETURN_BEST_ITERATE])
    def test_batch_matches_lone_calls(self, name, mode, kind, ret):
        c = BATCH_CLASSIFIERS[name]()
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1.5, 1.5, size=(7, 2))
        # carried start scales as train_batch passes them, some out of bounds
        starts = rng.uniform(0.02, 2.5, size=7)
        cfg = SigmaOptConfig(sigma0=0.3, step_alpha=0.05, iters_k=12,
                             n_samples=4, sigma_min=0.1, sigma_max=2.0,
                             grad_mode=mode, return_mode=ret)
        noise = draw_noise(rng, 4, 2, kind, lead=(7,))
        stars, traces = optimize_sigma(c, xs, cfg, noise=noise, sigma0=starts)
        assert stars.shape == (7,) and len(traces) == 7
        for i in range(7):
            cfg_i = replace(cfg, sigma0=float(np.clip(starts[i], 0.1, 2.0)))
            star, trace = optimize_sigma(c, xs[i], cfg_i,
                                         noise=NoiseBatch(kind, noise.draws[i]))
            assert type(star) is float
            if mode == GRAD_SCALAR_FD:
                assert stars[i] == star
                assert traces[i].entries == trace.entries
                continue
            assert stars[i] == pytest.approx(star, rel=1e-12, abs=0)
            for a, b in zip(traces[i], trace):
                assert a.top_class == b.top_class
                assert a.sigma == pytest.approx(b.sigma, rel=1e-12, abs=0)
                assert a.proxy_radius == pytest.approx(b.proxy_radius, rel=1e-12,
                                                       abs=1e-300)

    @pytest.mark.parametrize("mode,grads", [(GRAD_SCALAR_FD, 0), (GRAD_ANALYTIC, 5)])
    def test_one_probs_call_per_iterate_for_the_batch(self, mode, grads):
        c, calls = counting(probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5))
        cfg = SigmaOptConfig(sigma0=0.3, step_alpha=0.01, iters_k=5,
                             n_samples=3, grad_mode=mode)
        optimize_sigma(c, np.zeros((9, 2)) + 0.5, cfg)
        assert calls == {"probs": 6, "grads": grads}

    def test_non_finite_start_scale_rejected(self):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        cfg = SigmaOptConfig(sigma0=0.3, iters_k=2, n_samples=3)
        with pytest.raises(ValueError):
            optimize_sigma(c, np.zeros((4, 2)), cfg,
                           sigma0=[0.3, math.nan, 0.3, 0.3])


class TestGradSigma:
    def test_constant_classifier_gradient_is_r_over_sigma(self):
        c = constant_classifier([0.9, 0.1], dim=2)
        noise = draw_noise(np.random.default_rng(3), 100, 2)
        sigma = 0.7
        r, _ = proxy_radius(c, [0.0, 0.0], sigma, noise)
        g = grad_sigma(c, [0.0, 0.0], sigma, noise, GRAD_ANALYTIC)
        assert g == pytest.approx(r / sigma, rel=1e-12)
        assert g >= 0.0

    def test_hard_margin_gradient_vanishes(self):
        # plug-in R for the hard halfspace equals the margin up to sampling,
        # so a secant wide enough to span many vote flips is nearly flat
        c = hard_halfspace_classifier([1.0, 0.0], 0.0)
        noise = draw_noise(np.random.default_rng(8), 100_000, 2)
        g = grad_sigma(c, [1.0, 0.0], 0.5, noise, GRAD_SCALAR_FD, fd_step=0.02)
        naive_slope = 1.0 / 0.5  # slope if the quantile gap were constant
        assert abs(g) < 0.1 * naive_slope

    def test_analytic_matches_fd_on_probit(self):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        noise = draw_noise(np.random.default_rng(77), 2000, 2)
        for sigma in (0.1, 0.3, 0.7, 1.0, 1.5):
            ga = grad_sigma(c, [1.0, 0.0], sigma, noise, GRAD_ANALYTIC)
            gf = grad_sigma(c, [1.0, 0.0], sigma, noise, GRAD_SCALAR_FD,
                            fd_step=1e-4)
            r, _ = proxy_radius(c, [1.0, 0.0], sigma, noise)
            if abs(r) > 0.01:
                assert ga == pytest.approx(gf, rel=1e-3)

    def test_clamped_means_contribute_zero_slope(self):
        # both means lie beyond the clamp, so the realized objective is sigma
        # times a constant quantile gap and its slope is R / sigma
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        noise = draw_noise(np.random.default_rng(2), 2000, 2)
        r, _ = proxy_radius(c, [2.2, 0.0], 0.3, noise)
        ga = grad_sigma(c, [2.2, 0.0], 0.3, noise, GRAD_ANALYTIC)
        gf = grad_sigma(c, [2.2, 0.0], 0.3, noise, GRAD_SCALAR_FD, fd_step=1e-4)
        assert ga == pytest.approx(r / 0.3, rel=1e-12)
        assert gf == pytest.approx(r / 0.3, rel=1e-9)

    def test_analytic_requires_derivatives(self):
        c = hard_halfspace_classifier([1.0, 0.0], 0.0)
        noise = draw_noise(np.random.default_rng(0), 10, 2)
        with pytest.raises(DerivativeUnsupportedError):
            grad_sigma(c, [1.0, 0.0], 0.5, noise, GRAD_ANALYTIC)


class TestGridSearch:
    def test_budget_of_200_single_sample_evaluations(self):
        grid = sigma_grid(1, 200, 1.0)
        assert len(grid) == 200
        assert grid[0] == pytest.approx(1.0 / 200)
        assert grid[-1] == pytest.approx(1.0)
        assert np.allclose(np.diff(grid), 1.0 / 200)

    def test_budget_divisibility_enforced(self):
        with pytest.raises(ValueError):
            sigma_grid(3, 200, 1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_grid_max_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="sigma_grid_max must be positive and finite"):
            sigma_grid(1, 200, bad)
        with pytest.raises(ValueError, match="sigma_grid_max must be positive and finite"):
            grid_search_sigma(constant_classifier([0.9, 0.1], dim=2), [0.0, 0.0], 1, 200,
                              sigma_grid_max=bad, rng=np.random.default_rng(0))

    def test_one_probs_call_for_the_grid(self):
        c, calls = counting(nested_ball_classifier(1.0, dim=2))
        grid_search_sigma(c, [0.0, 0.0], 4, 200, rng=np.random.default_rng(0))
        assert calls == {"probs": 1, "grads": 0}

    def test_constant_classifier_takes_largest_point(self):
        # R = sigma * const is linear in sigma
        c = constant_classifier([0.9, 0.1], dim=2)
        s = grid_search_sigma(c, [0.0, 0.0], 1, 200, sigma_grid_max=1.0,
                              rng=np.random.default_rng(0))
        assert s == pytest.approx(1.0)

    def test_ball_argmax_within_one_spacing(self):
        grid = np.linspace(0.05, 2.0, 4000)
        s_star = grid[int(np.argmax([ball_radius_true(s) for s in grid]))]
        c = nested_ball_classifier(1.0, dim=2)
        noise = draw_noise(np.random.default_rng(4), 50_000, 2)
        s_hat = grid_search_sigma(c, [0.0, 0.0], 50_000, 500_000,
                                  sigma_grid_max=1.0, noise=noise)
        spacing = 1.0 / 10
        assert abs(s_hat - s_star) <= spacing

    def test_grid_never_beats_best_iterate_by_more_than_one_spacing(self):
        # weak comparison bound in objective units, on the analytic curves
        c = nested_ball_classifier(1.0, dim=2)
        n, m = 2000, 20
        noise = draw_noise(np.random.default_rng(6), n, 2)
        s_grid = grid_search_sigma(c, [0.0, 0.0], n, n * m,
                                   sigma_grid_max=1.0, noise=noise)
        cfg = SigmaOptConfig(sigma0=0.5, step_alpha=0.01, iters_k=m,
                             n_samples=n, sigma_min=0.05, sigma_max=2.0,
                             return_mode=RETURN_BEST_ITERATE, fd_step=1e-3)
        s_best, _ = optimize_sigma(c, [0.0, 0.0], cfg, noise=noise)
        grid_pts = sigma_grid(n, n * m, 1.0)
        true_vals = [ball_radius_true(float(s)) for s in grid_pts]
        max_step = max(abs(b - a) for a, b in zip(true_vals, true_vals[1:]))
        assert ball_radius_true(s_grid) <= ball_radius_true(s_best) + max_step
