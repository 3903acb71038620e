"""Scale-ascent optimizer against closed-form and grid-scan oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothcert import sigma_opt
from smoothcert.classifiers import (ClassifierHandle,
                                    DerivativeUnsupportedError,
                                    affine_softmax_classifier,
                                    constant_classifier,
                                    hard_halfspace_classifier,
                                    nested_ball_classifier,
                                    probit_halfspace_classifier)
from smoothcert.sigma_opt import (GRAD_ANALYTIC, GRAD_SCALAR_FD,
                                  RETURN_BEST_ITERATE, RETURN_FAITHFUL,
                                  SigmaOptConfig, optimize_sigma)
from smoothcert.smoothing import NoiseBatch, draw_noise, plugin_radii, proxy_radius
from smoothcert.stats import clamp_probability, std_normal_quantile


def ball_radius_true(sigma: float, rho: float = 1.0) -> float:
    """Analytic plug-in radius of the ball classifier at the origin, d=2."""
    psi = 1.0 - math.exp(-rho * rho / (2.0 * sigma * sigma))
    return sigma * std_normal_quantile(clamp_probability(psi))


def seeded_noise(cfg, dim, seed=0, lead=()):
    """The gaussian draws the optimize-sigma command makes for --seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return draw_noise(rng, cfg.n_samples, dim, lead=lead)


def counting(c):
    """Copy of c that counts its probs and input_grads calls and their points."""
    calls = {"probs": 0, "grads": 0}
    points = {"probs": 0, "grads": 0}

    def probs_fn(pts):
        calls["probs"] += 1
        points["probs"] += len(pts)
        return c.probs_fn(pts)

    def grad_fn(pts):
        calls["grads"] += 1
        points["grads"] += len(pts)
        return c.grad_fn(pts)

    return ClassifierHandle(c.kind, c.dim, c.num_classes, probs_fn, grad_fn), calls, points


class TestConfig:
    def test_bounds_ordering_enforced(self):
        with pytest.raises(ValueError):
            SigmaOptConfig(sigma_min=0.5, sigma_max=0.25)
        with pytest.raises(ValueError):
            SigmaOptConfig(sigma_min=0.0)
        with pytest.raises(ValueError):
            SigmaOptConfig(grad_mode="newton")

    @pytest.mark.parametrize("kw,message", [
        ({"iters_k": -1}, "iters_k must be >= 0, got -1"),
        ({"n_samples": 0}, "n_samples must be >= 1, got 0"),
        ({"return_mode": "last"}, "unknown return mode 'last'"),
    ])
    def test_bad_settings_rejected(self, kw, message):
        with pytest.raises(ValueError) as info:
            SigmaOptConfig(**kw)
        assert str(info.value) == message

    @pytest.mark.parametrize("field", ["step_alpha", "sigma_min", "sigma_max",
                                       "fd_step"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            SigmaOptConfig(**{field: value})


class TestOptimizeSigma:
    def test_zero_iterations(self):
        c = constant_classifier([0.8, 0.2], dim=2)
        cfg = SigmaOptConfig(iters_k=0, n_samples=10)
        sigma_star, trace = optimize_sigma(c, [0.0, 0.0], cfg, seeded_noise(cfg, 2, 1),
                                           0.4)
        assert sigma_star == 0.4
        assert len(trace) == 1

    def test_trace_length_is_k_plus_one(self):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        cfg = SigmaOptConfig(iters_k=25, n_samples=50)
        _, trace = optimize_sigma(c, [1.0, 0.0], cfg, seeded_noise(cfg, 2, 2), 0.3)
        assert len(trace) == 26
        assert [e.iteration for e in trace] == list(range(26))

    def test_probit_monotone_objective_climbs_to_sigma_max(self):
        # R(sigma) = sigma / sqrt(s^2 + sigma^2) increases toward sigma_max;
        # R(2) = 2/sqrt(4.25) = 0.970 far above R(0.25) = 0.447
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        cfg = SigmaOptConfig(step_alpha=0.05, iters_k=400, n_samples=2000,
                             sigma_max=2.0, grad_mode=GRAD_SCALAR_FD)
        noise = draw_noise(np.random.default_rng(77), 2000, 2)
        sigma_star, trace = optimize_sigma(c, [1.0, 0.0], cfg, noise=noise,
                                           sigma0=0.25)
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
        cfg = SigmaOptConfig(step_alpha=0.01, iters_k=500, n_samples=10_000,
                             sigma_min=0.05, sigma_max=2.0,
                             grad_mode=GRAD_SCALAR_FD,
                             return_mode=RETURN_BEST_ITERATE, fd_step=1e-3)
        noise = draw_noise(np.random.default_rng(1234), 10_000, 2)
        sigma_best, trace = optimize_sigma(c, [0.0, 0.0], cfg, noise=noise,
                                           sigma0=0.5)
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
            sigma0 = rng.uniform(0.1, 1.5)
            cfg = SigmaOptConfig(step_alpha=10 ** rng.uniform(-4, -1),
                                 iters_k=10, n_samples=20,
                                 return_mode=RETURN_BEST_ITERATE)
            noise = draw_noise(np.random.default_rng(trial), 20, 2)
            _, trace = optimize_sigma(c, x, cfg, noise=noise, sigma0=sigma0)
            assert trace.best().proxy_radius >= trace[0].proxy_radius

    def test_bit_reproducible(self):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        cfg = SigmaOptConfig(step_alpha=0.01, iters_k=30, n_samples=40)
        a = optimize_sigma(c, [0.6, 0.1], cfg, seeded_noise(cfg, 2, 9), 0.3)
        b = optimize_sigma(c, [0.6, 0.1], cfg, seeded_noise(cfg, 2, 9), 0.3)
        assert a[0] == b[0]
        assert a[1].entries == b[1].entries

    @settings(max_examples=40)
    @given(sigma0=st.floats(min_value=0.05, max_value=1.9),
           alpha=st.floats(min_value=1e-4, max_value=0.5),
           seed=st.integers(min_value=0, max_value=100))
    def test_iterates_stay_in_bounds(self, sigma0, alpha, seed):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.4)
        cfg = SigmaOptConfig(step_alpha=alpha, iters_k=8, n_samples=8,
                             sigma_min=0.05, sigma_max=1.9)
        _, trace = optimize_sigma(c, [0.5, -0.3], cfg, seeded_noise(cfg, 2, seed),
                                  sigma0)
        for e in trace:
            assert cfg.sigma_min <= e.sigma <= cfg.sigma_max

    @pytest.mark.parametrize("mode,grads", [(GRAD_SCALAR_FD, 0), (GRAD_ANALYTIC, 7)])
    def test_one_probs_call_per_iterate(self, mode, grads):
        c, calls, points = counting(probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5))
        cfg = SigmaOptConfig(step_alpha=0.01, iters_k=7, n_samples=5, grad_mode=mode)
        optimize_sigma(c, [0.6, 0.1], cfg, seeded_noise(cfg, 2, 4), 0.3)
        assert calls == {"probs": 8, "grads": grads}
        # K=7, n=5: scalar_fd scores 3Kn + n points; analytic scores (K+1)n
        # points and takes Kn gradients
        assert points == ({"probs": 110, "grads": 0} if mode == GRAD_SCALAR_FD
                          else {"probs": 40, "grads": 35})

    def test_zero_iterations_analytic_on_value_only(self):
        c = hard_halfspace_classifier([1.0, 0.0], 0.0)
        cfg = SigmaOptConfig(iters_k=0, n_samples=10, grad_mode=GRAD_ANALYTIC)
        sigma_star, trace = optimize_sigma(c, [1.0, 0.0], cfg, seeded_noise(cfg, 2, 1),
                                           0.4)
        assert sigma_star == 0.4 and len(trace) == 1

    def test_faithful_returns_last_iterate(self):
        c = nested_ball_classifier(1.0, dim=2)
        cfg = SigmaOptConfig(step_alpha=0.05, iters_k=60, n_samples=500,
                             sigma_min=0.05, return_mode=RETURN_FAITHFUL)
        sigma_star, trace = optimize_sigma(c, [0.0, 0.0], cfg, seeded_noise(cfg, 2, 12),
                                           0.5)
        assert sigma_star == trace[-1].sigma

    def test_grid_never_beats_best_iterate_by_more_than_one_spacing(self):
        # weak comparison bound in objective units, on the analytic curves; the
        # grid of m scales shares the ascent's n draws and is scored in one call
        c = nested_ball_classifier(1.0, dim=2)
        n, m = 2000, 20
        noise = draw_noise(np.random.default_rng(6), n, 2)
        grid_pts = (1.0 / m) * np.arange(1, m + 1)
        grid_radii, _, _, _ = plugin_radii(c, [0.0, 0.0], grid_pts, noise)
        s_grid = float(grid_pts[int(np.argmax(grid_radii))])
        cfg = SigmaOptConfig(step_alpha=0.01, iters_k=m, n_samples=n,
                             sigma_min=0.05, sigma_max=2.0,
                             return_mode=RETURN_BEST_ITERATE, fd_step=1e-3)
        s_best, _ = optimize_sigma(c, [0.0, 0.0], cfg, noise=noise, sigma0=0.5)
        true_vals = [ball_radius_true(float(s)) for s in grid_pts]
        max_step = max(abs(b - a) for a, b in zip(true_vals, true_vals[1:]))
        assert ball_radius_true(s_grid) <= ball_radius_true(s_best) + max_step


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
        cfg = SigmaOptConfig(step_alpha=0.05, iters_k=12, n_samples=4,
                             sigma_min=0.1, sigma_max=2.0, grad_mode=mode,
                             return_mode=ret)
        noise = draw_noise(rng, 4, 2, kind, lead=(7,))
        stars, traces = optimize_sigma(c, xs, cfg, noise=noise, sigma0=starts)
        assert stars.shape == (7,) and len(traces) == 7
        for i in range(7):
            star, trace = optimize_sigma(c, xs[i], cfg,
                                         noise=NoiseBatch(kind, noise.draws[i]),
                                         sigma0=float(np.clip(starts[i], 0.1, 2.0)))
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
        c, calls, points = counting(probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5))
        cfg = SigmaOptConfig(step_alpha=0.01, iters_k=5, n_samples=3, grad_mode=mode)
        optimize_sigma(c, np.zeros((9, 2)) + 0.5, cfg, seeded_noise(cfg, 2, lead=(9,)),
                       0.3)
        assert calls == {"probs": 6, "grads": grads}
        # K=5, n=3: the per-input budget, 3Kn + n or (K+1)n and Kn, times 9 inputs
        assert points == ({"probs": 432, "grads": 0} if mode == GRAD_SCALAR_FD
                          else {"probs": 162, "grads": 135})

    def test_non_finite_start_scale_rejected(self):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        cfg = SigmaOptConfig(iters_k=2, n_samples=3)
        with pytest.raises(ValueError):
            optimize_sigma(c, np.zeros((4, 2)), cfg, seeded_noise(cfg, 2, lead=(4,)),
                           sigma0=[0.3, math.nan, 0.3, 0.3])

    @pytest.mark.parametrize("sigma0", [0.0, -1.0, math.nan, math.inf])
    def test_bad_scalar_start_rejected(self, sigma0):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        cfg = SigmaOptConfig(iters_k=2, n_samples=3)
        with pytest.raises(ValueError, match="sigma0 must be positive and finite"):
            optimize_sigma(c, [0.5, 0.0], cfg, seeded_noise(cfg, 2), sigma0)

    @pytest.mark.parametrize("start,bound", [(3.0, 2.0), (0.01, 0.1)])
    def test_start_out_of_bounds_is_projected(self, start, bound):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        cfg = SigmaOptConfig(step_alpha=0.05, iters_k=6, n_samples=8,
                             sigma_min=0.1, sigma_max=2.0)
        out = optimize_sigma(c, [0.5, 0.0], cfg, seeded_noise(cfg, 2, 3), start)
        at_bound = optimize_sigma(c, [0.5, 0.0], cfg, seeded_noise(cfg, 2, 3), bound)
        assert out[0] == at_bound[0] and out[1][0].sigma == bound
        assert out[1].entries == at_bound[1].entries


def grad_sigma(c, x, sigma, noise, mode, fd_step=1e-3) -> float:
    """The scale slope the ascent takes at one point and one scale."""
    return float(sigma_opt._score(c, np.asarray(x, dtype=float), np.asarray(sigma),
                                  noise, mode, fd_step)[2])


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
