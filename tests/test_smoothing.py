"""Monte Carlo prediction, sound certification, and the plug-in radius."""

import math
from dataclasses import replace

import numpy as np
import pytest

from smoothcert.classifiers import (TinyMLP, affine_softmax_classifier,
                                    constant_classifier,
                                    hard_halfspace_classifier, mlp_classifier,
                                    nested_ball_classifier,
                                    probit_halfspace_classifier)
from smoothcert.smoothing import (ABSTAIN, CertificationOutcome,
                                  GaussianCertConfig, NoiseBatch, certify_l1,
                                  certify_l2, draw_noise, plugin_radii,
                                  proxy_radius, proxy_radius_l1, rng_for_input,
                                  smooth_predict, vote_counts)
from smoothcert.stats import P_CLAMP, binom_lower_confidence, std_normal_quantile


class TestConfigAndOutcome:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaussianCertConfig(sigma=0.0)
        with pytest.raises(ValueError):
            GaussianCertConfig(sigma=0.5, n0=0)
        with pytest.raises(ValueError):
            GaussianCertConfig(sigma=0.5, n0=100, n_cert=50)
        with pytest.raises(ValueError):
            GaussianCertConfig(sigma=0.5, alpha_fail=1.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            GaussianCertConfig(sigma=sigma)

    def test_outcome_invariants(self):
        with pytest.raises(ValueError):
            CertificationOutcome(ABSTAIN, 0.5, 0.4, 0.25, "l2", 100)
        out = CertificationOutcome(ABSTAIN, 0.0, 0.4, 0.25, "l2", 100)
        assert out.abstained and out.radius == 0.0

    def test_noise_batch_validation(self):
        with pytest.raises(ValueError):
            NoiseBatch("poisson", np.zeros((3, 2)))
        with pytest.raises(ValueError):
            NoiseBatch("gaussian", np.zeros((0, 2)))


class TestSeeding:
    def test_counter_based_streams_are_reproducible(self):
        a = rng_for_input(7, 3).standard_normal(5)
        b = rng_for_input(7, 3).standard_normal(5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    def test_batched_draw_consumes_like_one_draw_per_input(self, kind):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        batch = draw_noise(a, 6, 3, kind, lead=(4,))
        assert batch.draws.shape == (4, 6, 3) and len(batch) == 6
        each = np.stack([draw_noise(b, 6, 3, kind).draws for _ in range(4)])
        assert np.array_equal(batch.draws, each)
        assert a.random() == b.random()

    def test_streams_differ_across_inputs_and_channels(self):
        a = rng_for_input(7, 3).standard_normal(5)
        b = rng_for_input(7, 4).standard_normal(5)
        c = rng_for_input(7, 3, stream=1).standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


def frozen_vote_counts(c, x, scale, n, rng, kind="gaussian"):
    """vote_counts before hard labels: the argmax of probs at x + scale * draws,
    built out of place, in batches of 65536 draws."""
    x = np.asarray(x, dtype=float)
    counts = np.zeros(c.num_classes, dtype=np.int64)
    remaining = int(n)
    while remaining > 0:
        m = min(1 << 16, remaining)
        draws = draw_noise(rng, m, c.dim, kind).draws
        votes = np.argmax(c.probs(x[None, :] + scale * draws), axis=1)
        counts += np.bincount(votes, minlength=c.num_classes)
        remaining -= m
    return counts


# Every built-in at a point and scale where the votes split.
VOTE_CASES = {
    "constant": (lambda: constant_classifier([0.5, 0.5], dim=2), [0.3, -0.1], 0.5),
    "affine_softmax": (lambda: affine_softmax_classifier(
        [[1.0, 0.3], [-0.5, 0.8], [0.2, -1.0]], [0.0, 0.1, -0.2]), [0.1, 0.05], 0.7),
    "hard_halfspace": (lambda: hard_halfspace_classifier([0.6, 0.8], 0.1),
                       [0.1, 0.05], 0.3),
    "probit_halfspace": (lambda: probit_halfspace_classifier([0.6, 0.8], 0.1, 0.5),
                         [0.2, -0.05], 1.0 / 3.0),
    "nested_ball": (lambda: nested_ball_classifier(1.0, dim=2), [0.8, 0.3], 0.5),
    "mlp": (lambda: mlp_classifier(TinyMLP(2, 8, 3, rng=np.random.default_rng(4))),
            [0.2, -0.3], 1.5),
}


class TestVoteCounts:
    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    @pytest.mark.parametrize("name", list(VOTE_CASES))
    def test_counts_equal_the_frozen_argmax_of_probs(self, name, kind):
        build, x, scale = VOTE_CASES[name]
        c = build()
        for i, n in enumerate((1, 65535, 65536, 65537, 100100)):
            a, b = rng_for_input(9, i), rng_for_input(9, i)
            got = vote_counts(c, x, scale, n, a, kind)
            assert got.dtype == np.int64 and got.sum() == n
            assert np.array_equal(got, frozen_vote_counts(c, x, scale, n, b, kind))
            assert a.random() == b.random()
        if name != "constant":
            assert np.count_nonzero(got) >= 2

    @pytest.mark.parametrize("name", ["hard_halfspace", "probit_halfspace",
                                      "nested_ball"])
    def test_builtin_labels_never_call_probs(self, name):
        build, x, scale = VOTE_CASES[name]
        c = build()

        def no_probs(points):
            raise AssertionError("probs_fn called on the vote path")

        fast = replace(c, probs_fn=no_probs)
        cfg = GaussianCertConfig(sigma=scale, n0=100, n_cert=70_000, seed=3)
        assert np.array_equal(vote_counts(fast, x, scale, 70_000, rng_for_input(1, 2)),
                              vote_counts(c, x, scale, 70_000, rng_for_input(1, 2)))
        assert certify_l2(fast, x, cfg, input_index=5) == certify_l2(c, x, cfg,
                                                                    input_index=5)
        assert certify_l1(fast, x, scale, cfg) == certify_l1(c, x, scale, cfg)


class TestSmoothPredict:
    def test_unanimous_constant(self):
        c = constant_classifier([1.0, 0.0], dim=2)
        cfg = GaussianCertConfig(sigma=0.5, n0=100, n_cert=100, seed=0)
        assert smooth_predict(c, [0.0, 0.0], cfg) == 0

    def test_exact_tie_abstains(self):
        # choose the halfspace offset so the realized n0 votes split 50/50
        sigma, n0, seed = 0.5, 100, 11
        x = np.zeros(2)
        w = np.array([1.0, 0.0])
        draws = rng_for_input(seed, 0).standard_normal((n0, 2))
        proj = np.sort((x[None, :] + sigma * draws) @ w)
        b = 0.5 * (proj[n0 // 2 - 1] + proj[n0 // 2])
        c = hard_halfspace_classifier(w, b)
        counts = vote_counts(c, x, sigma, n0, rng_for_input(seed, 0))
        assert counts[0] == counts[1] == n0 // 2
        cfg = GaussianCertConfig(sigma=sigma, n0=n0, n_cert=n0,
                                 alpha_fail=0.001, seed=seed)
        assert smooth_predict(c, x, cfg) == ABSTAIN

    def test_halfspace_three_sigma_margin(self):
        sigma = 0.4
        c = hard_halfspace_classifier([1.0, 0.0], 0.0)
        cfg = GaussianCertConfig(sigma=sigma, n0=100, n_cert=100,
                                 alpha_fail=0.001, seed=5)
        # margin 3*sigma: votes ~ Bin(100, Phi(3)), overwhelmingly class 1
        assert smooth_predict(c, [3.0 * sigma, 0.0], cfg) == 1


class TestCertifyL2:
    def test_constant_classifier_exact_radius(self):
        # unanimous votes: p_lower = alpha ** (1/n_cert) exactly
        c = constant_classifier([0.0, 1.0], dim=2)
        cfg = GaussianCertConfig(sigma=0.5, n0=100, n_cert=1000,
                                 alpha_fail=0.01, seed=2)
        out = certify_l2(c, [0.3, -0.4], cfg)
        p = 0.01 ** (1.0 / 1000)
        assert out.prediction == 1
        assert out.p_lower == pytest.approx(p, abs=1e-12)
        assert out.radius == pytest.approx(
            0.5 * std_normal_quantile(min(p, 1.0 - P_CLAMP)), abs=1e-12)
        assert out.samples_used == 1100

    def test_boundary_abstains(self):
        # at the decision boundary p_lower < 0.5 essentially always
        c = hard_halfspace_classifier([1.0, 0.0], 0.0)
        cfg = GaussianCertConfig(sigma=0.5, n0=100, n_cert=5000,
                                 alpha_fail=0.001, seed=3)
        out = certify_l2(c, [0.0, 0.0], cfg)
        assert out.prediction == ABSTAIN
        assert out.radius == 0.0

    def test_soundness_on_margin_one(self):
        # certified radius must not exceed the true robust radius (the margin)
        c = hard_halfspace_classifier([1.0, 0.0], 0.0)
        cfg = GaussianCertConfig(sigma=0.25, n0=100, n_cert=20_000,
                                 alpha_fail=0.001)
        for seed in range(20):
            out = certify_l2(c, [1.0, 0.0],
                             GaussianCertConfig(sigma=0.25, n0=100,
                                                n_cert=20_000,
                                                alpha_fail=0.001, seed=seed))
            assert out.radius <= 1.0

    def test_bit_reproducible(self):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        cfg = GaussianCertConfig(sigma=0.3, n0=100, n_cert=2000, seed=17)
        a = certify_l2(c, [0.7, 0.1], cfg, input_index=4)
        b = certify_l2(c, [0.7, 0.1], cfg, input_index=4)
        assert a == b

    def test_dimension_mismatch(self):
        c = constant_classifier([1.0], dim=3)
        cfg = GaussianCertConfig(sigma=0.5, n0=10, n_cert=10)
        with pytest.raises(ValueError):
            certify_l2(c, [1.0, 2.0], cfg)


class TestCertifyL1:
    def test_unanimous_radius_formula(self):
        c = constant_classifier([0.0, 1.0], dim=2)
        lam = 0.8
        cfg = GaussianCertConfig(sigma=1.0, n0=50, n_cert=500,
                                 alpha_fail=0.01, seed=4)
        out = certify_l1(c, [0.0, 0.0], lam, cfg)
        p = 0.01 ** (1.0 / 500)
        assert out.norm == "l1"
        assert out.radius == pytest.approx(lam * (2 * min(p, 1 - P_CLAMP) - 1),
                                           abs=1e-12)

    def test_boundary_abstains(self):
        # true pA = 1/2 at the threshold, so p_lower <= 1/2 and we abstain
        c = hard_halfspace_classifier([1.0], 0.0)
        cfg = GaussianCertConfig(sigma=1.0, n0=100, n_cert=2000,
                                 alpha_fail=0.001, seed=6)
        out = certify_l1(c, [0.0], 1.0, cfg)
        assert out.prediction == ABSTAIN and out.radius == 0.0

    def test_axis_threshold_matches_uniform_cdf(self):
        # classifier 1{x1 > 0} at x1 = 0.5 under lam = 1:
        # true pA = (0.5 + 1) / 2 = 0.75, radius about 2*pA - 1 = 0.5
        c = hard_halfspace_classifier([1.0, 0.0], 0.0)
        cfg = GaussianCertConfig(sigma=1.0, n0=100, n_cert=50_000,
                                 alpha_fail=0.001, seed=8)
        out = certify_l1(c, [0.5, 0.0], 1.0, cfg)
        assert out.prediction == 1
        assert out.radius == pytest.approx(0.5, abs=0.02)
        assert out.radius < 0.5  # confidence slack keeps it below the truth

    def test_nonpositive_lambda(self):
        c = constant_classifier([1.0, 0.0], dim=1)
        cfg = GaussianCertConfig(sigma=1.0, n0=10, n_cert=10)
        with pytest.raises(ValueError):
            certify_l1(c, [0.0], 0.0, cfg)

    def test_radius_nonnegative_and_zero_iff_not_confident(self):
        rng = np.random.default_rng(30)
        cfg = GaussianCertConfig(sigma=1.0, n0=50, n_cert=400,
                                 alpha_fail=0.01, seed=9)
        c = hard_halfspace_classifier([1.0], 0.0)
        for i in range(25):
            x = rng.uniform(-1.5, 1.5, size=1)
            out = certify_l1(c, x, 1.0, cfg, input_index=i)
            assert out.radius >= 0.0
            if out.p_lower <= 0.5:
                assert out.radius == 0.0 and out.prediction == ABSTAIN
            else:
                assert out.radius > 0.0


class TestProxyRadius:
    def test_two_class_quantile_gap(self):
        c = constant_classifier([0.9, 0.1], dim=2)
        noise = draw_noise(np.random.default_rng(0), 50, 2)
        r, top = proxy_radius(c, [0.0, 0.0], 1.0, noise)
        assert top == 0
        assert r == pytest.approx(std_normal_quantile(0.9), abs=1e-12)
        assert r == pytest.approx(1.28155, abs=1e-5)

    def test_zero_gap(self):
        c = constant_classifier([0.5, 0.5], dim=2)
        noise = draw_noise(np.random.default_rng(0), 50, 2)
        r, _ = proxy_radius(c, [0.0, 0.0], 1.0, noise)
        assert r == 0.0

    def test_probit_closed_form(self):
        # R(sigma) = sigma * m / sqrt(s^2 + sigma^2) with m = 1, s = 0.5
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        noise = draw_noise(np.random.default_rng(42), 100_000, 2)
        r, top = proxy_radius(c, [1.0, 0.0], 1.0, noise)
        assert top == 1
        assert r == pytest.approx(1.0 / math.sqrt(1.25), rel=0.01)

    def test_continuous_in_sigma_with_fixed_noise(self):
        builtins = [
            constant_classifier([0.7, 0.3], dim=2),
            affine_softmax_classifier([[1.0, 0.0], [-0.5, 0.8]], [0.0, 0.1]),
            probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5),
            hard_halfspace_classifier([1.0, 0.0], 0.0),
            nested_ball_classifier(1.0, dim=2),
            mlp_classifier(TinyMLP(2, 8, 2, rng=np.random.default_rng(1))),
        ]
        noise = draw_noise(np.random.default_rng(5), 2000, 2)
        x = np.array([0.4, -0.2])
        for c in builtins:
            for sigma in np.linspace(0.05, 2.0, 40):
                r0, _ = proxy_radius(c, x, float(sigma), noise)
                r1, _ = proxy_radius(c, x, float(sigma) + 1e-6, noise)
                assert abs(r1 - r0) <= 1e-3

    def test_l1_proxy_gap(self):
        c = constant_classifier([0.8, 0.2], dim=2)
        noise = draw_noise(np.random.default_rng(0), 50, 2, kind="uniform")
        r, top = proxy_radius_l1(c, [0.0, 0.0], 0.5, noise)
        assert top == 0
        assert r == pytest.approx(0.5 * 0.6, abs=1e-12)

    @pytest.mark.parametrize("kind,one_scale", [("gaussian", proxy_radius),
                                                ("uniform", proxy_radius_l1)])
    def test_plugin_radii_match_one_scale_views(self, kind, one_scale):
        scales = [0.05, 0.3, 0.7, 1.5]
        noise = draw_noise(np.random.default_rng(11), 40, 2, kind=kind)
        x = [0.4, -0.2]
        for c in (probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5),
                  affine_softmax_classifier([[1.0, 0.3], [-0.5, 0.8], [0.2, -1.0]],
                                            [0.0, 0.1, -0.2])):
            radii, top, _, _ = plugin_radii(c, x, scales, noise)
            assert [(r, t) for r, t in zip(radii, top)] == [
                one_scale(c, x, s, noise) for s in scales]

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    def test_plugin_radii_broadcast_over_inputs(self, kind):
        c = affine_softmax_classifier([[1.0, 0.3], [-0.5, 0.8], [0.2, -1.0]],
                                      [0.0, 0.1, -0.2])
        rng = np.random.default_rng(12)
        xs = rng.normal(size=(5, 2))
        scales = rng.uniform(0.1, 1.5, size=(5, 3))
        noise = draw_noise(rng, 8, 2, kind, lead=(5,))
        radii, top, runner, means = plugin_radii(c, xs, scales, noise)
        assert radii.shape == top.shape == runner.shape == (5, 3)
        assert means.shape == (5, 3, 3)
        for i in range(5):
            one = plugin_radii(c, xs[i], scales[i], NoiseBatch(kind, noise.draws[i]))
            for got, want in zip((radii[i], top[i], runner[i], means[i]), one):
                assert np.array_equal(got, want)

    def test_wrong_noise_kind_rejected(self):
        c = constant_classifier([0.8, 0.2], dim=2)
        g = draw_noise(np.random.default_rng(0), 10, 2, kind="gaussian")
        u = draw_noise(np.random.default_rng(0), 10, 2, kind="uniform")
        with pytest.raises(ValueError):
            proxy_radius(c, [0.0, 0.0], 0.5, u)
        with pytest.raises(ValueError):
            proxy_radius_l1(c, [0.0, 0.0], 0.5, g)
