"""Built-in classifiers against their closed-form smoothed oracles."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special as sps

from smoothcert import classifiers, smoothing
from smoothcert.classifiers import (ClassifierHandle, DerivativeUnsupportedError,
                                    TinyMLP,
                                    affine_softmax_classifier,
                                    classifier_from_config,
                                    classifier_to_config, constant_classifier,
                                    halfspace_smoothed_prob,
                                    hard_halfspace_classifier, load_classifier,
                                    mlp_classifier, nested_ball_classifier,
                                    nested_ball_smoothed_prob,
                                    probit_halfspace_classifier,
                                    probit_halfspace_smoothed_prob,
                                    save_classifier, validate_simplex)
from smoothcert.smoothing import (GaussianCertConfig, certify_l2, rng_for_input,
                                  vote_counts)
from smoothcert.stats import std_normal_cdf, std_normal_pdf


def mc_smoothed_prob(c, x, sigma, class_idx, n, seed):
    rng = np.random.default_rng(seed)
    pts = np.asarray(x, dtype=float)[None, :] + sigma * rng.standard_normal((n, c.dim))
    return float(c.probs(pts).mean(axis=0)[class_idx])


def probs_at(c, x):
    """The classifier's simplex row at the single point x."""
    return validate_simplex(c.probs(np.asarray(x, dtype=float)[None, :])[0])


def jacobian_at(c, x):
    """The (num_classes, dim) input-Jacobian at the single point x."""
    return c.input_grads(np.asarray(x, dtype=float)[None, :])[0]


class TestPredictProbs:
    def test_constant_uniform(self):
        c = constant_classifier([0.25, 0.25, 0.25, 0.25], dim=3)
        p = probs_at(c, [1.0, -2.0, 0.5])
        assert np.allclose(p, 0.25)

    def test_probit_halfspace_value(self):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        p = probs_at(c, [1.0, 0.0])
        assert p[1] == pytest.approx(std_normal_cdf(2.0), abs=1e-12)
        assert p[1] == pytest.approx(0.97725, abs=1e-5)

    def test_zero_weight_softmax_uniform(self):
        c = affine_softmax_classifier(np.zeros((3, 2)), np.zeros(3))
        p = probs_at(c, [5.0, -7.0])
        assert np.allclose(p, 1.0 / 3.0)

    def test_dimension_mismatch(self):
        c = constant_classifier([1.0], dim=2)
        with pytest.raises(ValueError, match=r"expected points of shape \(m, 2\)"):
            probs_at(c, [1.0, 2.0, 3.0])

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    def test_all_builtins_emit_simplex_rows(self, coords):
        x = np.array(coords)
        handles = [
            constant_classifier([0.6, 0.4], dim=2),
            affine_softmax_classifier([[1.0, -0.5], [0.2, 0.9], [-1.1, 0.3]],
                                      [0.1, -0.2, 0.0]),
            hard_halfspace_classifier([1.0, 2.0], 0.3),
            probit_halfspace_classifier([0.0, 1.0], -0.5, 0.7),
            nested_ball_classifier(1.5, dim=2),
            mlp_classifier(TinyMLP(2, 8, 3, rng=np.random.default_rng(5))),
        ]
        for c in handles:
            probs_at(c, x)


# Every built-in that has an input-Jacobian.
GRAD_BUILDERS = {
    "constant": lambda: constant_classifier([0.3, 0.7], dim=2),
    "affine_softmax": lambda: affine_softmax_classifier([[0.8, -0.4], [-0.3, 1.2]],
                                                        [0.2, -0.1]),
    "probit_halfspace": lambda: probit_halfspace_classifier([0.6, 0.8], -0.2, 0.4),
    "mlp": lambda: mlp_classifier(TinyMLP(2, 12, 3, rng=np.random.default_rng(11))),
}


class TestDirectionalDerivative:
    """Directional derivatives v . grad f^k(x) read off ``input_grads``."""

    def test_constant_is_flat(self):
        c = constant_classifier([0.3, 0.7], dim=2)
        assert jacobian_at(c, [0.4, -1.0])[1] @ np.array([2.0, 3.0]) == 0.0

    def test_zero_direction(self):
        # the probit output only moves along w: zero along a direction orthogonal to it
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        jac = jacobian_at(c, [1.0, 0.0])
        assert jac[1] @ np.array([0.0, 1.0]) == 0.0
        assert jac[1] @ np.zeros(2) == 0.0

    def test_probit_along_w_closed_form(self):
        w, b, s = np.array([2.0, -1.0]), 0.3, 0.5
        x = np.array([0.4, 0.2])
        c = probit_halfspace_classifier(w, b, s)
        u = (w @ x - b) / s
        expected = std_normal_pdf(u) * (w @ w) / s
        assert jacobian_at(c, x)[1] @ w == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("builder", [GRAD_BUILDERS[kind] for kind in
                                         ("affine_softmax", "probit_halfspace", "mlp")])
    def test_analytic_matches_central_differences(self, builder):
        c = builder()
        rng = np.random.default_rng(99)
        for _ in range(10):
            x = rng.normal(size=2)
            v = rng.normal(size=2)
            h = 1e-4 * (1.0 + np.max(np.abs(x)))
            analytic = jacobian_at(c, x) @ v
            central = (probs_at(c, x + h * v) - probs_at(c, x - h * v)) / (2 * h)
            assert analytic == pytest.approx(central, abs=1e-4)

    def test_value_only_without_fallback_raises(self):
        c = hard_halfspace_classifier([1.0, 0.0], 0.0)
        with pytest.raises(DerivativeUnsupportedError):
            jacobian_at(c, [1.0, 0.0])



class TestInputGrads:
    @pytest.mark.parametrize("kind", list(GRAD_BUILDERS))
    @pytest.mark.parametrize("shape", [(5, 3), (2,), (4, 2, 1)],
                             ids=["wrong-width", "1-D", "3-D"])
    def test_points_of_the_wrong_shape_rejected(self, kind, shape):
        c = GRAD_BUILDERS[kind]()
        with pytest.raises(ValueError, match=r"expected points of shape \(m, 2\)"):
            c.input_grads(np.zeros(shape))


class TestSmoothedOracles:
    def test_halfspace_reference_point(self):
        assert halfspace_smoothed_prob([1.0, 0.0], 0.0, [1.0, 0.0], 1.0) == \
            pytest.approx(std_normal_cdf(1.0), abs=1e-15)

    def test_halfspace_boundary_half(self):
        for sigma in (0.1, 1.0, 3.0):
            assert halfspace_smoothed_prob([2.0, 1.0], 1.0,
                                           [0.25, 0.5], sigma) == 0.5

    def test_halfspace_small_sigma_limit(self):
        assert halfspace_smoothed_prob([1.0], 0.0, [1.0], 0.01) > 1 - 1e-12

    def test_probit_no_smoothing(self):
        m, s = 0.8, 0.5
        assert probit_halfspace_smoothed_prob([1.0, 0.0], 0.0, s, [m, 0.0], 0.0) == \
            pytest.approx(std_normal_cdf(m / s), abs=1e-15)

    def test_probit_reference_point(self):
        got = probit_halfspace_smoothed_prob([1.0, 0.0], 0.0, 0.5, [1.0, 0.0], 0.25)
        assert got == pytest.approx(std_normal_cdf(1.0 / math.sqrt(0.3125)),
                                    abs=1e-15)

    def test_probit_zero_margin(self):
        for sigma in (0.0, 0.5, 2.0):
            assert probit_halfspace_smoothed_prob([0.6, 0.8], 0.0, 0.3,
                                                  [0.0, 0.0], sigma) == 0.5

    def test_probit_rejects_non_unit_w(self):
        with pytest.raises(ValueError):
            probit_halfspace_smoothed_prob([2.0, 0.0], 0.0, 0.5, [1.0, 0.0], 0.5)

    @pytest.mark.parametrize("oracle,args,message", [
        (halfspace_smoothed_prob, ([0.0, 0.0], 0.0, [1.0, 0.0], 1.0), "w must be nonzero"),
        (halfspace_smoothed_prob, ([1.0, 0.0], 0.0, [1.0, 0.0], 0.0),
         "sigma must be positive, got 0.0"),
        (probit_halfspace_smoothed_prob, ([1.0, 0.0], 0.0, 0.0, [1.0, 0.0], 0.5),
         "s must be positive, got 0.0"),
        (probit_halfspace_smoothed_prob, ([1.0, 0.0], 0.0, 0.5, [1.0, 0.0], -0.1),
         "sigma must be nonnegative, got -0.1"),
    ], ids=["halfspace_zero_w", "halfspace_zero_sigma", "probit_zero_s",
            "probit_negative_sigma"])
    def test_halfspace_oracles_reject_bad_arguments(self, oracle, args, message):
        with pytest.raises(ValueError) as info:
            oracle(*args)
        assert str(info.value) == message

    def test_nested_ball_origin_closed_form(self):
        # chi-squared(2): P(||eps|| <= rho) = 1 - exp(-rho^2 / (2 sigma^2))
        assert nested_ball_smoothed_prob(1.0, [0.0, 0.0], 1.0) == \
            pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)

    def test_nested_ball_swallows_everything(self):
        assert nested_ball_smoothed_prob(100.0, [0.0, 0.0], 0.5) == \
            pytest.approx(1.0, abs=1e-12)

    def test_nested_ball_far_outside(self):
        assert nested_ball_smoothed_prob(1.0, [50.0, 0.0], 1.0) < 1e-12

    def test_nested_ball_d1_closed_form(self):
        got = nested_ball_smoothed_prob(1.0, [0.4], 0.7)
        ref = std_normal_cdf((1.0 - 0.4) / 0.7) - std_normal_cdf((-1.0 - 0.4) / 0.7)
        assert got == pytest.approx(ref, abs=1e-14)

    def test_nested_ball_d2_matches_noncentral_chi2(self):
        from scipy.stats import ncx2
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = rng.normal(size=2) * rng.uniform(0.1, 2.0)
            rho = rng.uniform(0.2, 3.0)
            sigma = rng.uniform(0.05, 1.5)
            ref = ncx2.cdf((rho / sigma) ** 2, 2,
                           (np.linalg.norm(x) / sigma) ** 2)
            assert nested_ball_smoothed_prob(rho, x, sigma) == \
                pytest.approx(ref, abs=1e-8)

    def test_nested_ball_d3_against_mc(self):
        rng = np.random.default_rng(21)
        x = np.array([0.5, -0.2, 0.3])
        rho, sigma, n = 1.2, 0.8, 200_000
        eps = sigma * rng.standard_normal((n, 3))
        mc = float(np.mean(np.linalg.norm(x + eps, axis=1) <= rho))
        got = nested_ball_smoothed_prob(rho, x, sigma)
        assert got == pytest.approx(mc, abs=3 * math.sqrt(0.25 / n) + 1e-3)

    @pytest.mark.parametrize("d", [4, 16])
    def test_nested_ball_off_origin_against_mc(self, d):
        rng = np.random.default_rng(40 + d)
        x = rng.normal(size=d) * 0.4
        rho, sigma, n = float(np.linalg.norm(x)) + 0.3, 0.5, 200_000
        eps = sigma * rng.standard_normal((n, d))
        mc = float(np.mean(np.linalg.norm(x + eps, axis=1) <= rho))
        got = nested_ball_smoothed_prob(rho, x, sigma)
        assert 0.05 < got < 0.95
        assert got == pytest.approx(mc, abs=3 * math.sqrt(got * (1 - got) / n))

    def test_nested_ball_d16_origin_closed_form(self):
        # chi-squared(16): P(||eps|| <= rho) = P(8, rho^2 / (2 sigma^2))
        from scipy.special import gammainc
        for rho, sigma in ((1.0, 0.3), (4.0, 1.0), (2.5, 0.4)):
            assert nested_ball_smoothed_prob(rho, np.zeros(16), sigma) == \
                pytest.approx(gammainc(8.0, 0.5 * (rho / sigma) ** 2), abs=1e-14)

    @pytest.mark.parametrize("name", ["rho", "sigma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_nested_ball_rejects_bad_rho_and_sigma(self, name, bad):
        args = {"rho": 1.0, "sigma": 0.5, name: bad}
        with pytest.raises(ValueError, match=name):
            nested_ball_smoothed_prob(args["rho"], [0.3, 0.1], args["sigma"])

    def test_nested_ball_never_returns_nan(self):
        # near rho = ||x|| with ||x|| / sigma = 1e6, scipy's chndtr returns NaN
        for rho in (999.999, 1000.0, 1000.001):
            try:
                p = nested_ball_smoothed_prob(rho, [1e3, 0.0], 1e-3)
            except ValueError as exc:
                assert "no ball probability" in str(exc)
            else:
                assert 0.0 <= p <= 1.0

    def test_monte_carlo_agreement_50_random_configs(self):
        # every closed form within 3 binomial standard errors of a 1e5-sample
        # Monte Carlo estimate
        rng = np.random.default_rng(123)
        n = 100_000
        for trial in range(50):
            kind = trial % 3
            x = rng.normal(size=2)
            sigma = rng.uniform(0.1, 1.5)
            if kind == 0:
                w = rng.normal(size=2)
                w /= np.linalg.norm(w)
                b = rng.normal() * 0.5
                c = hard_halfspace_classifier(w, b)
                truth = halfspace_smoothed_prob(w, b, x, sigma)
            elif kind == 1:
                w = rng.normal(size=2)
                w /= np.linalg.norm(w)
                b = rng.normal() * 0.5
                s = rng.uniform(0.2, 1.0)
                c = probit_halfspace_classifier(w, b, s)
                truth = probit_halfspace_smoothed_prob(w, b, s, x, sigma)
            else:
                rho = rng.uniform(0.5, 2.0)
                c = nested_ball_classifier(rho, dim=2)
                truth = nested_ball_smoothed_prob(rho, x, sigma)
            est = mc_smoothed_prob(c, x, sigma, 1, n, seed=2000 + trial)
            tol = 3.0 * math.sqrt(max(truth * (1 - truth), 1e-6) / n)
            assert abs(est - truth) <= tol, f"trial {trial}: {est} vs {truth}"


class TestTinyMLP:
    def test_simplex_at_random_parameter_settings(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            mlp = TinyMLP(3, 16, 4, rng=np.random.default_rng(seed))
            pts = rng.normal(size=(40, 3)) * 3.0
            probs = mlp.probs(pts)
            assert np.all(probs >= 0)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(80, 2))
        y = (x[:, 0] > 0).astype(int)
        mlp = TinyMLP(2, 16, 2, rng=np.random.default_rng(4))
        first = mlp.train_step(x, y, lr=0.5)
        for _ in range(200):
            last = mlp.train_step(x, y, lr=0.5)
        assert last < first

    def test_hidden_width_capped(self):
        with pytest.raises(ValueError):
            TinyMLP(2, 64, 2)

    def test_state_round_trip(self):
        mlp = TinyMLP(3, 8, 4, rng=np.random.default_rng(5))
        pts = np.random.default_rng(6).normal(size=(10, 3))
        assert np.array_equal(TinyMLP.from_state(mlp.state()).probs(pts), mlp.probs(pts))


# The smallest valid document of every kind.
CONFIGS = {
    "constant": {"kind": "constant", "probs": [0.5, 0.5], "dim": 2},
    "affine_softmax": {"kind": "affine_softmax", "weights": [[1.0, 0.0], [0.0, 1.0]],
                       "bias": [0.0, 0.0]},
    "hard_halfspace": {"kind": "hard_halfspace", "w": [1.0, 0.0], "b": 0.0},
    "probit_halfspace": {"kind": "probit_halfspace", "w": [1.0, 0.0], "b": 0.0, "s": 0.5},
    "nested_ball": {"kind": "nested_ball", "rho": 1.0, "dim": 2},
    "mlp": {"kind": "mlp", "w1": [[1.0, 0.0]], "b1": [0.0], "w2": [[1.0], [-1.0]],
            "b2": [0.0, 0.0]},
}


class TestJsonConfig:
    @pytest.mark.parametrize("builder", [
        lambda: constant_classifier([0.2, 0.8], dim=3),
        lambda: affine_softmax_classifier([[1.0, 2.0], [0.0, -1.0]], [0.5, 0.0]),
        lambda: hard_halfspace_classifier([1.0, -1.0], 0.25),
        lambda: probit_halfspace_classifier([0.6, 0.8], 0.1, 0.4),
        lambda: nested_ball_classifier(1.25, dim=2),
        lambda: mlp_classifier(TinyMLP(2, 6, 3, rng=np.random.default_rng(2))),
    ])
    def test_round_trip(self, builder, tmp_path):
        c = builder()
        path = tmp_path / "clf.json"
        save_classifier(c, path)
        c2 = load_classifier(path)
        assert c2.kind == c.kind
        assert c2.dim == c.dim and c2.num_classes == c.num_classes
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(20, c.dim))
        assert np.allclose(c.probs(pts), c2.probs(pts), atol=1e-12)

    @pytest.mark.parametrize("kind", ["resnet", ["probit_halfspace"], None, 3,
                                      {"kind": "mlp"}])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match="unknown classifier kind"):
            classifier_from_config({**CONFIGS["probit_halfspace"], "kind": kind})

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_extra_key_is_named(self, kind):
        with pytest.raises(TypeError, match="unexpected keyword argument 'sigma'"):
            classifier_from_config({**CONFIGS[kind], "sigma": 0.25})

    @pytest.mark.parametrize("kind,key", [(kind, key) for kind, cfg in CONFIGS.items()
                                          for key in cfg if key != "kind"])
    def test_missing_key_is_named(self, kind, key):
        cfg = {k: v for k, v in CONFIGS[kind].items() if k != key}
        with pytest.raises(TypeError, match=f"missing 1 required .*argument: '{key}'"):
            classifier_from_config(cfg)

    @pytest.mark.parametrize("cfg,message", [
        ({"kind": "affine_softmax", "weights": [1.0, 0.0], "bias": [0.0, 0.0]},
         "weights must be (k, d) and bias (k,)"),
        ({"kind": "affine_softmax", "weights": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.0]},
         "weights must be (k, d) and bias (k,)"),
        ({"kind": "hard_halfspace", "w": [0.0, 0.0], "b": 0.0}, "w must be nonzero"),
        ({"kind": "probit_halfspace", "w": [0.0, 0.0], "b": 0.0, "s": 0.5},
         "w must be nonzero"),
        ({"kind": "probit_halfspace", "w": [1.0, 0.0], "b": 0.0, "s": 0.0},
         "s must be positive, got 0.0"),
        ({"kind": "probit_halfspace", "w": [1.0, 0.0], "b": 0.0, "s": -0.5},
         "s must be positive, got -0.5"),
        ({"kind": "hard_halfspace", "w": [[1.0, 0.0]], "b": 0.0},
         "a point must be a 1-D vector, got shape (1, 2)"),
        ({"kind": "probit_halfspace", "w": [], "b": 0.0, "s": 0.5},
         "a point must be a 1-D vector, got shape (0,)"),
    ], ids=["affine_one_d_weights", "affine_short_bias", "hard_zero_w", "probit_zero_w",
            "probit_zero_s", "probit_negative_s", "hard_matrix_w", "probit_empty_w"])
    def test_bad_builder_arguments_rejected(self, cfg, message):
        with pytest.raises(ValueError) as info:
            classifier_from_config(cfg)
        assert str(info.value) == message

    @pytest.mark.parametrize("cfg", [
        {"kind": "constant", "probs": [math.nan, 1.0], "dim": 2},
        {"kind": "affine_softmax", "weights": [[1.0, math.inf], [0.0, 1.0]],
         "bias": [0.0, 0.0]},
        {"kind": "affine_softmax", "weights": [[1.0, 0.0], [0.0, 1.0]],
         "bias": [math.nan, 0.0]},
        {"kind": "hard_halfspace", "w": [1.0, 0.0], "b": math.nan},
        {"kind": "probit_halfspace", "w": [1.0, 0.0], "b": math.nan, "s": 0.5},
        {"kind": "probit_halfspace", "w": [1.0, 0.0], "b": 0.0, "s": math.inf},
        {"kind": "probit_halfspace", "w": [1.0, math.nan], "b": 0.0, "s": 0.5},
        {"kind": "nested_ball", "rho": math.nan, "dim": 2},
        {"kind": "nested_ball", "rho": math.inf, "dim": 2},
        {"kind": "mlp", "w1": [[1.0, 0.0]], "b1": [0.0],
         "w2": [[1.0], [math.nan]], "b2": [0.0, 0.0]},
    ])
    def test_non_finite_parameters_rejected(self, cfg):
        with pytest.raises(ValueError, match="finite|simplex"):
            classifier_from_config(cfg)

    @pytest.mark.parametrize("kind", ["constant", "nested_ball"])
    @pytest.mark.parametrize("dim", [0, -3, True, 2.7, "2", None])
    def test_dim_must_be_a_positive_integer(self, kind, dim):
        cfg = ({"kind": "constant", "probs": [0.5, 0.5]} if kind == "constant"
               else {"kind": "nested_ball", "rho": 1.0})
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            classifier_from_config({**cfg, "dim": dim})

    def test_non_finite_mlp_state_rejected(self):
        mlp = TinyMLP(2, 4, 2, rng=np.random.default_rng(9))
        mlp.b1[0] = math.inf
        with pytest.raises(ValueError, match="b1 must be finite"):
            mlp_classifier(mlp)

    @pytest.mark.parametrize("field,state", [
        ("w1", {"w1": [1.0, 0.0], "b1": [0.0], "w2": [[1.0], [0.0]],
                "b2": [0.0, 0.0]}),
        ("b1", {"w1": [[1.0, 0.0]], "b1": [0.0, 0.0, 0.0], "w2": [[1.0], [0.0]],
                "b2": [0.0, 0.0]}),
        ("w2", {"w1": [[1.0, 0.0]], "b1": [0.0], "w2": [[1.0, 0.0], [0.0, 1.0]],
                "b2": [0.0, 0.0]}),
        ("b2", {"w1": [[1.0, 0.0]], "b1": [0.0], "w2": [[1.0], [0.0]],
                "b2": [0.0]}),
    ])
    def test_inconsistent_mlp_shapes_rejected(self, field, state):
        with pytest.raises(ValueError, match=f"mlp field {field} must"):
            classifier_from_config({"kind": "mlp", **state})

    def test_mlp_config_carries_weights(self):
        mlp = TinyMLP(2, 4, 2, rng=np.random.default_rng(9))
        cfg = classifier_to_config(mlp_classifier(mlp))
        assert cfg["kind"] == "mlp"
        assert np.allclose(cfg["w1"], mlp.w1)
        # state must be JSON-serializable as-is
        json.dumps(cfg)


# Every built-in, with the points where its label is decided on a tie or a
# boundary: u = (w.x - b) / s of exactly 0, +-5e-324 and 1e-300 for the
# probit (ndtr rounds the last three to 0.5), w.x == b for the hard
# half-space, ||x|| == rho for the ball, all-equal outputs for the constant
# and for two equal softmax rows.
LABEL_CASES = {
    "constant": (lambda: constant_classifier([0.5, 0.5], dim=2),
                 [[0.0, 0.0], [1.0, -1.0]]),
    "affine_softmax": (lambda: affine_softmax_classifier(
        [[1.0, -0.5], [1.0, -0.5], [-1.1, 0.3]], [0.1, 0.1, 0.0]),
        [[0.0, 0.0], [0.1, 0.2], [0.05, 0.0]]),
    "hard_halfspace": (lambda: hard_halfspace_classifier([1.0, 2.0], 3.0),
                       [[1.0, 1.0], [3.0, 0.0], [-1.0, 2.0]]),
    "probit_halfspace": (lambda: probit_halfspace_classifier([1.0, 0.0], 0.0, 1.0),
                         [[0.0, 0.0], [-0.0, 1.0], [5e-324, 0.0], [-5e-324, 0.0],
                          [1e-300, 0.0], [-1e-300, 0.0], [1e-8, 0.0]]),
    "nested_ball": (lambda: nested_ball_classifier(5.0, dim=2),
                    [[3.0, 4.0], [-4.0, 3.0], [0.0, 5.0], [5.0, 0.0]]),
    "mlp": (lambda: mlp_classifier(TinyMLP(2, 6, 3, rng=np.random.default_rng(2))),
            [[0.0, 0.0]]),
}


class TestLabels:
    @pytest.mark.parametrize("kind", list(LABEL_CASES))
    def test_labels_are_the_argmax_of_probs(self, kind):
        build, boundary = LABEL_CASES[kind]
        c = build()
        rng = np.random.default_rng(5)
        for pts in (rng.normal(scale=3.0, size=(2000, 2)), np.array(boundary)):
            labels = c.vote_labels(pts)
            assert labels.shape == (len(pts),) and labels.dtype.kind in "biu"
            assert np.array_equal(labels, np.argmax(c.probs(pts), axis=1))

    def test_probit_tie_threshold_gives_the_argmax_bit_for_bit(self):
        # u equals the point: 2^20 consecutive doubles on each side of the tie
        # threshold, the signed zeros and subnormals, infinities and NaN
        t = classifiers._NDTR_TIE
        assert sps.ndtr(t) <= 0.5 < sps.ndtr(np.nextafter(t, 1.0))
        bits = np.float64(t).view(np.int64)
        near = np.arange(bits - (1 << 20), bits + (1 << 20) + 1).view(np.float64)
        edges = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]
        c = probit_halfspace_classifier([1.0], 0.0, 1.0)
        for pts in (near, np.array(edges)):
            pts = pts[:, None]
            assert np.array_equal(c.vote_labels(pts), np.argmax(c.probs(pts), axis=1))
        # points large enough that u = (w.x - b) / s overflows to +-inf
        c = probit_halfspace_classifier([1.0], 0.0, 1e-300)
        pts = np.array([[1e300], [-1e300], [1e10], [-1e10], [1e-300], [-1e-300]])
        with np.errstate(over="ignore"):
            assert np.array_equal(c.vote_labels(pts), np.argmax(c.probs(pts), axis=1))
            assert c.vote_labels(pts).tolist() == [1, 0, 1, 0, 1, 0]

    def test_boundary_labels(self):
        # ties go to class 0; a point on the closed ball is inside
        for kind, expected in (("constant", [0, 0]), ("affine_softmax", [0, 0, 0]),
                               ("hard_halfspace", [0, 0, 0]),
                               ("probit_halfspace", [0, 0, 0, 0, 0, 0, 1]),
                               ("nested_ball", [1, 1, 1, 1])):
            build, boundary = LABEL_CASES[kind]
            assert build().vote_labels(np.array(boundary)).tolist() == expected

    def test_hard_probs_are_one_hot_labels(self):
        for kind in ("hard_halfspace", "nested_ball"):
            build, boundary = LABEL_CASES[kind]
            c = build()
            pts = np.concatenate([boundary, np.random.default_rng(6).normal(size=(50, 2))])
            assert np.array_equal(c.probs(pts), np.eye(2)[c.vote_labels(pts).astype(int)])

    def test_points_of_the_wrong_shape_rejected(self):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        with pytest.raises(ValueError, match=r"expected points of shape \(m, 2\)"):
            c.vote_labels(np.zeros((4, 3)))
        with pytest.raises(ValueError, match=r"expected points of shape \(m, 2\)"):
            c.vote_labels(np.zeros(2))

    def test_labels_fn_output_of_the_wrong_shape_rejected(self):
        c = replace(hard_halfspace_classifier([1.0, 0.0], 0.0),
                    labels_fn=lambda points: np.zeros((len(points), 1), dtype=int))
        with pytest.raises(ValueError, match="kind='hard_halfspace' labels_fn must "
                                             r"return 3 class indices in \[0, 2\)"):
            c.vote_labels(np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_labels_fn_value_out_of_range_rejected(self, bad):
        c = replace(nested_ball_classifier(1.0, dim=2),
                    labels_fn=lambda points: np.full(len(points), bad))
        with pytest.raises(ValueError, match="kind='nested_ball' labels_fn must "):
            c.vote_labels(np.zeros((3, 2)))

    def test_labels_fn_non_integer_output_rejected(self):
        c = replace(nested_ball_classifier(1.0, dim=2),
                    labels_fn=lambda points: np.ones(len(points)))
        with pytest.raises(ValueError, match="kind='nested_ball' labels_fn must "):
            c.vote_labels(np.zeros((3, 2)))

    def test_positional_construction_keeps_the_argmax_default(self):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        plain = ClassifierHandle(c.kind, c.dim, c.num_classes, c.probs_fn, c.grad_fn,
                                 c.params, None)
        assert plain.labels_fn is None
        pts = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert plain.vote_labels(pts).tolist() == [0, 0, 1]

    def test_binary_builtins_vote_with_booleans(self):
        pts = np.random.default_rng(8).normal(size=(500, 2))
        for kind in ("hard_halfspace", "probit_halfspace", "nested_ball"):
            c = LABEL_CASES[kind][0]()
            votes = c.vote_labels(pts)
            assert votes.dtype == bool
            assert np.array_equal(votes, np.argmax(c.probs(pts), axis=1))

    def test_boolean_labels_fn_on_one_class_rejected(self):
        c = ClassifierHandle("one", 2, 1, lambda points: np.ones((len(points), 1)),
                             labels_fn=lambda points: points[:, 0] > 0)
        assert c.vote_labels(np.array([[-1.0, 0.0]])).tolist() == [0]  # False is in range
        with pytest.raises(ValueError, match="kind='one' labels_fn must return 2 "
                                             r"class indices in \[0, 1\)"):
            c.vote_labels(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="kind='one' labels_fn must "):
            vote_counts(c, [0.0, 0.0], 1.0, 100, rng_for_input(0, 0))

    def test_boolean_labels_fn_on_three_classes_accepted(self):
        c = ClassifierHandle("three", 2, 3, lambda points: np.full((len(points), 3), 1 / 3),
                             labels_fn=lambda points: points[:, 0] > 0)
        as_ints = replace(c, labels_fn=lambda points: (points[:, 0] > 0).astype(int))
        assert c.vote_labels(np.array([[1.0, 0.0], [-1.0, 0.0]])).tolist() == [1, 0]
        got = vote_counts(c, [0.1, 0.0], 1.0, 40_000, rng_for_input(3, 0))
        assert np.array_equal(got, vote_counts(as_ints, [0.1, 0.0], 1.0, 40_000,
                                               rng_for_input(3, 0)))
        assert got.sum() == 40_000 and got[2] == 0 and got[0] > 0 and got[1] > 0

    @pytest.mark.parametrize("bad", [
        lambda points: np.zeros((len(points), 1), dtype=int),
        lambda points: np.zeros((len(points), 1), dtype=bool),
        lambda points: np.zeros(len(points) + 1, dtype=bool),
        lambda points: np.full(len(points), -1),
        lambda points: np.full(len(points), 2),
        lambda points: np.full(len(points), 2 if len(points) == 1 else 0),  # last batch
        lambda points: np.ones(len(points)),
    ], ids=["column", "bool_column", "bool_long", "negative", "too_large",
            "last_batch", "float"])
    def test_bad_labels_fn_output_rejected_on_the_vote_path(self, bad):
        c = replace(nested_ball_classifier(1.0, dim=2), labels_fn=bad)
        with pytest.raises(ValueError, match="kind='nested_ball' labels_fn must "):
            vote_counts(c, [0.0, 0.0], 0.5, smoothing._VOTE_BATCH + 1, rng_for_input(0, 0))
        cfg = GaussianCertConfig(n0=1, n_cert=smoothing._VOTE_BATCH)
        with pytest.raises(ValueError, match="kind='nested_ball' labels_fn must "):
            certify_l2(c, [0.0, 0.0], 0.5, cfg)
