"""Built-in classifiers against their closed-form smoothed oracles."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

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

    def test_nested_ball_unsupported_dim_off_origin(self):
        with pytest.raises(ValueError):
            nested_ball_smoothed_prob(1.0, [0.1, 0.2, 0.3, 0.4], 0.5)

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

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            classifier_from_config({"kind": "resnet"})

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
            labels = c.labels(pts)
            assert labels.shape == (len(pts),) and labels.dtype == np.intp
            assert np.array_equal(labels, np.argmax(c.probs(pts), axis=1))

    def test_boundary_labels(self):
        # ties go to class 0; a point on the closed ball is inside
        for kind, expected in (("constant", [0, 0]), ("affine_softmax", [0, 0, 0]),
                               ("hard_halfspace", [0, 0, 0]),
                               ("probit_halfspace", [0, 0, 0, 0, 0, 0, 1]),
                               ("nested_ball", [1, 1, 1, 1])):
            build, boundary = LABEL_CASES[kind]
            assert build().labels(np.array(boundary)).tolist() == expected

    def test_hard_probs_are_one_hot_labels(self):
        for kind in ("hard_halfspace", "nested_ball"):
            build, boundary = LABEL_CASES[kind]
            c = build()
            pts = np.concatenate([boundary, np.random.default_rng(6).normal(size=(50, 2))])
            assert np.array_equal(c.probs(pts), np.eye(2)[c.labels(pts)])

    def test_points_of_the_wrong_shape_rejected(self):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        with pytest.raises(ValueError, match=r"expected points of shape \(m, 2\)"):
            c.labels(np.zeros((4, 3)))
        with pytest.raises(ValueError, match=r"expected points of shape \(m, 2\)"):
            c.labels(np.zeros(2))

    def test_labels_fn_output_of_the_wrong_shape_rejected(self):
        c = replace(hard_halfspace_classifier([1.0, 0.0], 0.0),
                    labels_fn=lambda points: np.zeros((len(points), 1), dtype=int))
        with pytest.raises(ValueError, match="kind='hard_halfspace' labels_fn must "
                                             r"return 3 class indices in \[0, 2\)"):
            c.labels(np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_labels_fn_value_out_of_range_rejected(self, bad):
        c = replace(nested_ball_classifier(1.0, dim=2),
                    labels_fn=lambda points: np.full(len(points), bad))
        with pytest.raises(ValueError, match="kind='nested_ball' labels_fn must "):
            c.labels(np.zeros((3, 2)))

    def test_labels_fn_non_integer_output_rejected(self):
        c = replace(nested_ball_classifier(1.0, dim=2),
                    labels_fn=lambda points: np.ones(len(points)))
        with pytest.raises(ValueError, match="kind='nested_ball' labels_fn must "):
            c.labels(np.zeros((3, 2)))

    def test_positional_construction_keeps_the_argmax_default(self):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        plain = ClassifierHandle(c.kind, c.dim, c.num_classes, c.probs_fn, c.grad_fn,
                                 c.params, None)
        assert plain.labels_fn is None
        pts = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert plain.labels(pts).tolist() == [0, 0, 1]
