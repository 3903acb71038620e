"""Monte Carlo voting, sound certification, and the plug-in radius."""

import math
from dataclasses import replace

import numpy as np
import pytest

from smoothcert import smoothing
from smoothcert.classifiers import (ClassifierHandle, TinyMLP, affine_softmax_classifier,
                                    constant_classifier,
                                    hard_halfspace_classifier, mlp_classifier,
                                    nested_ball_classifier,
                                    probit_halfspace_classifier)
from smoothcert.smoothing import (ABSTAIN, CertificationOutcome,
                                  GaussianCertConfig, NoiseBatch, certify_l1,
                                  certify_l2, draw_noise, plugin_radii,
                                  proxy_radius, proxy_radius_l1, rng_for_input,
                                  vote_counts)
from smoothcert.stats import (P_CLAMP, binom_lower_confidence, clamp_probability,
                              std_normal_quantile)


class TestConfigAndOutcome:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaussianCertConfig(n0=0)
        with pytest.raises(ValueError):
            GaussianCertConfig(n0=100, n_cert=50)
        with pytest.raises(ValueError):
            GaussianCertConfig(alpha_fail=1.0)

    def test_outcome_invariants(self):
        with pytest.raises(ValueError):
            CertificationOutcome(ABSTAIN, 0.5, 0.4, 100)
        out = CertificationOutcome(ABSTAIN, 0.0, 0.4, 100)
        assert out.abstained and out.radius == 0.0

    @pytest.mark.parametrize("prediction", [ABSTAIN, 0])
    def test_negative_radius_rejected(self, prediction):
        with pytest.raises(ValueError, match="radius must be >= 0, got -0.5"):
            CertificationOutcome(prediction, -0.5, 0.4, 100)

    def test_unknown_noise_kind_rejected_by_the_filler(self):
        out = np.zeros(3)
        with pytest.raises(ValueError, match="unknown noise kind 'poisson'"):
            smoothing._fill_noise(np.random.default_rng(0), out, "poisson")
        assert not out.any()

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

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    def test_draws_equal_numpy_bit_for_bit(self, kind):
        # draw_noise and the vote path's reused buffer against numpy's own draws,
        # so the frozen vote references below do not rest on draw_noise alone
        def numpy_draws(rng, size):
            if kind == "uniform":
                return rng.uniform(-1.0, 1.0, size)
            return rng.standard_normal(size)

        def vote_draws(rng, n, d):  # x = 0 and scale 1 leave the draws as drawn
            seen = []

            def capture(points):
                seen.append(points.copy())  # the buffer is overwritten after the call
                return np.zeros(len(points), dtype=bool)

            c = ClassifierHandle("capture", d, 2, None, labels_fn=capture)
            assert vote_counts(c, np.zeros(d), 1.0, n, rng, kind).tolist() == [n, 0]
            return np.concatenate(seen)

        for n in (1, 16384, 16385):
            for d in (1, 2, 16):
                for lead in ((), (3,)):
                    a, b = np.random.default_rng(n + d), np.random.default_rng(n + d)
                    got = draw_noise(a, n, d, kind, lead).draws
                    want = numpy_draws(b, (*lead, n, d))
                    assert got.shape == want.shape
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))
                    assert a.bit_generator.state == b.bit_generator.state
                a, b = rng_for_input(n, d), rng_for_input(n, d)
                got, want = vote_draws(a, n, d), numpy_draws(b, (n, d))
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -12345])
    @pytest.mark.parametrize("stream", [0, 1, 7])
    def test_seed_words_equal_numpy_seed_sequence(self, seed, stream):
        rows = [0, 1, 2**31, 2**32 - 1, 3]
        words = smoothing._seed_words(seed, rows, stream)
        assert words.shape == (len(rows), 4) and words.dtype == np.uint64
        for i, w in zip(rows, words):
            entropy = [seed & (2**64 - 1), i, stream]
            want = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
            assert np.array_equal(w, want)
            got = np.random.Generator(np.random.PCG64(smoothing._Words(w)))
            ref = rng_for_input(seed, i, stream)
            assert got.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(got.standard_normal(7).view(np.int64),
                                  ref.standard_normal(7).view(np.int64))
        rngs = smoothing.row_rngs(seed, 4, stream)
        assert len(rngs) == 4 and smoothing.row_rngs(seed, 0, stream) == []
        for i, got in enumerate(rngs):
            ref = rng_for_input(seed, i, stream)
            assert got.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(got.standard_normal(7).view(np.int64),
                                  ref.standard_normal(7).view(np.int64))

    def test_seed_words_of_no_rows(self):
        assert smoothing._seed_words(3, [], 0).shape == (0, 4)
        assert smoothing._seed_words(3, np.arange(0), 1).shape == (0, 4)

    @pytest.mark.parametrize("rows", [[2**32], [0, 2**40], np.arange(2**32 - 1, 2**32 + 1)])
    def test_seed_words_reject_rows_of_two_words(self, rows):
        with pytest.raises(ValueError, match=r"row indices must lie in \[0, 2\*\*32\)"):
            smoothing._seed_words(3, rows, 0)

    def test_seed_words_are_c_contiguous(self):
        # PCG64 reads a row's raw buffer, so a strided row would seed another generator
        words = smoothing._seed_words(5, np.arange(6), 1)
        assert words.flags.c_contiguous
        got = np.random.Generator(np.random.PCG64(smoothing._Words(words[4])))
        assert got.bit_generator.state == rng_for_input(5, 4, 1).bit_generator.state

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


def frozen_certify(c, x, scale, cfg, kind, rng):
    """_certify before one draw per row: the n0 selection votes and then the
    n_cert estimation votes, counted by two calls on the row's stream."""
    counts0 = frozen_vote_counts(c, x, scale, cfg.n0, rng, kind)
    candidate = int(np.argmax(counts0))
    counts = frozen_vote_counts(c, x, scale, cfg.n_cert, rng, kind)
    p_lower = binom_lower_confidence(int(counts[candidate]), cfg.n_cert, cfg.alpha_fail)
    samples = cfg.n0 + cfg.n_cert
    if p_lower <= 0.5:
        return CertificationOutcome(ABSTAIN, 0.0, p_lower, samples)
    p_safe = clamp_probability(p_lower)
    radius = scale * (2.0 * p_safe - 1.0 if kind == "uniform"
                      else std_normal_quantile(p_safe))
    return CertificationOutcome(candidate, float(max(0.0, radius)), p_lower, samples)


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

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    @pytest.mark.parametrize("name", list(VOTE_CASES))
    def test_counts_do_not_depend_on_the_batch_size(self, monkeypatch, name, kind):
        build, x, scale = VOTE_CASES[name]
        c = build()
        for i, n in enumerate((1, 16383, 16384, 16385, 100100)):
            runs = []
            for batch in (1000, 1 << 14, 1 << 16):
                monkeypatch.setattr(smoothing, "_VOTE_BATCH", batch)
                rng = rng_for_input(10, i)
                runs.append((vote_counts(c, x, scale, n, rng, kind).tolist(), rng.random()))
            assert sum(runs[0][0]) == n
            assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    @pytest.mark.parametrize("dim", [1, 3, 16])
    def test_tiled_shift_equals_the_frozen_broadcast(self, dim, kind):
        rng = np.random.default_rng(dim)
        x, w = rng.normal(scale=0.5, size=dim), rng.normal(size=dim)
        for c in (probit_halfspace_classifier(w, float(w @ x), 0.5),
                  hard_halfspace_classifier(w, float(w @ x)),
                  nested_ball_classifier(float(np.linalg.norm(x)), dim),
                  affine_softmax_classifier(rng.normal(size=(3, dim)), rng.normal(size=3)),
                  mlp_classifier(TinyMLP(dim, 8, 3, rng=rng))):
            for i, n in enumerate((1, 16385, 40000)):
                a, b = rng_for_input(11, i), rng_for_input(11, i)
                got = vote_counts(c, x, 0.7, n, a, kind)
                assert np.array_equal(got, frozen_vote_counts(c, x, 0.7, n, b, kind))
                assert a.random() == b.random()
            if c.kind not in ("affine_softmax", "mlp"):
                assert np.count_nonzero(got) == 2  # x lies on the boundary

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    @pytest.mark.parametrize("name", list(VOTE_CASES))
    def test_one_split_draw_equals_two_frozen_calls(self, monkeypatch, name, kind):
        build, x, scale = VOTE_CASES[name]
        c = build()
        certify = certify_l1 if kind == "uniform" else certify_l2
        for n0 in (1, 100, 16383, 16384, 16385):
            for n_cert in [m for m in sorted({n0, 1000, 100_000}) if m >= n0]:
                cfg = GaussianCertConfig(n0=n0, n_cert=n_cert, alpha_fail=0.01, seed=n0)
                b = rng_for_input(cfg.seed, n_cert)
                want = (frozen_certify(c, x, scale, cfg, kind, b), b.random())
                for batch in (1000, 1 << 14, 1 << 16):
                    monkeypatch.setattr(smoothing, "_VOTE_BATCH", batch)
                    a = rng_for_input(cfg.seed, n_cert)
                    assert (certify(c, x, scale, cfg, rng=a), a.random()) == want

    @pytest.mark.parametrize("name", ["hard_halfspace", "probit_halfspace",
                                      "nested_ball"])
    def test_builtin_labels_never_call_probs(self, name):
        build, x, scale = VOTE_CASES[name]
        c = build()

        def no_probs(points):
            raise AssertionError("probs_fn called on the vote path")

        fast = replace(c, probs_fn=no_probs)
        cfg = GaussianCertConfig(n0=100, n_cert=70_000, seed=3)
        assert np.array_equal(vote_counts(fast, x, scale, 70_000, rng_for_input(1, 2)),
                              vote_counts(c, x, scale, 70_000, rng_for_input(1, 2)))
        assert (certify_l2(fast, x, scale, cfg, rng=rng_for_input(cfg.seed, 5))
                == certify_l2(c, x, scale, cfg, rng=rng_for_input(cfg.seed, 5)))
        assert certify_l1(fast, x, scale, cfg) == certify_l1(c, x, scale, cfg)


class TestCertifyL2:
    def test_constant_classifier_exact_radius(self):
        # unanimous votes: p_lower = alpha ** (1/n_cert) exactly
        c = constant_classifier([0.0, 1.0], dim=2)
        cfg = GaussianCertConfig(n0=100, n_cert=1000, alpha_fail=0.01, seed=2)
        out = certify_l2(c, [0.3, -0.4], 0.5, cfg)
        p = 0.01 ** (1.0 / 1000)
        assert out.prediction == 1
        assert out.p_lower == pytest.approx(p, abs=1e-12)
        assert out.radius == pytest.approx(
            0.5 * std_normal_quantile(min(p, 1.0 - P_CLAMP)), abs=1e-12)
        assert out.samples_used == 1100

    def test_boundary_abstains(self):
        # at the decision boundary p_lower < 0.5 essentially always
        c = hard_halfspace_classifier([1.0, 0.0], 0.0)
        cfg = GaussianCertConfig(n0=100, n_cert=5000, alpha_fail=0.001, seed=3)
        out = certify_l2(c, [0.0, 0.0], 0.5, cfg)
        assert out.prediction == ABSTAIN
        assert out.radius == 0.0

    def test_soundness_on_margin_one(self):
        # certified radius must not exceed the true robust radius (the margin)
        c = hard_halfspace_classifier([1.0, 0.0], 0.0)
        cfg = GaussianCertConfig(n0=100, n_cert=20_000, alpha_fail=0.001)
        for seed in range(20):
            out = certify_l2(c, [1.0, 0.0], 0.25,
                             GaussianCertConfig(n0=100, n_cert=20_000,
                                                alpha_fail=0.001, seed=seed))
            assert out.radius <= 1.0

    def test_bit_reproducible(self):
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        cfg = GaussianCertConfig(n0=100, n_cert=2000, seed=17)
        a = certify_l2(c, [0.7, 0.1], 0.3, cfg, rng=rng_for_input(cfg.seed, 4))
        b = certify_l2(c, [0.7, 0.1], 0.3, cfg, rng=rng_for_input(cfg.seed, 4))
        assert a == b

    def test_dimension_mismatch(self):
        c = constant_classifier([1.0], dim=3)
        cfg = GaussianCertConfig(n0=10, n_cert=10)
        with pytest.raises(ValueError):
            certify_l2(c, [1.0, 2.0], 0.5, cfg)

    @pytest.mark.parametrize("sigma", [0.0, math.nan, math.inf])
    def test_bad_sigma_rejected(self, sigma):
        c = constant_classifier([1.0, 0.0], dim=2)
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            certify_l2(c, [0.0, 0.0], sigma, GaussianCertConfig(n0=10, n_cert=10))


class TestCertifyL1:
    def test_unanimous_radius_formula(self):
        c = constant_classifier([0.0, 1.0], dim=2)
        lam = 0.8
        cfg = GaussianCertConfig(n0=50, n_cert=500, alpha_fail=0.01, seed=4)
        out = certify_l1(c, [0.0, 0.0], lam, cfg)
        p = 0.01 ** (1.0 / 500)
        assert out.radius == pytest.approx(lam * (2 * min(p, 1 - P_CLAMP) - 1),
                                           abs=1e-12)

    def test_boundary_abstains(self):
        # true pA = 1/2 at the threshold, so p_lower <= 1/2 and we abstain
        c = hard_halfspace_classifier([1.0], 0.0)
        cfg = GaussianCertConfig(n0=100, n_cert=2000, alpha_fail=0.001, seed=6)
        out = certify_l1(c, [0.0], 1.0, cfg)
        assert out.prediction == ABSTAIN and out.radius == 0.0

    def test_axis_threshold_matches_uniform_cdf(self):
        # classifier 1{x1 > 0} at x1 = 0.5 under lam = 1:
        # true pA = (0.5 + 1) / 2 = 0.75, radius about 2*pA - 1 = 0.5
        c = hard_halfspace_classifier([1.0, 0.0], 0.0)
        cfg = GaussianCertConfig(n0=100, n_cert=50_000, alpha_fail=0.001, seed=8)
        out = certify_l1(c, [0.5, 0.0], 1.0, cfg)
        assert out.prediction == 1
        assert out.radius == pytest.approx(0.5, abs=0.02)
        assert out.radius < 0.5  # confidence slack keeps it below the truth

    def test_nonpositive_lambda(self):
        c = constant_classifier([1.0, 0.0], dim=1)
        cfg = GaussianCertConfig(n0=10, n_cert=10)
        for lam in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="lambda must be positive"):
                certify_l1(c, [0.0], lam, cfg)

    def test_radius_nonnegative_and_zero_iff_not_confident(self):
        rng = np.random.default_rng(30)
        cfg = GaussianCertConfig(n0=50, n_cert=400, alpha_fail=0.01, seed=9)
        c = hard_halfspace_classifier([1.0], 0.0)
        for i in range(25):
            x = rng.uniform(-1.5, 1.5, size=1)
            out = certify_l1(c, x, 1.0, cfg, rng=rng_for_input(cfg.seed, i))
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

    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
    def test_plugin_radii_rejects_bad_scales(self, bad):
        c = constant_classifier([0.8, 0.2], dim=2)
        noise = draw_noise(np.random.default_rng(0), 10, 2, kind="uniform")
        with pytest.raises(ValueError, match="scales must be"):
            plugin_radii(c, [0.0, 0.0], [0.5, bad], noise)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_plugin_radii_rejects_non_finite_points(self, bad):
        c = constant_classifier([0.8, 0.2], dim=2)
        noise = draw_noise(np.random.default_rng(0), 10, 2)
        with pytest.raises(ValueError, match="point entries must be finite"):
            plugin_radii(c, [[0.0, 0.0], [bad, 0.0]], [[0.5], [0.5]],
                         NoiseBatch("gaussian", np.broadcast_to(noise.draws, (2, 10, 2))))

    def test_wrong_noise_kind_rejected(self):
        c = constant_classifier([0.8, 0.2], dim=2)
        g = draw_noise(np.random.default_rng(0), 10, 2, kind="gaussian")
        u = draw_noise(np.random.default_rng(0), 10, 2, kind="uniform")
        with pytest.raises(ValueError):
            proxy_radius(c, [0.0, 0.0], 0.5, u)
        with pytest.raises(ValueError):
            proxy_radius_l1(c, [0.0, 0.0], 0.5, g)
