"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every statistical check runs under a fixed seed so the suite is
deterministic; tolerances are pinned in the assertions.
"""

import math
import time

import numpy as np
import pytest

from smoothcert.classifiers import (hard_halfspace_classifier,
                                    halfspace_smoothed_prob,
                                    nested_ball_classifier,
                                    probit_halfspace_classifier)
from smoothcert.memory import (CertifiedRegion, MemoryStore, audit,
                               largest_in_subset, largest_out_subset,
                               memory_insert)
from smoothcert.pipeline import run_training_demo
from smoothcert.sigma_opt import (GRAD_SCALAR_FD, RETURN_BEST_ITERATE,
                                  SigmaOptConfig, optimize_sigma)
from smoothcert.smoothing import (GaussianCertConfig, certify_l1, certify_l2,
                                  draw_noise, proxy_radius, rng_for_input,
                                  vote_counts)
from smoothcert.stats import (binom_lower_confidence, clamp_probability,
                              std_normal_quantile)


def report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def test_01_smoothed_probability_oracle():
    """Hard-halfspace MC estimate within 3 binomial SE of Phi(m/(sigma*||w||))."""
    t0 = time.monotonic()
    rng = np.random.default_rng(501)
    n = 100_000
    for trial in range(50):
        d = int(rng.integers(1, 5))
        w = rng.normal(size=d)
        while np.linalg.norm(w) < 1e-6:
            w = rng.normal(size=d)
        x = rng.normal(size=d)
        sigma = rng.uniform(0.1, 1.5)
        # keep the smoothed probability within +-3 normalized margin so the
        # binomial 3-SE band stays valid (at extreme p a single vote of 1e5
        # already exceeds it)
        z_target = rng.uniform(-3.0, 3.0)
        b = float(w @ x) - z_target * sigma * float(np.linalg.norm(w))
        truth = halfspace_smoothed_prob(w, b, x, sigma)
        c = hard_halfspace_classifier(w, b)
        mc_rng = np.random.default_rng(9000 + trial)
        pts = x[None, :] + sigma * mc_rng.standard_normal((n, d))
        est = float(c.probs(pts).mean(axis=0)[1])
        tol = 3.0 * math.sqrt(max(truth * (1.0 - truth), 1e-7) / n)
        assert abs(est - truth) <= tol, f"trial {trial}: {est} vs {truth}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(1, f"50 halfspace configs within 3 SE at N=1e5 ({elapsed:.1f}s)")


def test_02_plugin_radius_closed_form():
    """Probit-halfspace plug-in radius matches sigma*m/sqrt(s^2+sigma^2) to 2%."""
    t0 = time.monotonic()
    m, s = 1.0, 0.5
    c = probit_halfspace_classifier([1.0, 0.0], 0.0, s)
    for i, sigma in enumerate((0.1, 0.25, 0.5, 1.0, 2.0)):
        noise = draw_noise(np.random.default_rng(600 + i), 100_000, 2)
        r, top = proxy_radius(c, [m, 0.0], sigma, noise)
        expected = sigma * m / math.sqrt(s * s + sigma * sigma)
        assert top == 1
        assert abs(r - expected) <= 0.02 * expected, f"sigma={sigma}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(2, f"plug-in radius within 2% of closed form at n=1e5 ({elapsed:.1f}s)")


def test_03_optimizer_vs_grid_oracle():
    """Scale ascent reaches the analytic grid-scan maximum on the ball."""
    t0 = time.monotonic()

    def r_true(sig, rho=1.0):
        psi = 1.0 - math.exp(-rho * rho / (2.0 * sig * sig))
        return sig * std_normal_quantile(clamp_probability(psi))

    grid = np.linspace(0.05, 2.0, 4000)
    r_star = max(r_true(float(sg)) for sg in grid)
    c = nested_ball_classifier(1.0, dim=2)
    cfg = SigmaOptConfig(step_alpha=0.01, iters_k=500,
                         n_samples=10_000, sigma_min=0.05, sigma_max=2.0,
                         grad_mode=GRAD_SCALAR_FD,
                         return_mode=RETURN_BEST_ITERATE, fd_step=1e-3)
    noise = draw_noise(np.random.default_rng(1234), 10_000, 2)
    _, trace = optimize_sigma(c, [0.0, 0.0], cfg, noise=noise, sigma0=0.5)
    best_r = trace.best().proxy_radius
    faithful_r = trace[-1].proxy_radius
    assert best_r >= 0.90 * r_star, f"best {best_r} vs oracle {r_star}"
    assert faithful_r >= 0.85 * r_star, f"faithful {faithful_r} vs {r_star}"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(3, f"best iterate at {best_r / r_star:.2%} and final iterate at "
              f"{faithful_r / r_star:.2%} of the analytic maximum ({elapsed:.1f}s)")


def test_04_worst_case_guarantee():
    """Best iterate never certifies below the starting scale: 1000 configs."""
    t0 = time.monotonic()
    rng = np.random.default_rng(321)
    violations = 0
    for trial in range(1000):
        kind = trial % 3
        if kind == 0:
            w = rng.normal(size=2)
            w /= max(np.linalg.norm(w), 1e-12)
            c = probit_halfspace_classifier(w, rng.normal() * 0.3,
                                            rng.uniform(0.2, 1.0))
        elif kind == 1:
            c = hard_halfspace_classifier(rng.normal(size=2), rng.normal() * 0.3)
        else:
            c = nested_ball_classifier(rng.uniform(0.5, 2.0), dim=2)
        x = rng.normal(size=2)
        sigma0 = rng.uniform(0.05, 1.8)
        cfg = SigmaOptConfig(step_alpha=10 ** rng.uniform(-4, -1),
                             iters_k=5, n_samples=16, sigma_min=0.05,
                             return_mode=RETURN_BEST_ITERATE, fd_step=0.01)
        noise = draw_noise(np.random.default_rng(trial), 16, 2)
        _, trace = optimize_sigma(c, x, cfg, noise=noise, sigma0=sigma0)
        if trace.best().proxy_radius < trace[0].proxy_radius:
            violations += 1
    assert violations == 0
    elapsed = time.monotonic() - t0
    report(4, f"0/1000 best-iterate regressions below the start ({elapsed:.1f}s)")


def test_05_certification_soundness():
    """Certified radius never exceeds the true margin in >= 999/1000 runs."""
    t0 = time.monotonic()
    c = hard_halfspace_classifier([1.0, 0.0], 0.0)
    x = [1.0, 0.0]  # true robust radius = margin = 1
    failures = 0
    for seed in range(1000):
        cfg = GaussianCertConfig(n0=100, n_cert=100_000,
                                 alpha_fail=0.001, seed=seed)
        out = certify_l2(c, x, 0.25, cfg)
        if out.radius > 1.0:
            failures += 1
    assert failures <= 1, f"{failures} unsound certificates"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(5, f"{1000 - failures}/1000 runs sound at N=1e5 ({elapsed:.1f}s)")


def test_06_clopper_pearson_closed_form_and_coverage():
    """All-successes bound equals alpha**(1/n) to 1e-12; coverage holds."""
    t0 = time.monotonic()
    for alpha in (0.05, 0.001):
        for n in range(1, 1001):
            got = binom_lower_confidence(n, n, alpha)
            assert abs(got - alpha ** (1.0 / n)) <= 1e-12, (n, alpha)
    trials = 100_000
    rng = np.random.default_rng(777)
    ks = rng.binomial(100, 0.7, size=trials)
    for alpha, two_sided in ((0.05, False), (0.001, True)):
        bounds = np.array([binom_lower_confidence(k, 100, alpha)
                           for k in range(101)])
        cover = float(np.mean(bounds[ks] <= 0.7))
        se3 = 3.0 * math.sqrt(alpha * (1.0 - alpha) / trials)
        # the exact bound over-covers on a discrete binomial, so the
        # guarantee is one-sided; at alpha=0.001 the excess is within the
        # simulation band and the two-sided check holds as well
        assert cover >= 1.0 - alpha - se3, (alpha, cover)
        if two_sided:
            assert abs(cover - (1.0 - alpha)) <= se3, (alpha, cover)
    elapsed = time.monotonic() - t0
    report(6, f"alpha**(1/n) exact for n<=1000 and simulated coverage holds "
              f"({elapsed:.1f}s)")


def test_07_memory_invariant_and_geometry():
    """10k random insertion sequences keep cross-prediction balls disjoint;
    shrink formulas agree with a Monte Carlo containment oracle."""
    t0 = time.monotonic()
    rng = np.random.default_rng(888)
    checked_pairs = 0
    for seq in range(10_000):
        d = (1, 2, 5)[seq % 3]
        store = MemoryStore()
        for _ in range(int(rng.integers(2, 9))):
            memory_insert(store, CertifiedRegion(
                center=tuple(rng.uniform(-2.5, 2.5, size=d)),
                radius=float(rng.uniform(0.0, 2.0)),
                prediction=int(rng.integers(0, 3)), sigma_used=0.25))
        rs = store.regions
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                if rs[i].prediction == rs[j].prediction:
                    continue
                dist = math.dist(rs[i].center, rs[j].center)
                assert dist >= rs[i].radius + rs[j].radius - 1e-9, (seq, i, j)
                checked_pairs += 1
    # geometry agreement: 1000 random pairs, 1e4-point containment oracle
    for pair in range(1000):
        d = int(rng.integers(1, 4))
        a_c = rng.normal(size=d)
        a_r = rng.uniform(0.3, 1.5)
        direction = rng.normal(size=d)
        direction /= max(np.linalg.norm(direction), 1e-12)
        inside = bool(rng.integers(0, 2))
        dist = rng.uniform(0.0, a_r) if inside else a_r + rng.uniform(0.02, 2.0)
        b_c = a_c + dist * direction
        b_r = rng.uniform(0.05, 2.0)
        outer = CertifiedRegion(tuple(a_c), a_r, 0, 0.25)
        cand = CertifiedRegion(tuple(b_c), b_r, 1, 0.25)
        shrunk = (largest_in_subset(outer, cand) if inside
                  else largest_out_subset(outer, cand))
        if shrunk <= 1e-9:
            continue
        pts = b_c + shrunk * rng.uniform(-1.0, 1.0, size=(10_000, d))
        pts = pts[np.linalg.norm(pts - b_c, axis=1) <= shrunk]
        dist_to_a = np.linalg.norm(pts - a_c, axis=1)
        if inside:
            assert np.all(dist_to_a <= a_r + 1e-9)
        else:
            assert np.all(dist_to_a >= a_r - 1e-9)
    elapsed = time.monotonic() - t0
    report(7, f"0 violations across 10k sequences ({checked_pairs} cross "
              f"pairs) and 1000 oracle-checked shrink pairs ({elapsed:.1f}s)")


def test_08_order_invariance_without_overlaps():
    """Permutations leave the stored region multiset unchanged when the
    audit reports zero overlap events."""
    t0 = time.monotonic()
    rng = np.random.default_rng(999)
    verified = 0
    attempts = 0
    while verified < 100:
        attempts += 1
        assert attempts < 2000, "could not build 100 overlap-free sequences"
        d = (1, 2, 5)[attempts % 3]
        n = int(rng.integers(4, 10))
        centers = rng.normal(size=(n, d)) * 50.0
        radii = rng.uniform(0.0, 2.0, size=n)
        preds = rng.integers(0, 3, size=n)
        regions = [CertifiedRegion(tuple(c), float(r), int(p), 0.25)
                   for c, r, p in zip(centers, radii, preds)]
        base = MemoryStore()
        for r in regions:
            memory_insert(base, r)
        if audit(base)["overlap_events"] != 0:
            continue
        reference = sorted((r.center, r.prediction, r.radius)
                           for r in base.regions)
        for _ in range(20):
            perm = rng.permutation(n)
            other = MemoryStore()
            for i in perm:
                memory_insert(other, regions[i])
            got = sorted((r.center, r.prediction, r.radius)
                         for r in other.regions)
            assert got == reference, f"sequence {attempts} order dependent"
        verified += 1
    elapsed = time.monotonic() - t0
    report(8, f"{verified} overlap-free sequences invariant under 20 "
              f"permutations each ({elapsed:.1f}s)")


def test_09_l1_certificate():
    """Uniform-noise estimate matches (x1+lam)/(2 lam); radius formula exact."""
    t0 = time.monotonic()
    rng = np.random.default_rng(246)
    c = hard_halfspace_classifier([1.0, 0.0], 0.0)
    n_cert = 2000
    for trial in range(50):
        lam = float(rng.uniform(0.5, 2.0))
        x1 = float(rng.uniform(0.05, 0.8) * lam)
        x = [x1, float(rng.normal())]
        p_true = (x1 + lam) / (2.0 * lam)
        counts = vote_counts(c, x, lam, n_cert,
                             rng_for_input(5000 + trial, 0), kind="uniform")
        p_hat = counts[1] / n_cert
        se = math.sqrt(p_true * (1.0 - p_true) / n_cert)
        assert abs(p_hat - p_true) <= 3.0 * se, f"trial {trial}"
        cfg = GaussianCertConfig(n0=100, n_cert=n_cert,
                                 alpha_fail=0.001, seed=trial)
        out = certify_l1(c, x, lam, cfg)
        if out.p_lower > 0.5:
            assert out.radius == lam * (2.0 * out.p_lower - 1.0), f"trial {trial}"
        else:
            assert out.radius == 0.0
    elapsed = time.monotonic() - t0
    report(9, f"50 uniform-noise configs match the closed form; radius "
              f"formula exact ({elapsed:.1f}s)")


def test_10_training_demo_direction():
    """After adaptive training, per-input scales beat the fixed baseline ACR
    on at least 8 of 10 seeds."""
    t0 = time.monotonic()
    wins = 0
    rows = []
    for seed in range(10):
        res = run_training_demo(seed=seed)
        win = res["acr_ds"] > res["acr_fixed"]
        wins += int(win)
        rows.append(f"seed {seed}: fixed {res['acr_fixed']:.4f} vs "
                    f"ds {res['acr_ds']:.4f}")
    elapsed = time.monotonic() - t0
    assert wins >= 8, "\n".join(rows)
    assert elapsed < 600.0
    report(10, f"data-dependent ACR wins {wins}/10 seeds ({elapsed:.1f}s)")


def test_11_determinism(tmp_path):
    """Identical flags and seed produce byte-identical report CSVs."""
    from smoothcert.classifiers import save_classifier
    from smoothcert.cli import cli_main
    from smoothcert.synthetic import make_two_clusters, save_dataset_csv

    xs, ys = make_two_clusters(10, seed=2, separation=3.0, spread=0.3)
    data = tmp_path / "d.csv"
    save_dataset_csv(xs, ys, data)
    clf = tmp_path / "c.json"
    save_classifier(probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5), clf)
    blobs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        code = cli_main(["certify", "--mode", "ds", "--sigma0", "0.25",
                         "--alpha-step", "1e-4", "--iters", "50", "--n", "4",
                         "--n0", "100", "--n-cert", "5000",
                         "--alpha-fail", "0.001", "--seed", "77",
                         "--dataset", str(data), "--classifier", str(clf),
                         "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    report(11, "repeated certify runs byte-identical")
