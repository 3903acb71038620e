"""Campaign orchestration, metrics, training loop, and report round trips."""

import copy
import json
import math
import threading
import time
import warnings

import numpy as np
import pytest

from smoothcert import pipeline, smoothing
from smoothcert.classifiers import (ClassifierHandle, TinyMLP,
                                    constant_classifier,
                                    mlp_classifier,
                                    probit_halfspace_classifier)
from smoothcert.memory import CertifiedRegion, MemoryStore, audit, memory_insert
from smoothcert.pipeline import (MODE_DS, MODE_DS_L1, MODE_FIXED,
                                 CampaignConfig, CertRecord,
                                 GaussianAugmentationTrainer, LabeledDataset,
                                 emit_report,
                                 load_dataset, metrics_from_records,
                                 read_report_csv, run_campaign, train_batch)
from smoothcert.sigma_opt import SigmaOptConfig, optimize_sigma
from smoothcert.smoothing import ABSTAIN, GaussianCertConfig
from smoothcert.synthetic import make_annuli, make_two_clusters, save_dataset_csv


def rec(idx, label, pred, radius, sigma=0.25, p=0.9, adj=False):
    return CertRecord(idx=idx, label=label, prediction=pred, radius=radius,
                      p_lower=p, sigma_star=sigma, adjusted=adj)


def probit_setup(margin_lo=0.5, margin_hi=2.0, n=30, seed=0):
    rng = np.random.default_rng(seed)
    margins = rng.uniform(margin_lo, margin_hi, size=n)
    side = rng.integers(0, 2, size=n)
    xs = np.stack([np.where(side == 1, margins, -margins),
                   rng.normal(size=n)], axis=1)
    ys = side.astype(int)
    return LabeledDataset(xs, ys), probit_halfspace_classifier([1.0, 0.0],
                                                               0.0, 0.5)


def sizes_of_calls(c):
    """Copy of c that records the number of points of each probs call."""
    calls = []

    def probs_fn(points):
        calls.append(len(points))
        return c.probs_fn(points)

    return ClassifierHandle(c.kind, c.dim, c.num_classes, probs_fn,
                            c.grad_fn), calls


class TestLoadDataset:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,1\n0.3,0.4,0\n")
        ds = load_dataset(p)
        assert len(ds) == 2 and ds.dim == 2
        assert ds.labels.tolist() == [1, 0]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_dataset(p)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,1\n0.3,0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(p)

    def test_non_numeric_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,1\nfoo,0.4,0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(p)

    def test_negative_label_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,1\n0.3,0.4,-1\n")
        with pytest.raises(ValueError, match="line 2.*nonnegative"):
            load_dataset(p)

    def test_label_beyond_int64_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,1\n0.3,0.4,%d\n" % 2**63)
        with pytest.raises(ValueError, match=f"{p}: line 2: .*below 2\\*\\*63"):
            load_dataset(p)

    def test_non_finite_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,1\n0.3,0.4,0\nnan,0.4,0\n")
        with pytest.raises(ValueError, match="line 3.*finite"):
            load_dataset(p)

    def test_blank_rows_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\n0.1,0.2,1\n\n0.3,0.4,0\n\n")
        ds = load_dataset(p)
        assert ds.points.tolist() == [[0.1, 0.2], [0.3, 0.4]]
        assert ds.labels.tolist() == [1, 0]

    @pytest.mark.parametrize("points,labels,message", [
        ([0.1, 0.2], [1, 0], "points must be 2-D, got shape (2,)"),
        ([[0.1, 0.2], [0.3, 0.4]], [1], "labels must align with points"),
        ([[0.1, 0.2], [0.3, 0.4]], [1, -1], "labels must be nonnegative class indices"),
        ([[0.1, 0.2], [0.3, math.nan]], [1, 0], "points must be finite"),
        ([[0.1, -math.inf], [0.3, 0.4]], [1, 0], "points must be finite"),
    ], ids=["one_d", "misaligned", "negative_label", "nan", "inf"])
    def test_bad_dataset_rejected(self, points, labels, message):
        with pytest.raises(ValueError) as info:
            LabeledDataset(np.asarray(points), np.asarray(labels))
        assert str(info.value) == message

    @pytest.mark.parametrize("labels,shown", [
        ([0.5, 1.7], "0.5"), ([0.0, 1.5], "1.5"), ([math.nan, 0.0], "nan"),
        ([math.inf, 0.0], "inf"), ([2.0**63, 0.0], "9.223372036854776e+18")],
        ids=["fractions", "one_fraction", "nan", "inf", "two_to_the_63"])
    def test_labels_that_are_not_whole_numbers_rejected(self, labels, shown):
        with pytest.raises(ValueError) as info:
            LabeledDataset(np.zeros((2, 2)), labels)
        assert str(info.value) == f"labels must be whole numbers below 2**63, got {shown}"

    def test_whole_float_labels_are_class_indices(self):
        ds = LabeledDataset(np.zeros((2, 2)), [1.0, 0.0])
        assert ds.labels.dtype.kind == "i" and ds.labels.tolist() == [1, 0]

    def test_save_rejects_a_length_mismatch(self, tmp_path):
        p = tmp_path / "d.csv"
        with pytest.raises(ValueError, match="points and labels must have equal length"):
            save_dataset_csv(np.zeros((3, 2)), np.zeros(2, dtype=int), p)
        assert not p.exists()


def curve(records, radii):
    return metrics_from_records(records, radii).certified_accuracy


def acr(records):
    return metrics_from_records(records, (0.0,)).acr


class TestMetrics:
    def test_curve_reference_point(self):
        records = [rec(0, 1, 1, 0.3), rec(1, 0, 0, 0.6), rec(2, 1, 0, 0.9)]
        assert curve(records, (0.0, 0.5))[1] == pytest.approx(1.0 / 3.0)

    def test_curve_at_zero_is_smoothed_accuracy(self):
        records = [rec(0, 1, 1, 0.0), rec(1, 0, 1, 0.4),
                   rec(2, 0, ABSTAIN, 0.0)]
        assert curve(records, (0.0,))[0] == pytest.approx(1.0 / 3.0)

    def test_all_abstain_zero_everywhere(self):
        records = [rec(i, 0, ABSTAIN, 0.0) for i in range(4)]
        assert curve(records, (0.0, 0.5, 1.0)) == (0.0, 0.0, 0.0)

    def test_curve_non_increasing(self):
        rng = np.random.default_rng(5)
        records = [rec(i, int(rng.integers(0, 2)), int(rng.integers(-1, 2)),
                       float(rng.uniform(0, 2))) for i in range(50)]
        values = curve(records, tuple(np.linspace(0, 2, 9)))
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_acr_reference(self):
        records = [rec(0, 1, 1, 1.0), rec(1, 0, 1, 0.5), rec(2, 1, 1, 0.0)]
        assert acr(records) == pytest.approx(1.0 / 3.0)

    def test_acr_all_incorrect(self):
        records = [rec(0, 1, 0, 1.0), rec(1, 0, 1, 0.5)]
        assert acr(records) == 0.0

    def test_acr_single_correct(self):
        assert acr([rec(0, 1, 1, 0.7)]) == 0.7

    def test_empty_result_set_scores_zero_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            metrics = metrics_from_records([], (0.0, 0.5))
        assert metrics.certified_accuracy == (0.0, 0.0)
        assert metrics.acr == 0.0 and metrics.abstain_rate == 0.0
        assert metrics.n_inputs == 0


class TestRunCampaign:
    def _cfg(self, mode, sigma=0.25, seed=0, n_cert=400, iters=0, **opt_kw):
        cert = GaussianCertConfig(n0=50, n_cert=n_cert, alpha_fail=0.01, seed=seed)
        opt = SigmaOptConfig(iters_k=iters, n_samples=20, **opt_kw)
        return CampaignConfig(mode=mode, sigma0=sigma, cert=cert, opt=opt,
                              radii_grid=(0.0, 0.25, 0.5, 1.0))

    @pytest.mark.parametrize("grid", [(0.0, math.nan), (0.0, math.nan, 1.0),
                                      (0.0, math.inf)])
    def test_non_finite_radii_rejected(self, grid):
        cfg = self._cfg(MODE_FIXED)
        with pytest.raises(ValueError, match="finite"):
            CampaignConfig(mode=cfg.mode, sigma0=cfg.sigma0, cert=cfg.cert,
                           opt=cfg.opt, radii_grid=grid)

    @pytest.mark.parametrize("mode", [MODE_FIXED, MODE_DS, MODE_DS_L1])
    @pytest.mark.parametrize("sigma0", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_sigma0_rejected(self, sigma0, mode):
        cfg = self._cfg(mode)
        with pytest.raises(ValueError, match="sigma0 must be positive and finite"):
            CampaignConfig(mode=mode, sigma0=sigma0, cert=cfg.cert, opt=cfg.opt)

    def test_unknown_mode_rejected(self):
        cfg = self._cfg(MODE_FIXED)
        with pytest.raises(ValueError, match="unknown mode 'ds_linf'"):
            CampaignConfig(mode="ds_linf", sigma0=0.25, cert=cfg.cert, opt=cfg.opt)

    @pytest.mark.parametrize("mode", [MODE_DS, MODE_DS_L1])
    def test_sigma0_outside_the_ascent_bounds_rejected_in_ds_modes(self, mode):
        cfg = self._cfg(mode, sigma_max=2.0)
        with pytest.raises(ValueError, match="outside"):
            CampaignConfig(mode=mode, sigma0=3.0, cert=cfg.cert, opt=cfg.opt)
        with pytest.raises(ValueError, match="outside"):
            CampaignConfig(mode=mode, sigma0=1e-4, cert=cfg.cert, opt=cfg.opt)

    def test_fixed_mode_ignores_the_ascent_bounds(self):
        ds, c = probit_setup(n=4, seed=3)
        cfg = self._cfg(MODE_FIXED, sigma=3.0, sigma_max=2.0)
        records, _, _ = run_campaign(cfg, dataset=ds, classifier=c)
        assert [r.sigma_star for r in records] == [3.0] * 4

    def test_empty_dataset(self):
        ds = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        c = constant_classifier([1.0, 0.0], dim=2)
        records, store, metrics = run_campaign(self._cfg(MODE_FIXED),
                                               dataset=ds, classifier=c)
        assert records == [] and metrics.acr == 0.0 and metrics.n_inputs == 0

    @pytest.mark.parametrize("mode", [MODE_FIXED, MODE_DS])
    def test_label_outside_classes_rejected_before_work(self, mode):
        ds, c = probit_setup(n=6, seed=2)
        labels = ds.labels.copy()
        labels[[2, 4]] = 5
        c, calls = sizes_of_calls(c)
        with pytest.raises(ValueError, match="row 2: label 5"):
            run_campaign(self._cfg(mode), dataset=LabeledDataset(ds.points, labels),
                         classifier=c)
        assert calls == []

    def test_ascent_runs_in_bounded_blocks(self, monkeypatch):
        # 4096 draws per row: a block of 65536 // (3 * 4096) = 5 rows, so 12
        # rows take three ascent calls of at most 61440 points per classifier call
        ds, c = probit_setup(n=12, seed=5)
        c, calls = sizes_of_calls(c)
        ascents = []

        def counted(*args, **kwargs):
            ascents.append(len(args[1]))
            return optimize_sigma(*args, **kwargs)

        monkeypatch.setattr(pipeline, "optimize_sigma", counted)
        cfg = CampaignConfig(
            mode=MODE_DS, sigma0=0.25, cert=GaussianCertConfig(n0=10, n_cert=50),
            opt=SigmaOptConfig(step_alpha=0.05, iters_k=3,
                               n_samples=4096))
        records, store, _ = run_campaign(cfg, dataset=ds, classifier=c)
        assert ascents == [5, 5, 2]
        assert max(calls) == 5 * 3 * 4096 <= 1 << 16
        monkeypatch.setattr(pipeline, "_ASCENT_POINTS", 2 * 3 * 4096)
        ascents.clear()
        small = run_campaign(cfg, dataset=ds, classifier=c)
        assert ascents == [2] * 6
        assert small[0] == records and small[1] == store

    @pytest.mark.parametrize("mode", [MODE_DS, MODE_DS_L1])
    @pytest.mark.parametrize("seed", [4, 2**40 + 3])
    def test_rows_draw_from_rng_for_input(self, mode, seed):
        # the campaign hashes its row seeds in one pass; row i must still draw
        # its ascent noise from stream 1 and its votes from stream 0 of
        # rng_for_input(seed, i, stream)
        ds, c = probit_setup(n=9, seed=6)
        cfg = self._cfg(mode, seed=seed, iters=4, step_alpha=0.05)
        kind = "uniform" if mode == MODE_DS_L1 else "gaussian"
        noise = smoothing.NoiseBatch(kind, np.stack([
            smoothing.draw_noise(smoothing.rng_for_input(seed, i, 1), 20, 2, kind).draws
            for i in range(len(ds))]))
        scales, _ = optimize_sigma(c, ds.points, cfg.opt, noise, cfg.sigma0)
        certify = smoothing.certify_l1 if mode == MODE_DS_L1 else smoothing.certify_l2
        records, _, _ = run_campaign(cfg, dataset=ds, classifier=c)
        for i, record in enumerate(records):
            want = certify(c, ds.points[i], scales[i], cfg.cert,
                           rng=smoothing.rng_for_input(seed, i, 0))
            assert record.sigma_star == scales[i]
            assert record.p_lower == want.p_lower

    def test_ds_with_zero_iters_equals_fixed(self):
        ds, c = probit_setup(n=12, seed=3)
        rf, _, mf = run_campaign(self._cfg(MODE_FIXED), dataset=ds, classifier=c)
        rd, _, md = run_campaign(self._cfg(MODE_DS, iters=0), dataset=ds,
                                 classifier=c)
        for a, b in zip(rf, rd):
            assert a.radius == b.radius and a.prediction == b.prediction
        assert mf.acr == md.acr

    def test_ds_beats_fixed_on_monotone_oracle(self):
        # R(sigma) grows toward sigma_max for every probit margin, so the
        # optimized scales certify strictly larger radii on average
        wins = 0
        for seed in range(10):
            ds, c = probit_setup(n=25, seed=100 + seed)
            mf = run_campaign(self._cfg(MODE_FIXED, seed=seed), dataset=ds,
                              classifier=c)[2]
            md = run_campaign(self._cfg(MODE_DS, seed=seed, iters=150,
                                        step_alpha=0.05,
                                        grad_mode="scalar_fd"),
                              dataset=ds, classifier=c)[2]
            wins += int(md.acr > mf.acr)
        assert wins >= 9

    def test_memory_audit_consistency(self):
        ds, c = probit_setup(n=15, seed=7)
        cfg = self._cfg(MODE_DS, iters=20, step_alpha=0.05)
        records, store, metrics = run_campaign(cfg, dataset=ds, classifier=c)
        assert metrics.overlap_events == audit(store)["overlap_events"]
        assert len(store) == sum(1 for r in records if r.prediction != ABSTAIN)

    def test_memory_adjustment_is_recorded(self):
        # two coincident inputs with opposite true classes force an overlap
        xs = np.array([[0.6, 0.0], [0.62, 0.0]])
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.25)
        ds = LabeledDataset(xs, np.array([1, 0]))
        cfg = self._cfg(MODE_DS, iters=0, n_cert=2000)
        # flip the second input's candidate class by evaluating a classifier
        # that disagrees near the boundary: use label noise instead; the
        # memory must still keep regions disjoint
        records, store, metrics = run_campaign(cfg, dataset=ds, classifier=c)
        rs = store.regions
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                if rs[i].prediction != rs[j].prediction:
                    d = np.linalg.norm(np.array(rs[i].center)
                                       - np.array(rs[j].center))
                    assert d >= rs[i].radius + rs[j].radius - 1e-9

    def test_ds_l1_mode_runs_and_certifies(self):
        rng = np.random.default_rng(11)
        xs = np.stack([rng.uniform(0.3, 0.9, size=10),
                       rng.normal(size=10)], axis=1)
        from smoothcert.classifiers import hard_halfspace_classifier
        c = hard_halfspace_classifier([1.0, 0.0], 0.0)
        ds = LabeledDataset(xs, np.ones(10, dtype=int))
        cfg = self._cfg(MODE_DS_L1, iters=10, step_alpha=0.02, n_cert=2000)
        records, store, metrics = run_campaign(cfg, dataset=ds, classifier=c)
        assert metrics.n_inputs == 10
        for r in records:
            assert r.radius >= 0.0
        assert all(reg.norm == "l1" for reg in store.regions)

    @pytest.mark.parametrize("mode,norm", [(MODE_DS, "l2"), (MODE_DS_L1, "l1")])
    def test_row_that_abstains_inside_a_stored_region_stays_abstain(self, mode, norm):
        # today's rule: an abstention certifies no region, so it is neither
        # stored nor compared with the memory, even at a stored region's center
        c = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
        ds = LabeledDataset(np.zeros((1, 2)), np.array([0]))  # on the boundary: p_A = 1/2
        store = MemoryStore()
        memory_insert(store, CertifiedRegion((0.0, 0.0), 1.0, 0, 0.25, norm))
        before = copy.deepcopy(store)
        (record,), after, metrics = run_campaign(self._cfg(mode, iters=0, n_cert=2000),
                                                 dataset=ds, classifier=c, memory=store)
        assert (record.prediction, record.radius, record.adjusted) == (ABSTAIN, 0.0, False)
        assert not record.correct and metrics.acr == 0.0
        assert after.regions == before.regions and after.overlap_events == 0


class TestReplayRow:
    def _cfg(self, mode, n=4, **opt_kw):
        return CampaignConfig(mode=mode, sigma0=0.25,
                              cert=GaussianCertConfig(n0=20, n_cert=300, seed=3),
                              opt=SigmaOptConfig(step_alpha=0.05, iters_k=6, n_samples=n,
                                                 **opt_kw))

    @pytest.mark.parametrize("mode", [MODE_FIXED, MODE_DS, MODE_DS_L1])
    @pytest.mark.parametrize("return_mode", ["faithful", "best_iterate"])
    def test_every_row_equals_the_campaign_across_blocks(self, mode, return_mode):
        # 4096 draws per row: rows 0-4 and 5-9 share their ascent calls
        ds, c = probit_setup(n=10, seed=12)
        cfg = self._cfg(mode, n=4096, return_mode=return_mode)
        records, _, _ = run_campaign(cfg, dataset=ds, classifier=c)
        for i, record in enumerate(records):
            scale, trace, out = pipeline.replay_row(cfg, ds, c, i)
            assert scale == record.sigma_star and type(scale) is float
            assert (trace is None) == (mode == MODE_FIXED)
            if trace is not None and return_mode == "faithful":
                assert trace[-1].sigma == scale
            assert out.p_lower == record.p_lower
            if not record.adjusted:
                assert (out.prediction, out.radius) == (record.prediction, record.radius)

    @pytest.mark.parametrize("mode", [MODE_DS, MODE_DS_L1])
    @pytest.mark.parametrize("points", [None, 3 * 7], ids=["one_block", "blocks_of_7"])
    def test_rows_whose_rounding_depends_on_the_block_equal_the_campaign(
            self, monkeypatch, mode, points):
        # a d=16 MLP's small matmuls round with the rows that share the call, so
        # at n=1 only a replay of the row's own block, here all 40 rows or 7
        # of them, gives the campaign's scales bit for bit
        if points:
            monkeypatch.setattr(pipeline, "_ASCENT_POINTS", points)
            monkeypatch.setattr(pipeline, "_VOTE_BATCH", 1)  # sizes the vote pool only
        rng = np.random.default_rng(1)
        c = mlp_classifier(TinyMLP(16, 32, 3, rng=rng))
        xs = rng.normal(size=(40, 16))
        ds = LabeledDataset(xs, c.probs(xs).argmax(axis=1))
        cfg = self._cfg(mode, n=1, return_mode="best_iterate")
        records, _, _ = run_campaign(cfg, dataset=ds, classifier=c)
        assert [pipeline.replay_row(cfg, ds, c, i)[0] for i in range(len(ds))] == [
            r.sigma_star for r in records]

    @pytest.mark.parametrize("row", [-1, 6])
    def test_row_outside_the_dataset_rejected_before_work(self, row):
        ds, c = probit_setup(n=6, seed=2)
        c, calls = sizes_of_calls(c)
        with pytest.raises(ValueError, match=f"row {row} lies outside the campaign's 6 rows"):
            pipeline.replay_row(self._cfg(MODE_DS), ds, c, row)
        assert calls == []

    @pytest.mark.parametrize("mode", [MODE_FIXED, MODE_DS])
    def test_what_run_campaign_refuses_is_refused(self, mode):
        ds, c = probit_setup(n=6, seed=2)
        c, calls = sizes_of_calls(c)
        labels = ds.labels.copy()
        labels[4] = 5
        with pytest.raises(ValueError, match="row 4: label 5"):
            pipeline.replay_row(self._cfg(mode), LabeledDataset(ds.points, labels), c, 0)
        wide = LabeledDataset(np.zeros((2, 3)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="dataset dim 3 does not match classifier dim 2"):
            pipeline.replay_row(self._cfg(mode), wide, c, 0)
        assert calls == []


def prior_memory(ds, norm):
    """Prediction-0 regions on the positive side of the probit boundary: one
    holds row 0's center (override), one lies beside row 1's (shrink)."""
    store = MemoryStore()
    x0, x1 = ds.points[ds.labels == 1][:2]
    for center, radius in ((x0 + [0.02, 0.0], 0.1), (x1 + [0.0, 0.3], 0.2)):
        memory_insert(store, CertifiedRegion(tuple(center), radius, 0, 0.25, norm))
    return store


class TestThreadedCampaign:
    MODES = (MODE_FIXED, MODE_DS, MODE_DS_L1)
    LIGHT = pipeline._POOL_MIN_VOTES - 1  # the most votes certified without threads

    def _cfg(self, mode, n_cert=20_000):
        cert = GaussianCertConfig(n0=50, n_cert=n_cert, alpha_fail=0.01, seed=13)
        opt = SigmaOptConfig(step_alpha=0.05, iters_k=5, n_samples=16)
        return CampaignConfig(mode=mode, sigma0=0.25, cert=cert, opt=opt,
                              radii_grid=(0.0, 0.25, 0.5))

    @pytest.mark.parametrize("rows", [5, 13])
    @pytest.mark.parametrize("mode", MODES)
    def test_outputs_do_not_depend_on_the_cpu_count(self, monkeypatch, tmp_path,
                                                    mode, rows):
        ds, c = probit_setup(n=rows, seed=11)
        norm = "l1" if mode == MODE_DS_L1 else "l2"
        outputs = []
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(pipeline, "_cpu_count", lambda: cpus)
            records, store, metrics = run_campaign(self._cfg(mode), ds, c,
                                                   prior_memory(ds, norm))
            emit_report(records, metrics, tmp_path / "r.csv", tmp_path / "r.json",
                        memory=store, memory_path=tmp_path / "m.jsonl")
            files = [(tmp_path / f).read_bytes() for f in ("m.jsonl", "r.csv", "r.json")]
            outputs.append((records, store.regions, files))
        assert all(out == outputs[0] for out in outputs[1:])
        if mode != MODE_FIXED:
            # the prior memory overrode one positive row and shrank another
            adjusted = [r for r in records if r.adjusted]
            assert {r.prediction for r in adjusted} == {0, 1}

    def test_rows_run_on_several_threads(self, monkeypatch):
        ds, c = probit_setup(n=13, seed=9)
        seen = set()
        both = threading.Barrier(2, timeout=30)

        def labels_fn(points):
            me = threading.get_ident()
            if me not in seen:
                seen.add(me)
                both.wait()  # a serial loop never reaches the second party
            return c.labels_fn(points)

        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
        threaded = ClassifierHandle(c.kind, c.dim, c.num_classes, c.probs_fn,
                                    labels_fn=labels_fn)
        records = run_campaign(self._cfg(MODE_FIXED), dataset=ds, classifier=threaded)[0]
        assert len(seen) >= 2
        assert records == run_campaign(self._cfg(MODE_FIXED), dataset=ds,
                                       classifier=c)[0]

    def test_light_rows_run_on_the_calling_thread(self, monkeypatch):
        ds, c = probit_setup(n=13, seed=9)
        seen = set()

        def labels_fn(points):
            seen.add(threading.get_ident())
            return c.labels_fn(points)

        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
        recording = ClassifierHandle(c.kind, c.dim, c.num_classes, c.probs_fn,
                                     labels_fn=labels_fn)
        run_campaign(self._cfg(MODE_FIXED, n_cert=self.LIGHT), dataset=ds,
                     classifier=recording)
        assert seen == {threading.get_ident()}

    def test_votes_in_flight_stay_within_one_ascent_call(self, monkeypatch):
        ds, c = probit_setup(n=5, seed=9)
        sizes = []

        class RecordingPool(pipeline.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", RecordingPool)
        for cpus in (1, 3, 64):
            monkeypatch.setattr(pipeline, "_cpu_count", lambda: cpus)
            run_campaign(self._cfg(MODE_FIXED), dataset=ds, classifier=c)
        cap = pipeline._ASCENT_POINTS // smoothing._VOTE_BATCH
        assert sizes == [1, 3, cap]

    @pytest.mark.parametrize("cpus,n_cert", [(1, 20_000), (2, 20_000), (8, 20_000),
                                             (2, LIGHT)])
    def test_failing_row_leaves_the_memory_unchanged(self, monkeypatch, cpus, n_cert):
        ds, c = probit_setup(n=10, seed=10)
        points = ds.points.copy()
        points[:, 1] = 10.0 * np.arange(10)  # the row index, read back from votes
        ds = LabeledDataset(points, ds.labels)

        def labels_fn(points):
            row = int(round(points[:, 1].mean() / 10.0))
            if row == 3:
                time.sleep(0.05)  # row 7 fails first when rows run at once
            if row in (3, 7):
                raise RuntimeError(f"row {row} failed")
            return c.labels_fn(points)

        monkeypatch.setattr(pipeline, "_cpu_count", lambda: cpus)
        failing = ClassifierHandle(c.kind, c.dim, c.num_classes, c.probs_fn,
                                   labels_fn=labels_fn)
        memory = prior_memory(ds, "l2")
        before = copy.deepcopy(memory)
        with pytest.raises(RuntimeError, match="row 3 failed"):
            run_campaign(self._cfg(MODE_DS, n_cert=n_cert), dataset=ds,
                         classifier=failing, memory=memory)
        assert memory == before
        assert (len(memory), memory.comparisons) == (len(before), before.comparisons)


class TestTrainBatch:
    def _trainable(self, seed=0):
        return mlp_classifier(TinyMLP(2, 8, 2, rng=np.random.default_rng(seed)))

    def test_zero_iters_keeps_sigmas(self):
        c = self._trainable()
        xs, ys = make_two_clusters(12, seed=1)
        sigmas = np.full(12, 0.3)
        cfg = SigmaOptConfig(iters_k=0, n_samples=8)
        out = train_batch(c, xs, ys, sigmas, cfg,
                          GaussianAugmentationTrainer(lr=0.1),
                          np.random.default_rng(0))
        assert np.array_equal(out, sigmas)

    def test_one_trainer_call_per_batch(self):
        c = self._trainable()
        xs, ys = make_two_clusters(9, seed=2)
        calls = []

        def counting_trainer(clf, bx, by, sig, rng):
            calls.append(len(bx))

        cfg = SigmaOptConfig(iters_k=2, n_samples=8)
        train_batch(c, xs, ys, np.full(9, 0.25), cfg, counting_trainer,
                    np.random.default_rng(0))
        assert calls == [9]

    def test_carried_sigmas_stay_confined(self):
        c = self._trainable(seed=5)
        xs, ys = make_annuli(30, seed=3)
        cfg = SigmaOptConfig(step_alpha=0.05, iters_k=1, n_samples=8,
                             sigma_min=0.05, sigma_max=2.0, fd_step=0.05)
        trainer = GaussianAugmentationTrainer(lr=0.2)
        rng = np.random.default_rng(4)
        sigmas = np.full(30, 0.25)
        for _ in range(25):
            sigmas = train_batch(c, xs, ys, sigmas, cfg, trainer, rng)
            assert np.all(sigmas >= cfg.sigma_min)
            assert np.all(sigmas <= cfg.sigma_max)

    def test_requires_trainable(self):
        c = constant_classifier([0.5, 0.5], dim=2)
        cfg = SigmaOptConfig(iters_k=0, n_samples=4)
        with pytest.raises(ValueError):
            train_batch(c, np.zeros((2, 2)), np.zeros(2, dtype=int),
                        np.full(2, 0.25), cfg,
                        GaussianAugmentationTrainer(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="kind='constant' is not trainable"):
            GaussianAugmentationTrainer()(c, np.zeros((2, 2)), np.zeros(2, dtype=int),
                                          np.full(2, 0.25), np.random.default_rng(0))


class TestTrainingDemo:
    @pytest.mark.parametrize("sizes,message", [
        ({"n_cert": 99}, r"n_cert must be >= n0, got 99 < 100"),
        ({"n_train": 0}, r"need n_train >= 1, n_test >= 1 and epochs >= 0, got 0, 60 and 1"),
        ({"n_test": 0}, r"need n_train >= 1, n_test >= 1 and epochs >= 0, got 120, 0 and 1"),
        ({"epochs": -1}, r"need n_train >= 1, n_test >= 1 and epochs >= 0, got 120, 60 and -1"),
    ], ids=["n_cert", "n_train", "n_test", "epochs"])
    def test_sizes_that_do_no_work_raise_before_any_training(self, monkeypatch, sizes,
                                                             message):
        def ran(*args, **kwargs):
            raise AssertionError("the demo drew data or trained")

        monkeypatch.setattr(pipeline, "train_batch", ran)
        monkeypatch.setattr("smoothcert.synthetic.make_annuli", ran)
        with pytest.raises(ValueError, match=message):
            pipeline.run_training_demo(**{"epochs": 1} | sizes)


class TestReports:
    def _records(self):
        return [rec(0, 1, 1, 0.62, sigma=0.31, p=0.93),
                rec(1, 0, ABSTAIN, 0.0, sigma=0.25, p=0.41),
                rec(2, 1, 0, 0.17, sigma=0.4, p=0.77, adj=True)]

    def test_csv_shape_and_abstain_encoding(self, tmp_path):
        records = self._records()
        metrics = metrics_from_records(records, (0.0, 0.5))
        csv_path = tmp_path / "r.csv"
        emit_report(records, metrics, csv_path)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == ("idx,label,prediction,correct,radius,sigma_star,"
                            "p_lower,adjusted_by_memory")
        assert lines[2].split(",")[2] == "ABSTAIN"
        assert lines[2].split(",")[4] == "0.0"

    def test_round_trip_recomputes_identical_acr(self, tmp_path):
        records = self._records()
        metrics = metrics_from_records(records, (0.0, 0.5))
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "m.json"
        emit_report(records, metrics, csv_path, json_path)
        back = read_report_csv(csv_path)
        recomputed = metrics_from_records(back, (0.0, 0.5))
        stored = json.loads(json_path.read_text())["metrics"]
        assert abs(recomputed.acr - stored["acr"]) < 1e-9
        assert list(recomputed.certified_accuracy) == \
            stored["certified_accuracy"]

    def test_blank_rows_skipped_on_read(self, tmp_path):
        records = self._records()
        csv_path = tmp_path / "r.csv"
        emit_report(records, metrics_from_records(records, (0.0, 0.5)), csv_path)
        header, *rows = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join([header, "", rows[0], "", *rows[1:], ""]) + "\n")
        assert read_report_csv(csv_path) == records

    def test_campaign_reports_are_byte_identical(self, tmp_path):
        ds, c = probit_setup(n=8, seed=21)
        data_path = tmp_path / "d.csv"
        save_dataset_csv(ds.points, ds.labels, data_path)
        outs = []
        for name in ("a", "b"):
            cert = GaussianCertConfig(n0=50, n_cert=500, alpha_fail=0.01, seed=42)
            opt = SigmaOptConfig(iters_k=10, step_alpha=0.05, n_samples=16)
            cfg = CampaignConfig(mode=MODE_DS, sigma0=0.25, cert=cert, opt=opt,
                                 radii_grid=(0.0, 0.5))
            records, _, metrics = run_campaign(cfg, load_dataset(data_path), c)
            emit_report(records, metrics, tmp_path / f"{name}.csv",
                        tmp_path / f"{name}.json")
            outs.append((tmp_path / f"{name}.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode", [MODE_FIXED, MODE_DS])
    def test_numpy_sigma0_round_trips_through_the_csv(self, tmp_path, mode):
        ds, c = probit_setup(n=3, seed=4)
        cert = GaussianCertConfig(n0=50, n_cert=200, alpha_fail=0.01, seed=1)
        cfg = CampaignConfig(mode=mode, sigma0=np.float64(0.25), cert=cert,
                             opt=SigmaOptConfig(iters_k=0, n_samples=4))
        assert type(cfg.sigma0) is float
        records, _, metrics = run_campaign(cfg, ds, c)
        emit_report(records, metrics, tmp_path / "r.csv")
        assert read_report_csv(tmp_path / "r.csv") == records
