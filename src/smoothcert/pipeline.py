"""End-to-end certification campaigns, metrics, training loop, and reports.

A campaign certifies every dataset row either at one fixed scale or with the
per-input optimized scale ("ds" modes), feeding the resulting regions through
the memory so differently-predicted certificates can never overlap. The scale
ascent runs in one batched call per block of rows. Rows are certified on up
to one thread per CPU, then inserted into the memory in dataset order; per-row
seeds make the results independent of the blocks and the threads.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .classifiers import ClassifierHandle
from .memory import (NORM_L1, NORM_L2, CertifiedRegion, MemoryStore,
                     memory_insert, save_memory)
from .sigma_opt import SigmaOptConfig, optimize_sigma
from .smoothing import (_VOTE_BATCH, ABSTAIN, GaussianCertConfig, NoiseBatch,
                        certify_l1, certify_l2, draw_noise, rng_for_input)

__all__ = [
    "MODE_FIXED",
    "MODE_DS",
    "MODE_DS_L1",
    "LabeledDataset",
    "CampaignConfig",
    "MetricsSummary",
    "CertRecord",
    "load_dataset",
    "run_campaign",
    "train_batch",
    "run_training_demo",
    "GaussianAugmentationTrainer",
    "certified_accuracy_curve",
    "average_certified_radius",
    "checked_radii_grid",
    "emit_report",
    "read_report_csv",
    "metrics_from_records",
]

MODE_FIXED = "fixed"
MODE_DS = "ds"
MODE_DS_L1 = "ds_l1"

_MODES = (MODE_FIXED, MODE_DS, MODE_DS_L1)

DEFAULT_RADII = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)

REPORT_HEADER = ["idx", "label", "prediction", "correct", "radius",
                 "sigma_star", "p_lower", "adjusted_by_memory"]

# Streams of the per-input counter-based generator.
_STREAM_CERT = 0
_STREAM_OPT = 1
# Points per ascent call; fixed, as the block layout can move outputs by an ulp.
_ASCENT_POINTS = 1 << 16
_POOL_MIN_VOTES = 1 << 12  # lighter rows are Python-bound: threads measured slower


@dataclass(frozen=True)
class LabeledDataset:
    points: np.ndarray  # (m, d)
    labels: np.ndarray  # (m,)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        if labels.shape != (points.shape[0],):
            raise ValueError("labels must align with points")
        if np.any(labels < 0):
            raise ValueError("labels must be nonnegative class indices")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def load_dataset(path) -> LabeledDataset:
    """Read a CSV of rows with d floats followed by an integer label."""
    rows: list[list[float]] = []
    labels: list[int] = []
    dim = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: line {lineno}: need at least one "
                                 "feature and a label")
            if dim is None:
                dim = len(row) - 1
            elif len(row) - 1 != dim:
                raise ValueError(f"{path}: line {lineno}: expected {dim} features, "
                                 f"got {len(row) - 1}")
            try:
                rows.append([float(v) for v in row[:-1]])
                labels.append(int(row[-1]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, rows[-1])):
                raise ValueError(f"{path}: line {lineno}: features must be finite")
            if not 0 <= labels[-1] < 2**63:  # stored as int64
                raise ValueError(f"{path}: line {lineno}: label must be a "
                                 f"nonnegative class index below 2**63, got {labels[-1]}")
    if not rows:
        raise ValueError(f"{path}: dataset is empty")
    return LabeledDataset(np.asarray(rows), np.asarray(labels))


def checked_radii_grid(radii) -> tuple[float, ...]:
    """The certified-accuracy grid as floats; it must be finite, start at 0 and
    strictly increase."""
    grid = tuple(float(r) for r in radii)
    if (not grid or grid[0] != 0.0 or not all(map(math.isfinite, grid))
            or any(b <= a for a, b in zip(grid, grid[1:]))):
        raise ValueError("radii grid must be finite, start at 0 and strictly "
                         f"increase, got {grid}")
    return grid


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a certification campaign needs.

    In ds modes ``opt.sigma0`` seeds the per-input optimization (it doubles
    as the initial lambda for ds_l1); in fixed mode ``cert.sigma`` is the
    scale used everywhere.
    """
    mode: str
    cert: GaussianCertConfig
    opt: SigmaOptConfig
    radii_grid: tuple[float, ...] = DEFAULT_RADII
    dataset_path: str | None = None
    classifier_path: str | None = None
    memory_in: str | None = None
    memory_out: str | None = None
    report_csv: str | None = None
    report_json: str | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "radii_grid", checked_radii_grid(self.radii_grid))


@dataclass(frozen=True)
class MetricsSummary:
    radii: tuple[float, ...]
    certified_accuracy: tuple[float, ...]
    acr: float
    abstain_rate: float
    overlap_events: int
    n_inputs: int

    def to_dict(self) -> dict:
        return {"radii": list(self.radii),
                "certified_accuracy": list(self.certified_accuracy),
                "acr": self.acr, "abstain_rate": self.abstain_rate,
                "overlap_events": self.overlap_events, "n_inputs": self.n_inputs}


@dataclass(frozen=True)
class CertRecord:
    idx: int
    label: int
    prediction: int
    radius: float
    p_lower: float
    sigma_star: float
    adjusted: bool

    @property
    def correct(self) -> bool:
        return self.prediction == self.label


def _ascent_scales(c, dataset: LabeledDataset, cfg: CampaignConfig) -> np.ndarray:
    """Optimized scale of every row, one ``optimize_sigma`` call per block.

    An iterate scores at most three scales of n draws per row, so blocks of
    _ASCENT_POINTS // (3 n) rows keep each classifier call within that bound.
    """
    kind = "uniform" if cfg.mode == MODE_DS_L1 else "gaussian"
    n = cfg.opt.n_samples
    block = max(1, _ASCENT_POINTS // (3 * n))
    scales = np.empty(len(dataset))
    for start in range(0, len(dataset), block):
        rows = range(start, min(start + block, len(dataset)))
        noise = NoiseBatch(kind, np.stack([
            draw_noise(rng_for_input(cfg.cert.seed, i, _STREAM_OPT), n, c.dim,
                       kind).draws for i in rows]))
        scales[start:rows.stop], _ = optimize_sigma(
            c, dataset.points[start:rows.stop], cfg.opt, noise=noise)
    return scales


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_campaign(cfg: CampaignConfig,
                 dataset: LabeledDataset | None = None,
                 classifier: ClassifierHandle | None = None,
                 memory: MemoryStore | None = None
                 ) -> tuple[list[CertRecord], MemoryStore, MetricsSummary]:
    """Certify a dataset and aggregate the campaign metrics.

    Fixed mode certifies at one scale without touching the memory; the ds
    modes optimize every row's scale in batched ascent calls first. All rows
    are certified, on up to one thread per CPU and 2^16 vote points in flight,
    before the ds regions go into the memory in dataset order, recording any
    adjustment the memory forced on the prediction or radius. A dataset or
    memory that does not fit the classifier or mode is rejected before any work.
    """
    from .classifiers import load_classifier
    from .memory import load_memory

    if dataset is None:
        if cfg.dataset_path is None:
            raise ValueError("either a dataset or a dataset path is required")
        dataset = load_dataset(cfg.dataset_path)
    if classifier is None:
        if cfg.classifier_path is None:
            raise ValueError("either a classifier or a classifier path is required")
        classifier = load_classifier(cfg.classifier_path)
    if memory is None:
        memory = load_memory(cfg.memory_in) if cfg.memory_in else MemoryStore()

    if len(dataset) and dataset.dim != classifier.dim:
        raise ValueError(f"dataset dim {dataset.dim} does not match classifier "
                         f"dim {classifier.dim}")
    bad = np.flatnonzero(dataset.labels >= classifier.num_classes)
    if bad.size:
        raise ValueError(f"row {bad[0]}: label {dataset.labels[bad[0]]} is not a "
                         f"class of the {classifier.num_classes}-class classifier")
    if cfg.mode != MODE_FIXED and len(memory) and len(dataset):
        norm = NORM_L1 if cfg.mode == MODE_DS_L1 else NORM_L2
        if (memory.norm, memory.dim) != (norm, dataset.dim):
            raise ValueError(
                f"memory mismatch: mode {cfg.mode} needs {norm} regions of dim {dataset.dim}, "
                f"the memory holds {memory.norm} regions of dim {memory.dim}")

    scales = ([cfg.cert.sigma] * len(dataset) if cfg.mode == MODE_FIXED
              else _ascent_scales(classifier, dataset, cfg).tolist())

    def certify_row(i):
        rng = rng_for_input(cfg.cert.seed, i, _STREAM_CERT)
        if cfg.mode == MODE_DS_L1:
            return certify_l1(classifier, dataset.points[i], scales[i], cfg.cert, rng=rng)
        return certify_l2(classifier, dataset.points[i],
                          replace(cfg.cert, sigma=scales[i]), rng=rng)

    with ThreadPoolExecutor(min(_cpu_count(), _ASCENT_POINTS // _VOTE_BATCH)) as pool:
        mapper = map if cfg.cert.n_cert < _POOL_MIN_VOTES else pool.map
        outcomes = list(mapper(certify_row, range(len(dataset))))
    records: list[CertRecord] = []
    for i, (x, scale, out) in enumerate(zip(dataset.points, scales, outcomes)):
        prediction, radius, adjusted = out.prediction, out.radius, False
        if cfg.mode != MODE_FIXED and not out.abstained:
            region = CertifiedRegion(center=tuple(x), radius=out.radius,
                                     prediction=out.prediction, sigma_used=scale,
                                     norm=out.norm)
            prediction, final_region, adjusted = memory_insert(memory, region)
            radius = final_region.radius
        records.append(CertRecord(idx=i, label=int(dataset.labels[i]),
                                  prediction=prediction, radius=radius,
                                  p_lower=out.p_lower, sigma_star=scale,
                                  adjusted=adjusted))

    metrics = metrics_from_records(records, cfg.radii_grid,
                                   overlap_events=memory.overlap_events)
    if cfg.memory_out:
        save_memory(memory, cfg.memory_out)
    if cfg.report_csv:
        emit_report(records, metrics, cfg.report_csv, cfg.report_json,
                    config_echo=_config_echo(cfg))
    return records, memory, metrics


def _config_echo(cfg: CampaignConfig) -> dict:
    return {
        "mode": cfg.mode,
        "cert": {"sigma": cfg.cert.sigma, "n0": cfg.cert.n0,
                 "n_cert": cfg.cert.n_cert, "alpha_fail": cfg.cert.alpha_fail,
                 "seed": cfg.cert.seed},
        "opt": {"sigma0": cfg.opt.sigma0, "step_alpha": cfg.opt.step_alpha,
                "iters_k": cfg.opt.iters_k, "n_samples": cfg.opt.n_samples,
                "sigma_min": cfg.opt.sigma_min, "sigma_max": cfg.opt.sigma_max,
                "grad_mode": cfg.opt.grad_mode, "return_mode": cfg.opt.return_mode},
        "radii_grid": list(cfg.radii_grid),
        "dataset": cfg.dataset_path,
        "classifier": cfg.classifier_path,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def certified_accuracy_curve(records: list[CertRecord],
                             radii: tuple[float, ...]) -> tuple[float, ...]:
    """Fraction of inputs correct AND certified at radius >= r, per grid radius."""
    if not records:
        return tuple(0.0 for _ in radii)
    vals = []
    for r in radii:
        ok = sum(1 for rec in records if rec.correct and rec.radius >= r)
        vals.append(ok / len(records))
    return tuple(vals)


def average_certified_radius(records: list[CertRecord]) -> float:
    """Mean of radius * 1{correct} over all rows; abstentions contribute 0."""
    if not records:
        warnings.warn("average certified radius of an empty result set is 0",
                      stacklevel=2)
        return 0.0
    return float(sum(rec.radius for rec in records if rec.correct) / len(records))


def metrics_from_records(records: list[CertRecord], radii: tuple[float, ...],
                         overlap_events: int = 0) -> MetricsSummary:
    n = len(records)
    abstain = sum(1 for rec in records if rec.prediction == ABSTAIN)
    return MetricsSummary(
        radii=tuple(radii),
        certified_accuracy=certified_accuracy_curve(records, radii),
        acr=average_certified_radius(records) if n else 0.0,
        abstain_rate=(abstain / n) if n else 0.0,
        overlap_events=overlap_events,
        n_inputs=n,
    )


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class GaussianAugmentationTrainer:
    """One cross-entropy SGD step on noise-augmented inputs.

    Each input is replicated ``n_aug`` times with Gaussian noise at its own
    scale before the step; requires a trainable classifier backend.
    """
    lr: float = 0.1
    n_aug: int = 1

    def __call__(self, c: ClassifierHandle, points: np.ndarray, labels: np.ndarray,
                 sigmas: np.ndarray, rng: np.random.Generator) -> float:
        if not c.trainable:
            raise ValueError(f"classifier kind={c.kind!r} is not trainable")
        reps = np.repeat(points, self.n_aug, axis=0)
        scales = np.repeat(np.asarray(sigmas, dtype=float), self.n_aug)
        noisy = reps + scales[:, None] * rng.standard_normal(reps.shape)
        rep_labels = np.repeat(np.asarray(labels, dtype=int), self.n_aug)
        return c.backend.train_step(noisy, rep_labels, self.lr)


def train_batch(c: ClassifierHandle, points: np.ndarray, labels: np.ndarray,
                sigmas: np.ndarray, opt_cfg: SigmaOptConfig, trainer,
                rng: np.random.Generator) -> np.ndarray:
    """One batch of scale-adaptive training.

    Optimizes the scales of the whole batch in one ascent call, each input
    starting from its carried value, then hands the batch and the optimized
    scales to the trainer for one step.
    Returns the optimized scales for carry-over into the next epoch.
    """
    if not c.trainable:
        raise ValueError(f"classifier kind={c.kind!r} is not trainable")
    points = np.asarray(points, dtype=float)
    noise = draw_noise(rng, opt_cfg.n_samples, c.dim, lead=(len(points),))
    stars, _ = optimize_sigma(c, points, opt_cfg, noise=noise, sigma0=sigmas)
    trainer(c, points, labels, stars, rng)
    return stars


def run_training_demo(seed: int = 0, n_train: int = 120, n_test: int = 60,
                      warmup_epochs: int = 30, ds_epochs: int = 30,
                      n_cert: int = 2000) -> dict:
    """Train a perceptron on the annuli data with per-input scales, then
    certify the test split at the fixed starting scale and with the
    data-dependent scale, returning both metric summaries.

    Training warms up with plain fixed-scale augmentation (zero optimization
    iterations), then switches to one ascent step per epoch with the scales
    carried over between epochs.
    """
    from .classifiers import TinyMLP, mlp_classifier
    from .synthetic import make_annuli

    xs, ys = make_annuli(n_train, seed=seed)
    xt, yt = make_annuli(n_test, seed=seed + 10_000)
    mlp = TinyMLP(2, 16, 2, rng=np.random.default_rng(
        np.random.SeedSequence([int(seed), 7])))
    c = mlp_classifier(mlp)
    trainer = GaussianAugmentationTrainer(lr=0.5, n_aug=4)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 8]))

    base_opt = SigmaOptConfig(sigma0=0.25, step_alpha=0.02, iters_k=0,
                              n_samples=16, sigma_min=0.05, sigma_max=2.0,
                              grad_mode="scalar_fd", fd_step=0.05)
    ds_opt = replace(base_opt, iters_k=1)
    sigmas = np.full(n_train, base_opt.sigma0)
    for epoch in range(warmup_epochs + ds_epochs):
        opt_cfg = base_opt if epoch < warmup_epochs else ds_opt
        order = rng.permutation(n_train)
        for start in range(0, n_train, 20):
            idx = order[start:start + 20]
            sigmas[idx] = train_batch(c, xs[idx], ys[idx], sigmas[idx],
                                      opt_cfg, trainer, rng)

    test_set = LabeledDataset(xt, yt)
    cert = GaussianCertConfig(sigma=base_opt.sigma0, n0=100, n_cert=n_cert,
                              alpha_fail=0.001, seed=seed)
    cert_opt = replace(base_opt, iters_k=100, n_samples=32,
                       return_mode="best_iterate")
    _, _, m_fixed = run_campaign(
        CampaignConfig(mode=MODE_FIXED, cert=cert, opt=cert_opt),
        dataset=test_set, classifier=c)
    _, _, m_ds = run_campaign(
        CampaignConfig(mode=MODE_DS, cert=cert, opt=cert_opt),
        dataset=test_set, classifier=c)
    return {"seed": int(seed), "acr_fixed": m_fixed.acr, "acr_ds": m_ds.acr,
            "metrics_fixed": m_fixed, "metrics_ds": m_ds,
            "carried_sigmas": sigmas}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def emit_report(records: list[CertRecord], metrics: MetricsSummary, csv_path,
                json_path=None, config_echo: dict | None = None) -> None:
    """Write the per-input CSV and the companion metrics JSON."""
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        for rec in records:
            pred = "ABSTAIN" if rec.prediction == ABSTAIN else str(rec.prediction)
            writer.writerow([rec.idx, rec.label, pred, int(rec.correct),
                             repr(rec.radius), repr(rec.sigma_star),
                             repr(rec.p_lower), int(rec.adjusted)])
    if json_path:
        payload = {"metrics": metrics.to_dict()}
        if config_echo is not None:
            payload["config"] = config_echo
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")


def read_report_csv(path) -> list[CertRecord]:
    """Parse a report CSV back into records (for metric recomputation)."""
    records: list[CertRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != REPORT_HEADER:
            raise ValueError(f"{path}: unexpected report header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(REPORT_HEADER):
                raise ValueError(f"{path}: line {lineno}: expected "
                                 f"{len(REPORT_HEADER)} fields")
            pred = ABSTAIN if row[2] == "ABSTAIN" else int(row[2])
            radius, sigma_star, p_lower = map(float, row[4:7])
            if not all(map(math.isfinite, (radius, sigma_star, p_lower))):
                raise ValueError(f"{path}: line {lineno}: radius, sigma_star and "
                                 "p_lower must be finite")
            records.append(CertRecord(idx=int(row[0]), label=int(row[1]),
                                      prediction=pred, radius=radius,
                                      p_lower=p_lower, sigma_star=sigma_star,
                                      adjusted=bool(int(row[7]))))
    return records
