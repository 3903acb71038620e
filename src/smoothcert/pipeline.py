"""End-to-end certification campaigns, metrics, training loop, and reports.

A campaign certifies every dataset row either at one fixed scale or with the
per-input optimized scale ("ds" modes), feeding the resulting regions through
the memory so differently-predicted certificates can never overlap. The scale
ascent runs in one batched call per block of rows, and ``_ASCENT_POINTS`` fixes
the blocks: a row's sigma* can move by an ulp with the rows that share its
classifier call. Rows are certified on up to one thread per CPU, then inserted
into the memory in dataset order; per-row streams (``STREAM_CERT``, ``STREAM_OPT``)
make the results independent of the threads and the CPU count. ``run_campaign``
reads and writes no files: it takes the dataset, classifier and memory as
objects and returns the records, memory and metrics, which ``emit_report`` writes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from itertools import repeat

import numpy as np

from .classifiers import ClassifierHandle
from .memory import (NORM_L1, NORM_L2, CertifiedRegion, MemoryStore,
                     memory_insert, save_memory)
from .sigma_opt import RETURN_BEST_ITERATE, SigmaOptConfig, optimize_sigma
from .smoothing import (_VOTE_BATCH, ABSTAIN, NOISE_GAUSSIAN, NOISE_UNIFORM, STREAM_CERT,
                        STREAM_OPT, GaussianCertConfig, NoiseBatch, certify_l1,
                        certify_l2, draw_noise, row_rngs)

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
    "checked_radii_grid",
    "emit_report",
    "read_report_csv",
    "metrics_from_records",
]

MODE_FIXED = "fixed"
MODE_DS = "ds"
MODE_DS_L1 = "ds_l1"

_MODES = {MODE_FIXED: (NOISE_GAUSSIAN, NORM_L2), MODE_DS: (NOISE_GAUSSIAN, NORM_L2),
          MODE_DS_L1: (NOISE_UNIFORM, NORM_L1)}

DEFAULT_RADII = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)

REPORT_HEADER = ["idx", "label", "prediction", "correct", "radius",
                 "sigma_star", "p_lower", "adjusted_by_memory"]

# Points per ascent call; fixed, as the block layout can move outputs by an ulp.
_ASCENT_POINTS = 1 << 16
_POOL_MIN_VOTES = 1 << 12  # lighter rows are Python-bound: threads measured slower


@dataclass(frozen=True)
class LabeledDataset:
    points: np.ndarray  # (m, d)
    labels: np.ndarray  # (m,)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        labels = np.asarray(self.labels)
        if labels.dtype.kind == "f":  # a cast would truncate, or wrap past int64
            bad = labels[~((np.floor(labels) == labels) & (np.abs(labels) < 2**63))]
            if bad.size:
                raise ValueError(f"labels must be whole numbers below 2**63, got {bad[0]}")
        labels = labels.astype(int)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
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

    ``sigma0`` is the campaign's one noise scale: in fixed mode every row is
    certified at it, in ds modes it is every row's ascent start (the initial
    lambda for ds_l1) and must lie in [opt.sigma_min, opt.sigma_max].
    ``cert`` is the Monte Carlo budget and ``opt`` the ascent's settings.
    """
    mode: str
    sigma0: float
    cert: GaussianCertConfig
    opt: SigmaOptConfig
    radii_grid: tuple[float, ...] = DEFAULT_RADII

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "sigma0", float(self.sigma0))
        lo, hi = self.opt.sigma_min, self.opt.sigma_max
        if not 0 < self.sigma0 < np.inf:
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        if self.mode != MODE_FIXED and not lo <= self.sigma0 <= hi:
            raise ValueError(f"sigma0 {self.sigma0} lies outside [{lo}, {hi}]")
        object.__setattr__(self, "radii_grid", checked_radii_grid(self.radii_grid))


@dataclass(frozen=True)
class MetricsSummary:
    radii: tuple[float, ...]
    certified_accuracy: tuple[float, ...]
    acr: float
    abstain_rate: float
    overlap_events: int
    n_inputs: int


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


def _ascent_scales(c, dataset: LabeledDataset, cfg: CampaignConfig,
                   kind: str) -> np.ndarray:
    """Optimized scale of every row, one ``optimize_sigma`` call per block.

    An iterate scores at most three scales of n draws per row: blocks of
    _ASCENT_POINTS // (3 n) rows keep a classifier call within that bound
    while 3 n <= _ASCENT_POINTS, and a larger n gives one-row blocks of 3 n points.
    """
    n = cfg.opt.n_samples
    block = max(1, _ASCENT_POINTS // (3 * n))
    rngs = row_rngs(cfg.cert.seed, len(dataset), STREAM_OPT)
    scales = np.empty(len(dataset))
    for start in range(0, len(dataset), block):
        stop = min(start + block, len(dataset))
        draws = np.stack([draw_noise(rng, n, c.dim, kind).draws for rng in rngs[start:stop]])
        scales[start:stop], _ = optimize_sigma(
            c, dataset.points[start:stop], cfg.opt, NoiseBatch(kind, draws), cfg.sigma0)
    return scales


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_campaign(cfg: CampaignConfig, dataset: LabeledDataset,
                 classifier: ClassifierHandle, memory: MemoryStore | None = None
                 ) -> tuple[list[CertRecord], MemoryStore, MetricsSummary]:
    """Certify a dataset and aggregate the campaign metrics.

    Fixed mode certifies at one scale without touching the memory; the ds
    modes optimize every row's scale in batched ascent calls first. All rows
    are certified, on up to one thread per CPU and 2^16 vote points in flight,
    before the ds regions go into the memory (a new empty one by default) in
    dataset order, recording any adjustment the memory forced on the
    prediction or radius. A dataset or memory that does not fit the classifier
    or mode is rejected before any work.
    """
    if memory is None:
        memory = MemoryStore()
    if len(dataset) and dataset.dim != classifier.dim:
        raise ValueError(f"dataset dim {dataset.dim} does not match classifier "
                         f"dim {classifier.dim}")
    bad = np.flatnonzero(dataset.labels >= classifier.num_classes)
    if bad.size:
        raise ValueError(f"row {bad[0]}: label {dataset.labels[bad[0]]} is not a "
                         f"class of the {classifier.num_classes}-class classifier")
    kind, norm = _MODES[cfg.mode]
    if cfg.mode != MODE_FIXED and len(memory) and len(dataset):
        if (memory.norm, memory.dim) != (norm, dataset.dim):
            raise ValueError(
                f"memory mismatch: mode {cfg.mode} needs {norm} regions of dim {dataset.dim}, "
                f"the memory holds {memory.norm} regions of dim {memory.dim}")

    scales = ([cfg.sigma0] * len(dataset) if cfg.mode == MODE_FIXED
              else _ascent_scales(classifier, dataset, cfg, kind).tolist())
    certify = certify_l1 if kind == NOISE_UNIFORM else certify_l2
    rngs = row_rngs(cfg.cert.seed, len(dataset), STREAM_CERT)
    with ThreadPoolExecutor(min(_cpu_count(), _ASCENT_POINTS // _VOTE_BATCH)) as pool:
        mapper = map if cfg.cert.n_cert < _POOL_MIN_VOTES else pool.map
        outcomes = list(mapper(certify, repeat(classifier), dataset.points, scales,
                               repeat(cfg.cert), rngs))
    records: list[CertRecord] = []
    for i, (x, scale, out) in enumerate(zip(dataset.points, scales, outcomes)):
        prediction, radius, adjusted = out.prediction, out.radius, False
        if cfg.mode != MODE_FIXED and not out.abstained:
            region = CertifiedRegion(center=tuple(x), radius=out.radius,
                                     prediction=out.prediction, sigma_used=scale,
                                     norm=norm)
            prediction, final_region, adjusted = memory_insert(memory, region)
            radius = final_region.radius
        records.append(CertRecord(idx=i, label=int(dataset.labels[i]),
                                  prediction=prediction, radius=radius,
                                  p_lower=out.p_lower, sigma_star=scale,
                                  adjusted=adjusted))

    metrics = metrics_from_records(records, cfg.radii_grid,
                                   overlap_events=memory.overlap_events)
    return records, memory, metrics


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def metrics_from_records(records: list[CertRecord], radii: tuple[float, ...],
                         overlap_events: int = 0) -> MetricsSummary:
    """Certified accuracy per grid radius (the share of rows correct and
    certified at radius >= r) and the ACR (mean of radius * 1{correct};
    abstentions add 0). An empty result set scores 0 everywhere."""
    n = max(len(records), 1)
    correct_radii = [rec.radius for rec in records if rec.correct]
    return MetricsSummary(
        radii=tuple(radii),
        certified_accuracy=tuple(sum(x >= r for x in correct_radii) / n for r in radii),
        acr=float(sum(correct_radii) / n),
        abstain_rate=sum(rec.prediction == ABSTAIN for rec in records) / n,
        overlap_events=overlap_events, n_inputs=len(records))


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
    stars, _ = optimize_sigma(c, points, opt_cfg, noise, sigmas)
    trainer(c, points, labels, stars, rng)
    return stars


def run_training_demo(seed: int = 0, n_train: int = 120, n_test: int = 60,
                      epochs: int = 30, n_cert: int = 2000) -> dict:
    """Train a perceptron on the annuli data with per-input scales, then
    certify the test split at the fixed starting scale and with the
    data-dependent scale, returning both metric summaries.

    Training warms up for ``epochs`` epochs of plain fixed-scale augmentation
    (zero optimization iterations), then runs ``epochs`` more with one ascent
    step per epoch and the scales carried over between epochs. Sizes that do no
    work, ``n_cert`` below the budget's ``n0`` among them, raise before any training.
    """
    from .classifiers import TinyMLP, mlp_classifier
    from .synthetic import make_annuli

    if n_train < 1 or n_test < 1 or epochs < 0:
        raise ValueError("need n_train >= 1, n_test >= 1 and epochs >= 0, got "
                         f"{n_train}, {n_test} and {epochs}")
    cert = GaussianCertConfig(n_cert=n_cert, seed=seed)
    xs, ys = make_annuli(n_train, seed=seed)
    xt, yt = make_annuli(n_test, seed=seed + 10_000)
    mlp = TinyMLP(2, 16, 2, rng=np.random.default_rng(
        np.random.SeedSequence([int(seed), 7])))
    c = mlp_classifier(mlp)
    trainer = GaussianAugmentationTrainer(lr=0.5, n_aug=4)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 8]))

    sigma0 = 0.25
    base_opt = SigmaOptConfig(step_alpha=0.02, iters_k=0, n_samples=16,
                              sigma_min=0.05, sigma_max=2.0, fd_step=0.05)
    ds_opt = replace(base_opt, iters_k=1)
    sigmas = np.full(n_train, sigma0)
    for epoch in range(2 * epochs):
        opt_cfg = base_opt if epoch < epochs else ds_opt
        order = rng.permutation(n_train)
        for start in range(0, n_train, 20):
            idx = order[start:start + 20]
            sigmas[idx] = train_batch(c, xs[idx], ys[idx], sigmas[idx],
                                      opt_cfg, trainer, rng)

    test_set = LabeledDataset(xt, yt)
    cert_opt = replace(base_opt, iters_k=100, n_samples=32,
                       return_mode=RETURN_BEST_ITERATE)
    m_fixed, m_ds = (run_campaign(CampaignConfig(mode, sigma0, cert, cert_opt), test_set, c)[2]
                     for mode in (MODE_FIXED, MODE_DS))
    return {"seed": int(seed), "acr_fixed": m_fixed.acr, "acr_ds": m_ds.acr,
            "metrics_fixed": m_fixed, "metrics_ds": m_ds,
            "carried_sigmas": sigmas}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def emit_report(records: list[CertRecord], metrics: MetricsSummary, csv_path,
                json_path=None, config_echo: dict | None = None, *,
                memory: MemoryStore | None = None, memory_path=None) -> None:
    """Write the per-input CSV, the companion metrics JSON and, last, the memory
    file (when ``memory_path`` is given), so a failed write leaves it as it was."""
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        for rec in records:
            pred = "ABSTAIN" if rec.prediction == ABSTAIN else str(rec.prediction)
            writer.writerow([rec.idx, rec.label, pred, int(rec.correct),
                             repr(rec.radius), repr(rec.sigma_star),
                             repr(rec.p_lower), int(rec.adjusted)])
    if json_path:
        payload = {"metrics": asdict(metrics)}
        if config_echo is not None:
            payload["config"] = config_echo
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if memory_path:
        save_memory(memory, memory_path)


def read_report_csv(path) -> list[CertRecord]:
    """Parse a report CSV back into records (for metric recomputation); a
    row that ``emit_report`` could not have written is named by path and line."""
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
            try:
                idx, label = int(row[0]), int(row[1])
                pred = ABSTAIN if row[2] == "ABSTAIN" else int(row[2])
                radius, sigma_star, p_lower = map(float, row[4:7])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            for ok, message in (
                    (label >= 0 and (pred >= 0 or row[2] == "ABSTAIN"),
                     "label and prediction must be class indices"),
                    (row[3] == str(int(pred == label)),
                     "correct must be 1 exactly when prediction equals label"),
                    (0.0 <= radius < math.inf, "radius must be finite and >= 0"),
                    (pred != ABSTAIN or radius == 0.0, "an ABSTAIN row must carry radius 0"),
                    (0.0 < sigma_star < math.inf, "sigma_star must be positive and finite"),
                    (0.0 <= p_lower <= 1.0, "p_lower must lie in [0, 1]"),
                    (row[7] in ("0", "1"), "adjusted_by_memory must be 0 or 1")):
                if not ok:
                    raise ValueError(f"{path}: line {lineno}: {message}")
            records.append(CertRecord(idx=idx, label=label,
                                      prediction=pred, radius=radius,
                                      p_lower=p_lower, sigma_star=sigma_star,
                                      adjusted=row[7] == "1"))
    return records
