"""Workload definitions: seeded fixtures and the CLI commands they drive.

Every workload is a list of items. An item is one ``smoothcert`` command
line plus what the correctness gate needs to check its outputs. All inputs
(dataset CSVs, the classifier JSON, the prior memory) are written here from
the workload seed before anything is timed; the program under test only
ever sees these files and the seed, passed as ``--seed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from smoothcert.classifiers import probit_halfspace_classifier, save_classifier
from smoothcert.synthetic import make_annuli, make_two_clusters, save_dataset_csv

# Probit half-space used by every certify workload: class-1 probability
# Phi((w.x - b) / s). Its smoothed probability has a closed form, which the
# gate uses as an oracle.
PROBIT_W = (1.0, 0.0)
PROBIT_B = 0.0
PROBIT_S = 0.5

ALPHA_FAIL = 0.001
SIGMA0 = 0.25
PRIOR_MAX_RADIUS = 0.05
# Rows per block of a pairwise distance matrix over memory regions.
BLOCK = 512

# The certify commands exactly as the README gives them.
FIXED_FLAGS = ["--mode", "fixed", "--sigma0", str(SIGMA0), "--n0", "100",
               "--alpha-fail", str(ALPHA_FAIL)]
DS_FLAGS = ["--mode", "ds", "--sigma0", str(SIGMA0), "--alpha-step", "1e-4",
            "--n", "1", "--n0", "100", "--alpha-fail", str(ALPHA_FAIL)]


@dataclass(frozen=True)
class Sizes:
    """Work per item. ``SMOKE`` shrinks every knob so a run takes seconds."""
    fixed_rows: int = 150
    fixed_items: int = 6
    ds_rows: int = 100
    ds_items: int = 2
    ds_iters: int = 100
    n_cert: int = 100_000
    warm_rows: int = 200
    warm_items: int = 3
    warm_regions: int = 3000
    demo_seeds: int = 5
    demo_flags: tuple[str, ...] = ()


FULL = Sizes()
SMOKE = Sizes(fixed_rows=4, fixed_items=2, ds_rows=4, ds_items=2, ds_iters=3,
              n_cert=1000, warm_rows=4, warm_items=2, warm_regions=60,
              demo_seeds=2,
              demo_flags=("--epochs", "1", "--n-train", "20", "--n-test", "6",
                          "--n-cert", "200"))


@dataclass
class Item:
    """One command call and the facts its outputs are checked against."""
    argv: list[str]
    outputs: list[str]             # files whose bytes must repeat exactly
    rows: int                      # operations the call performs
    dataset: str | None = None     # certify items: the input CSV
    results: str | None = None     # certify items: the results CSV
    metrics: str | None = None     # certify items: the metrics JSON
    memory_out: str | None = None
    prior_regions: int = 0
    demo_json: str | None = None   # train-demo items: the --out-json file


def _data_seed(seed: int, item: int) -> int:
    return 1000 * int(seed) + item


def write_classifier(work: Path) -> str:
    path = work / "probit_halfspace.json"
    save_classifier(probit_halfspace_classifier(list(PROBIT_W), PROBIT_B, PROBIT_S),
                    path)
    return str(path)


def write_prior_memory(path: Path, n: int, seed: int) -> None:
    """Write ``n`` d=2 L2 regions that are cross-prediction disjoint by construction.

    Centers fill the disk the annuli data lives in and predict the annuli
    label (inside radius 1.2 -> 0, outside -> 1), which disagrees with the
    probit half-space on about half the plane, so new rows hit both the
    override and the shrink path. Each radius is below 0.45 times the
    distance to the nearest differently-predicted center, so for any such
    pair r_i + r_j <= 0.9 * |c_i - c_j|.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 303]))
    rad = 2.6 * np.sqrt(rng.uniform(size=n))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
    centers = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    pred = (rad > 1.2).astype(int)
    gap = np.empty(n)
    for lo in range(0, n, BLOCK):
        hi = lo + BLOCK
        dist = np.linalg.norm(centers[lo:hi, None, :] - centers[None, :, :], axis=2)
        dist[pred[lo:hi, None] == pred[None, :]] = np.inf
        gap[lo:hi] = dist.min(axis=1)
    radius = np.minimum(0.45 * gap, PRIOR_MAX_RADIUS) * rng.uniform(0.2, 1.0, size=n)
    sigma = rng.uniform(0.1, 0.5, size=n)
    with open(path, "w", encoding="utf-8") as fh:
        for c, r, p, s in zip(centers, radius, pred, sigma):
            fh.write(json.dumps({"center": [float(c[0]), float(c[1])],
                                 "radius": float(r), "prediction": int(p),
                                 "sigma": float(s), "norm": "l2"}) + "\n")


def _certify_item(work: Path, j: int, points, labels, flags: list[str],
                  classifier: str, seed: int, memory_in: str | None = None,
                  prior_regions: int = 0, memory_out: bool = False) -> Item:
    dataset = work / f"data_{j}.csv"
    save_dataset_csv(points, labels, dataset)
    results = work / f"results_{j}.csv"
    metrics = work / f"results_{j}.metrics.json"
    argv = ["certify", *flags, "--dataset", str(dataset), "--classifier", classifier,
            "--out", str(results), "--metrics-out", str(metrics), "--seed", str(seed)]
    outputs = [str(results), str(metrics)]
    mem_out = None
    if memory_in is not None:
        argv += ["--memory-in", memory_in]
    if memory_out:
        mem_out = str(work / f"memory_{j}.jsonl")
        argv += ["--memory-out", mem_out]
        outputs.append(mem_out)
    return Item(argv=argv, outputs=outputs, rows=len(points), dataset=str(dataset),
                results=str(results), metrics=str(metrics), memory_out=mem_out,
                prior_regions=prior_regions)


def fixed_boundary(work: Path, seed: int, sz: Sizes) -> list[Item]:
    clf = write_classifier(work)
    flags = FIXED_FLAGS + ["--n-cert", str(sz.n_cert)]
    return [_certify_item(work, j, *make_annuli(sz.fixed_rows, seed=_data_seed(seed, j)),
                          flags, clf, seed)
            for j in range(sz.fixed_items)]


def ds_default(work: Path, seed: int, sz: Sizes) -> list[Item]:
    clf = write_classifier(work)
    flags = DS_FLAGS + ["--iters", str(sz.ds_iters), "--n-cert", str(sz.n_cert)]
    return [_certify_item(work, j,
                          *make_two_clusters(sz.ds_rows, seed=_data_seed(seed, j)),
                          flags, clf, seed, memory_out=True)
            for j in range(sz.ds_items)]


def warm_memory(work: Path, seed: int, sz: Sizes) -> list[Item]:
    clf = write_classifier(work)
    prior = work / "prior_memory.jsonl"
    write_prior_memory(prior, sz.warm_regions, seed)
    flags = DS_FLAGS + ["--iters", "10", "--n-cert", "1000"]
    return [_certify_item(work, j, *make_annuli(sz.warm_rows, seed=_data_seed(seed, j)),
                          flags, clf, seed, memory_in=str(prior),
                          prior_regions=sz.warm_regions, memory_out=True)
            for j in range(sz.warm_items)]


def train_demo(work: Path, seed: int, sz: Sizes) -> list[Item]:
    items = []
    for j in range(sz.demo_seeds):
        out = str(work / f"demo_{j}.json")
        argv = ["train-demo", "--seeds", "1", "--seed", str(_data_seed(seed, j)),
                *sz.demo_flags, "--out-json", out]
        items.append(Item(argv=argv, outputs=[out], rows=1, demo_json=out))
    return items


WORKLOADS = {
    "fixed_boundary": fixed_boundary,
    "ds_default": ds_default,
    "warm_memory": warm_memory,
    "train_demo": train_demo,
}
