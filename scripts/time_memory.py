#!/usr/bin/env python3
"""Time memory-file load and save and memory insert, per region.

Builds disjoint L2 stores with numpy in d=2 and d=16, writes each as a
memory file and prints the time per region of ``load_memory`` and
``save_memory`` and the time per call of ``memory_insert`` for regions that
overlap the store:

- ``lattice``: centers i along the first axis (other coordinates uniform in
  [0, 1)), radius 0.45, prediction i % 3; each inserted region has radius
  0.45, another prediction and the center of a stored one moved by 0.5
  along the first axis, so it shrinks.
- ``random``: centers uniform in a cube holding about one center per unit
  volume, each radius 0.45 times the distance to the nearest
  differently-predicted center; the inserted regions are drawn the same way
  with radius 1 and shrink or are overridden.
- ``dense`` (d=2 only): the regime of the ``warm_memory`` benchmark's prior.
  Centers fill the radius-2.6 disk and predict 0 inside radius 1.2, else 1;
  each radius is at most 0.05 and below 0.45 times the distance to the
  nearest differently-predicted center. The inserted regions have radius 0.3
  and predict 1 where x0 > 0, so each meets about 45 stored regions and is
  overridden or shrunk about 2.7 times.
- ``wide`` (d=2 only, at ``--dense-sizes``): the ``dense`` store and probe
  centers with inserted regions of radius 2.0, so each meets about 1,200
  stored regions (about 40% of the store). This is where the insert's
  per-hit distance screen pays.

Each figure is the median over ``--repeats`` runs, followed by the range.
Only the public ``smoothcert.memory`` API is used, so the script times any
version of the package on ``PYTHONPATH``.
"""

import argparse
import json
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from smoothcert.memory import (CertifiedRegion, load_memory, memory_insert,
                               save_memory)


def lattice_store(n, d, rng):
    centers = rng.uniform(0.0, 1.0, size=(n, d))
    centers[:, 0] = np.arange(n)
    probes = centers.copy()
    probes[:, 0] += 0.5
    preds = np.arange(n) % 3
    return centers, np.full(n, 0.45), preds, probes, preds + 1, 0.45


def nearest_other(centers, preds, chunk=500):
    """Distance from each center to the nearest differently-predicted one."""
    sq = np.einsum("ij,ij->i", centers, centers)
    out = np.empty(len(centers))
    for lo in range(0, len(centers), chunk):
        p = centers[lo:lo + chunk]
        d2 = sq + sq[lo:lo + chunk, None] - 2.0 * p @ centers.T
        d2[preds[lo:lo + chunk, None] == preds[None, :]] = np.inf
        out[lo:lo + chunk] = np.sqrt(np.maximum(d2.min(axis=1), 0.0))
    return out


def random_store(n, d, rng):
    side = n ** (1.0 / d)
    centers = rng.uniform(0.0, side, size=(n, d))
    preds = rng.integers(0, 3, size=n)
    radii = 0.45 * nearest_other(centers, preds)
    return centers, radii, preds, rng.uniform(0.0, side, size=(n, d)), preds + 1, 1.0


def disk(n, rng):
    rad, ang = 2.6 * np.sqrt(rng.uniform(size=n)), rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)


def dense_store(n, d, rng):
    centers = disk(n, rng)
    preds = (np.linalg.norm(centers, axis=1) > 1.2).astype(int)
    radii = (np.minimum(0.45 * nearest_other(centers, preds), 0.05)
             * rng.uniform(0.2, 1.0, size=n))
    probes = disk(n, rng)
    return centers, radii, preds, probes, (probes[:, 0] > 0).astype(int), 0.3


def wide_store(n, d, rng):
    *store, _ = dense_store(n, d, rng)
    return (*store, 2.0)


def write_memory(path, centers, radii, preds):
    with open(path, "w", encoding="utf-8") as fh:
        for c, r, p in zip(centers.tolist(), radii.tolist(), preds.tolist()):
            fh.write(json.dumps({"center": c, "radius": r, "prediction": p,
                                 "sigma": 0.25, "norm": "l2"}) + "\n")


def spread(samples, scale):
    values = sorted(s * scale for s in samples)
    return f"{statistics.median(values):9.2f} ({values[0]:.2f}-{values[-1]:.2f})"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--lattice-sizes", type=int, nargs="*",
                    default=[1_000, 10_000, 100_000])
    ap.add_argument("--random-sizes", type=int, nargs="*", default=[1_000, 10_000])
    ap.add_argument("--dense-sizes", type=int, nargs="*", default=[3_000])
    ap.add_argument("--inserts", type=int, default=200,
                    help="regions inserted per repeat")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    print(f"{'store':<8} {'d':>3} {'N':>7}  {'load us/region':>22}  "
          f"{'save us/region':>22}  {'insert us/call':>22}")
    jobs = ([("lattice", lattice_store, n, (2, 16)) for n in args.lattice_sizes]
            + [("random", random_store, n, (2, 16)) for n in args.random_sizes]
            + [("dense", dense_store, n, (2,)) for n in args.dense_sizes]
            + [("wide", wide_store, n, (2,)) for n in args.dense_sizes])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "memory.jsonl"
        for name, build, n, dims in jobs:
            for d in dims:
                rng = np.random.default_rng(0)
                centers, radii, preds, probes, probe_preds, probe_radius = build(n, d, rng)
                write_memory(path, centers, radii, preds)
                loads, saves, inserts = [], [], []
                for _ in range(args.repeats):
                    t0 = time.perf_counter()
                    store = load_memory(path)
                    loads.append(time.perf_counter() - t0)
                    t0 = time.perf_counter()
                    save_memory(store, path)
                    saves.append(time.perf_counter() - t0)
                    k = rng.choice(n, size=min(args.inserts, n), replace=False)
                    regions = [CertifiedRegion(tuple(c), probe_radius, p, 0.25)
                               for c, p in zip(probes[k].tolist(), probe_preds[k].tolist())]
                    t0 = time.perf_counter()
                    for r in regions:
                        memory_insert(store, r)
                    inserts.append((time.perf_counter() - t0) / len(regions))
                print(f"{name:<8} {d:>3} {n:>7}  {spread(loads, 1e6 / n)}  "
                      f"{spread(saves, 1e6 / n)}  {spread(inserts, 1e6)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
