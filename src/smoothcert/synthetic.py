"""Seeded 2-D synthetic datasets for desk-scale experiments.

Both generators are deterministic in their seed. The annuli geometry makes
the best smoothing scale genuinely input dependent: points deep inside a
class region tolerate far more noise than points near the ring gap.
"""

from __future__ import annotations

import csv

import numpy as np

__all__ = ["make_two_clusters", "make_annuli", "save_dataset_csv"]


def make_two_clusters(n: int, seed: int = 0, separation: float = 4.0,
                      spread: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Two Gaussian blobs on the x-axis at +-separation/2, labels 0/1."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 101]))
    half = separation / 2.0
    labels = rng.integers(0, 2, size=n)
    centers = np.where(labels[:, None] == 0, [-half, 0.0], [half, 0.0])
    points = centers + spread * rng.standard_normal((n, 2))
    return points, labels.astype(int)


def make_annuli(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Concentric annuli: class 0 fills the disk r <= 0.8, class 1 the ring 1.6 <= r <= 2.4."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 202]))
    labels = rng.integers(0, 2, size=n)
    radii = np.where(labels == 0,
                     0.8 * np.sqrt(rng.uniform(0.0, 1.0, size=n)),
                     np.sqrt(rng.uniform(1.6 ** 2, 2.4 ** 2, size=n)))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    points = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    return points, labels.astype(int)


def save_dataset_csv(points: np.ndarray, labels: np.ndarray, path) -> None:
    """Write rows of d floats followed by an integer label."""
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(points) != len(labels):
        raise ValueError("points and labels must have equal length")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row, label in zip(points, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
