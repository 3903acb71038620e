#!/usr/bin/env python3
"""Time Monte Carlo voting: ``vote_counts`` samples per second.

For every built-in classifier in d=2 and both noise kinds, prints the votes
per second of ``smoothing.vote_counts`` at x = (0.1, -0.2), scale 0.25:

- at 65,536 votes, one batch of the vote loop;
- at 100,100 votes, ``n0 + n_cert`` of one certificate at the CLI defaults.

Each figure is the median over ``--repeats`` runs, in millions of samples
per second, followed by the range. Only the public API is used, so the
script times any version of the package on ``PYTHONPATH``.
"""

import argparse
import statistics
import time

import numpy as np

from smoothcert.classifiers import (TinyMLP, affine_softmax_classifier,
                                    constant_classifier, hard_halfspace_classifier,
                                    mlp_classifier, nested_ball_classifier,
                                    probit_halfspace_classifier)
from smoothcert.smoothing import rng_for_input, vote_counts

CLASSIFIERS = {
    "constant": lambda: constant_classifier([0.5, 0.5], 2),
    "affine_softmax": lambda: affine_softmax_classifier(
        [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0.0, 0.1, -0.1]),
    "hard_halfspace": lambda: hard_halfspace_classifier([1.0, 0.0], 0.0),
    "probit_halfspace": lambda: probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5),
    "nested_ball": lambda: nested_ball_classifier(0.5, 2),
    "mlp": lambda: mlp_classifier(TinyMLP(dim=2, hidden=8, num_classes=3, rng=0)),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--votes", type=int, nargs="*", default=[65_536, 100_100])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    x = np.array([0.1, -0.2])
    print(f"{'classifier':<17} {'noise':<8} {'votes':>7}  {'Msamples/s':>22}")
    for name, build in CLASSIFIERS.items():
        c = build()
        for kind in ("gaussian", "uniform"):
            vote_counts(c, x, 0.25, 1_000, rng_for_input(1, 0), kind)  # warm-up
            for n in args.votes:
                rates = []
                for r in range(args.repeats):
                    rng = rng_for_input(0, r)
                    t0 = time.perf_counter()
                    vote_counts(c, x, 0.25, n, rng, kind)
                    rates.append(n / (time.perf_counter() - t0) / 1e6)
                rates.sort()
                print(f"{name:<17} {kind:<8} {n:>7}  {statistics.median(rates):9.2f} "
                      f"({rates[0]:.2f}-{rates[-1]:.2f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
