#!/usr/bin/env python3
"""Fixed-scale vs per-input optimized certification on synthetic data.

Runs both campaign modes over a range of seeds on the two-cluster dataset
with the probit halfspace classifier and prints the ACR and the certified
accuracy at a few radii for each.
"""

import argparse

import numpy as np

from smoothcert.classifiers import probit_halfspace_classifier
from smoothcert.pipeline import (MODE_DS, MODE_FIXED, CampaignConfig,
                                 LabeledDataset, run_campaign)
from smoothcert.sigma_opt import SigmaOptConfig
from smoothcert.smoothing import GaussianCertConfig
from smoothcert.synthetic import make_two_clusters


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--sigma0", type=float, default=0.25)
    ap.add_argument("--n-cert", type=int, default=10_000)
    ap.add_argument("--iters", type=int, default=150)
    args = ap.parse_args()

    radii = (0.0, 0.25, 0.5, 1.0, 1.5)
    clf = probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5)
    print("mode    seed   ACR      abstain  " +
          "  ".join(f"acc@{r}" for r in radii))
    for seed in range(args.seeds):
        xs, ys = make_two_clusters(args.n, seed=seed)
        ds = LabeledDataset(xs, ys)
        cert = GaussianCertConfig(n_cert=args.n_cert, seed=seed)
        opt = SigmaOptConfig(step_alpha=0.05, iters_k=args.iters, n_samples=32)
        for mode in (MODE_FIXED, MODE_DS):
            cfg = CampaignConfig(mode=mode, sigma0=args.sigma0, cert=cert,
                                 opt=opt, radii_grid=radii)
            _, _, m = run_campaign(cfg, dataset=ds, classifier=clf)
            accs = "  ".join(f"{a:.3f}" for a in m.certified_accuracy)
            print(f"{mode:<7} {seed:<6} {m.acr:<8.4f} "
                  f"{m.abstain_rate:<8.3f} {accs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
