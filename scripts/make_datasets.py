#!/usr/bin/env python3
"""Generate the bundled synthetic datasets and example classifier configs.

Writes clusters.csv / annuli.csv plus a probit-halfspace classifier JSON into
the output directory; everything is a deterministic function of --seed.
"""

import argparse
from pathlib import Path

from smoothcert.classifiers import probit_halfspace_classifier, save_classifier
from smoothcert.synthetic import make_annuli, make_two_clusters, save_dataset_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="data")
    ap.add_argument("--n", type=int, default=200, help="rows per dataset")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    xs, ys = make_two_clusters(args.n, seed=args.seed)
    save_dataset_csv(xs, ys, out / "clusters.csv")
    xs, ys = make_annuli(args.n, seed=args.seed)
    save_dataset_csv(xs, ys, out / "annuli.csv")

    save_classifier(probit_halfspace_classifier([1.0, 0.0], 0.0, 0.5),
                    out / "probit_halfspace.json")

    print(f"wrote clusters.csv, annuli.csv, probit_halfspace.json to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
