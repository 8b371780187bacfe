"""Standard-error bands under smoothly varying noise.

Fits the heteroscedastic benchmark cloud, then samples the fit, the exact
pointwise standard deviation and the confidence band on a uniform grid.
The band is computed under the (homoscedastic) noise model with sigma set
to the cloud-wide residual estimate, so comparing band width against the
local noise scale shows where that approximation is tight or loose.

Usage:
    python3 scripts/variable_noise_experiment.py --count 2000 --out results/
"""

import argparse
import csv
import os

import numpy as np

from wqisa import (TensorSplineSpace, WeightSpec, coefficient_covariance,
                   estimate_noise_sigma, fit, gen_synthetic, make_uniform_regular,
                   spread, variable_noise_scale)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=2000, help="points in the cloud")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=12, help="basis functions")
    ap.add_argument("--k", type=int, default=15, help="nearest-neighbor count")
    ap.add_argument("--alpha", type=float, default=0.05, help="band miss probability")
    ap.add_argument("--density", type=int, default=256, help="grid points")
    ap.add_argument("--out", default="results", help="output directory")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    data = gen_synthetic("variable_noise", args.count, seed=args.seed)
    cloud = data.cloud
    space = TensorSplineSpace((make_uniform_regular(-2, 2, args.n, 2),))
    spec = WeightSpec.knn(args.k)
    model = fit(cloud, space, spec)
    noise = estimate_noise_sigma(model, cloud)
    cov = coefficient_covariance(cloud, space, spec, noise)

    us = np.linspace(-2, 2, args.density)
    f, var, lo, hi = spread(model, cov, us, alpha=args.alpha)
    sd = np.sqrt(var)
    truth = data.truth(us)
    local = variable_noise_scale(us)

    path = os.path.join(args.out, "variable_noise_band.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["u", "fit", "sd", "band_lo", "band_hi", "truth",
                    "local_noise_scale"])
        for row in zip(us, f, sd, lo, hi, truth, local):
            w.writerow([repr(float(v)) for v in row])
    inside = float(np.mean((truth >= lo) & (truth <= hi)))
    print(f"residual sigma estimate: {noise.sigma_eps:.4f} ({noise.source})")
    print(f"truth inside the {100 * (1 - args.alpha):.0f}% band at "
          f"{100 * inside:.1f}% of grid points")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
