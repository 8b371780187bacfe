"""Cross-validated basis-count selection on the noisy sine benchmark.

Writes per-seed CV curves and the selected basis counts (plain minimizer
and one-standard-error pick) as CSV files.

Usage:
    python3 scripts/sine_cv_experiment.py --seeds 5 --out results/
"""

import argparse
import csv
import os

from wqisa import (FitPolicy, TensorSplineSpace, WeightSpec, gen_synthetic,
                   kfold_cv, make_folds, make_uniform_regular, select_parsimonious)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5, help="number of data seeds")
    ap.add_argument("--count", type=int, default=300, help="points per cloud")
    ap.add_argument("--sigma", type=float, default=0.3, help="noise scale")
    ap.add_argument("--k", type=int, default=10, help="nearest-neighbor count")
    ap.add_argument("--n-low", type=int, default=5)
    ap.add_argument("--n-high", type=int, default=50)
    ap.add_argument("--folds", type=int, default=5)
    ap.add_argument("--out", default="results", help="output directory")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    spec = WeightSpec.knn(args.k)
    policy = FitPolicy(empty_support="nearest")
    grid = list(range(args.n_low, args.n_high + 1))

    def space_n(n):
        return TensorSplineSpace((make_uniform_regular(-2, 2, n, 2),))

    curves_path = os.path.join(args.out, "cv_curves.csv")
    summary_path = os.path.join(args.out, "cv_summary.csv")
    with open(curves_path, "w", newline="") as fc, \
            open(summary_path, "w", newline="") as fs:
        curves = csv.writer(fc)
        curves.writerow(["seed", "n", "score"])
        summary = csv.writer(fs)
        summary.writerow(["seed", "argmin_n", "one_se_n", "min_score"])
        for seed in range(args.seeds):
            data = gen_synthetic("sine", args.count, seed=seed, sigma=args.sigma)
            folds = make_folds(data.cloud.n, args.folds, seed)
            res = kfold_cv(data.cloud, grid, space_n, spec, policy, assignments=folds)
            for n, score in zip(res.grid, res.scores):
                curves.writerow([seed, n, repr(float(score))])
            pick = select_parsimonious(res)
            summary.writerow([seed, res.best, pick, repr(float(res.scores.min()))])
            print(f"seed {seed}: argmin n={res.best}, one-SE pick n={pick}")
    print(f"wrote {curves_path} and {summary_path}")


if __name__ == "__main__":
    main()
