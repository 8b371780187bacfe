"""Acceptance gate: eleven end-to-end criteria with pinned tolerances.

Run with -v for one PASSED/FAILED line per criterion; each test also
prints an ACCEPTANCE summary line (visible with -s or on failure).
"""

import math
import time

import numpy as np

from wqisa import (FitPolicy, KnotVector, NoiseModel, PointCloud,
                   SplineFunction, TensorSplineSpace, WeightSpec, classify_convexity,
                   classify_monotone, coefficient_covariance, estimate_control_point, evaluate,
                   fit, gen_synthetic, insert_knot, iqr_outlier_filter,
                   kfold_cv, knot_averages, local_bounds, make_folds, make_uniform_regular,
                   select_parsimonious, spline_eval, variance_at)
from wqisa.kdtree import KdTree

from _oracles import brute_estimate, brute_knn, brute_radius

NEAREST = FitPolicy(empty_support="nearest")


def _passed(num, name, extra=""):
    print(f"ACCEPTANCE {num:02d} {name}: PASS {extra}".rstrip())


def random_regular_kv(rng, a, b, p, n):
    interior = np.sort(rng.uniform(a, b, n - p - 1))
    return KnotVector(p, np.concatenate([[a] * (p + 1), interior, [b] * (p + 1)]))


def random_weight(rng, cloud, family):
    diag = float(np.linalg.norm(cloud.bbox[1] - cloud.bbox[0])) or 1.0
    if family == "knn":
        return WeightSpec.knn(int(rng.integers(1, min(40, cloud.n) + 1)))
    if family == "characteristic":
        return WeightSpec.characteristic(float(rng.uniform(0.15, 0.6)) * diag)
    if family == "gaussian":
        return WeightSpec.gaussian(float(rng.uniform(0.05, 0.5)) * diag)
    if family == "exponential":
        return WeightSpec.exponential(float(rng.uniform(0.05, 0.5)) * diag)
    return WeightSpec.idw()


def test_criterion_01_cv_model_selection():
    # Noisy sine, 300 points, 10-NN weight, 5-fold CV over n in {5..50}:
    # the selected basis count must land in [10, 20] for >= 4 of 5 seeds.
    # Selection uses the one-standard-error parsimony rule; the raw argmin
    # wanders inside the flat CV valley (see the note printed below).
    t0 = time.perf_counter()
    spec = WeightSpec.knn(10)
    grid = list(range(5, 51))

    def space_n(n):
        return TensorSplineSpace((make_uniform_regular(-2, 2, n, 2),))

    picks, argmins = [], []
    for seed in range(5):
        data = gen_synthetic("sine", 300, seed=seed, sigma=0.3)
        res = kfold_cv(data.cloud, grid, space_n, spec, NEAREST,
                       assignments=make_folds(data.cloud.n, 5, seed))
        picks.append(select_parsimonious(res))
        argmins.append(res.best)
    elapsed = time.perf_counter() - t0
    hits = sum(10 <= n <= 20 for n in picks)
    print(f"  per-seed argmin {argmins}, one-SE pick {picks}")
    assert hits >= 4, f"only {hits}/5 seeds selected n in [10, 20]: {picks}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _passed(1, "cv model selection",
            f"({hits}/5 in range, {elapsed:.1f}s)")


def test_criterion_02_global_bounds_hold_everywhere():
    # 200 random fits across dimensions, degrees and all five weight
    # families: every one of 10^4 evaluations per fit stays inside
    # [min y, max y] within 1e-12.
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    families = ("knn", "characteristic", "gaussian", "exponential", "idw")
    checked = 0
    for trial in range(200):
        d = int(rng.integers(1, 3))
        N = int(rng.integers(60, 501))
        x = rng.uniform(-1, 1, (N, d)) * rng.uniform(0.5, 3.0)
        y = rng.standard_normal(N) * rng.uniform(0.1, 5.0)
        if trial % 7 == 0:
            y[rng.integers(0, N, 3)] += rng.choice([-1e6, 1e6], 3)
        cloud = PointCloud(x, y)
        lo, hi = cloud.bbox
        degrees = [int(rng.integers(1, 4)) for _ in range(d)]
        top = 13 if d == 1 else 9
        counts = [int(rng.integers(p + 1, top)) for p in degrees]
        space = TensorSplineSpace.from_bounds(lo, hi, counts, degrees)
        spec = random_weight(rng, cloud, families[trial % 5])
        model = fit(cloud, space, spec, NEAREST)
        pts = rng.uniform(lo, hi, (10_000, d))
        vals = evaluate(model, pts)
        assert vals.min() >= y.min() - 1e-12 and vals.max() <= y.max() + 1e-12, (
            f"trial {trial}: values [{vals.min()}, {vals.max()}] escape "
            f"[{y.min()}, {y.max()}]")
        checked += len(pts)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _passed(2, "global bounds", f"({checked} evaluations, {elapsed:.1f}s)")


def test_criterion_03_local_bounds_hold_in_cells():
    # 50 random knn/characteristic fits: inside every checked knot cell the
    # spline stays within the cell's active-support envelope + 1e-12.
    rng = np.random.default_rng(43)
    cells_checked = 0
    for trial in range(50):
        d = 2 if trial % 4 == 0 else 1
        N = int(rng.integers(80, 300))
        x = rng.uniform(-2, 2, (N, d))
        y = np.sin(x.sum(axis=1)) + 0.3 * rng.standard_normal(N)
        cloud = PointCloud(x, y)
        lo, hi = cloud.bbox
        counts = [int(rng.integers(4, 9)) for _ in range(d)]
        degrees = [int(rng.integers(1, 4)) for _ in range(d)]
        space = TensorSplineSpace.from_bounds(lo, hi, counts, degrees)
        if trial % 2 == 0:
            spec = WeightSpec.knn(int(rng.integers(3, 20)))
        else:
            diag = float(np.linalg.norm(hi - lo))
            spec = WeightSpec.characteristic(float(rng.uniform(0.2, 0.5)) * diag)
        model = fit(cloud, space, spec, NEAREST)
        spans = [range(kv.degree, kv.n) for kv in space.axes]
        cells = [(i,) for i in spans[0]] if d == 1 else [
            (i, j) for i in spans[0] for j in spans[1]]
        if len(cells) > 12:
            cells = [cells[i] for i in rng.choice(len(cells), 12, replace=False)]
        for cell in cells:
            box_lo = [space.axes[k].knots[cell[k]] for k in range(d)]
            box_hi = [space.axes[k].knots[cell[k] + 1] for k in range(d)]
            if any(bl == bh for bl, bh in zip(box_lo, box_hi)):
                continue
            b_lo, b_hi = local_bounds(model, cloud, cell)
            pts = rng.uniform(box_lo, box_hi, (30, d))
            vals = evaluate(model, pts)
            assert vals.min() >= b_lo - 1e-12 and vals.max() <= b_hi + 1e-12, (
                f"trial {trial} cell {cell}: [{vals.min()}, {vals.max()}] "
                f"escapes [{b_lo}, {b_hi}]")
            cells_checked += 1
    _passed(3, "local bounds", f"({cells_checked} cells)")


def test_criterion_04_estimator_matches_brute_force():
    # 1000 randomized (cloud, weight, site) triples: the control-point
    # estimator equals the full-scan weighted mean within 1e-12.
    rng = np.random.default_rng(44)
    families = ("knn", "characteristic", "gaussian", "exponential", "idw")
    params_of = {
        "knn": lambda s: {"k": s.k}, "characteristic": lambda s: {"r": s.r},
        "gaussian": lambda s: {"sigma": s.sigma},
        "exponential": lambda s: {"sigma": s.sigma}, "idw": lambda s: {}}
    for trial in range(1000):
        d = int(rng.integers(1, 3))
        N = int(rng.integers(5, 61))
        x = rng.uniform(-3, 3, (N, d))
        y = rng.standard_normal(N) * 4
        cloud = PointCloud(x, y)
        u = rng.uniform(x.min(axis=0), x.max(axis=0))
        family = families[trial % 5]
        if family == "characteristic":
            dmin = float(np.sqrt(((x - u) ** 2).sum(axis=1)).min())
            spec = WeightSpec.characteristic(max(dmin * 1.05, 1e-6))
        else:
            spec = random_weight(rng, cloud, family)
        got = estimate_control_point(cloud, spec, u)
        want = brute_estimate(family, params_of[family](spec), u, x, y)
        assert want is not None
        assert abs(got - want) <= 1e-12, (
            f"trial {trial} {family}: {got} vs brute {want}")
    _passed(4, "estimator oracle equivalence", "(1000 triples)")


def test_criterion_05_variance_law_and_monte_carlo():
    # Exact variance never exceeds the noise variance (knn: sigma^2/k), and
    # 2000 full refits reproduce the closed form within 3 MC standard
    # errors at 20 probes.
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    N, sigma, k, n = 200, 0.4, 12, 10
    x = rng.uniform(-2, 2, N)
    truth = np.sin(np.pi * x)
    space = TensorSplineSpace((make_uniform_regular(-2, 2, n, 2),))
    spec = WeightSpec.knn(k)
    probes = np.linspace(-1.9, 1.9, 20)

    base = PointCloud(x, truth)
    model = fit(base, space, spec)
    cov = coefficient_covariance(base, space, spec, NoiseModel(sigma))
    dense_probes = np.linspace(-2, 2, 500)
    var_dense = variance_at(model, cov, dense_probes)
    assert np.all(var_dense <= sigma**2 + 1e-12)
    assert np.all(var_dense <= sigma**2 / k + 1e-12)  # knn sharpening

    for other in (WeightSpec.gaussian(0.3), WeightSpec.idw()):
        m2 = fit(base, space, other, NEAREST)
        c2 = coefficient_covariance(base, space, other, NoiseModel(sigma), NEAREST)
        assert np.all(variance_at(m2, c2, dense_probes) <= sigma**2 + 1e-12)

    M = 2000
    vals = np.empty((M, len(probes)))
    for t in range(M):
        y = truth + sigma * rng.standard_normal(N)
        vals[t] = evaluate(fit(PointCloud(x, y), space, spec), probes)
    exact = variance_at(model, cov, probes)
    emp = vals.var(axis=0, ddof=1)
    se = exact * math.sqrt(2.0 / (M - 1))
    z = np.abs(emp - exact) / se
    elapsed = time.perf_counter() - t0
    assert z.max() <= 3.0, f"MC deviation {z.max():.2f} SE exceeds 3"
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"
    _passed(5, "variance law + Monte Carlo",
            f"(max dev {z.max():.2f} SE, {elapsed:.1f}s)")


def test_criterion_06_shape_preservation():
    # 100 certified w-monotone instances keep sampled slope >= -1e-10;
    # 100 certified w-convex instances keep sampled second differences
    # >= -1e-8.
    rng = np.random.default_rng(77)
    xs = np.linspace(-1, 1, 400)

    done = tried = 0
    while done < 100:
        tried += 1
        assert tried <= 400, "monotone instance generation stalled"
        N = int(rng.integers(200, 320))
        x = rng.uniform(-1, 1, N)
        a, b, c = rng.uniform(0.3, 2.0), rng.uniform(0.0, 1.5), rng.uniform(0.0, 0.8)
        f = a * x + b * np.arctan(2 * x) + c * x**3
        y = f + 0.005 * (f.max() - f.min() + 1.0) * rng.standard_normal(N)
        cloud = PointCloud(x, y)
        n = int(rng.integers(5, 10))
        space = TensorSplineSpace((make_uniform_regular(-1, 1, n, 2),))
        model = fit(cloud, space, WeightSpec.knn(8))
        if classify_monotone(model.spline.coefficients).direction != "increasing":
            continue
        slopes = np.diff(evaluate(model, xs)) / np.diff(xs)
        assert slopes.min() >= -1e-10, f"slope {slopes.min()} below -1e-10"
        done += 1
    mono_tried = tried

    done = tried = 0
    while done < 100:
        tried += 1
        assert tried <= 400, "convex instance generation stalled"
        N = int(rng.integers(250, 350))
        x = rng.uniform(-1, 1, N)
        a, b = rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
        f = a * x**2 + b * np.exp(x)
        y = f + 0.002 * (f.max() - f.min() + 1.0) * rng.standard_normal(N)
        cloud = PointCloud(x, y)
        n = int(rng.integers(6, 9))
        kv = make_uniform_regular(-1, 1, n, 2)
        model = fit(cloud, TensorSplineSpace((kv,)), WeightSpec.knn(8))
        if classify_convexity(kv, model.spline.coefficients).shape != "convex":
            continue
        vals = evaluate(model, xs)
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert second.min() >= -1e-8, f"2nd diff {second.min()} below -1e-8"
        done += 1
    _passed(6, "shape preservation",
            f"(100 monotone in {mono_tried} draws, 100 convex in {tried})")


def test_criterion_07_kdtree_matches_linear_scan():
    # 1000 randomized nearest-neighbor and radius queries agree exactly
    # with a linear scan, duplicates and boundary ties included.
    rng = np.random.default_rng(45)
    for trial in range(1000):
        d = int(rng.integers(1, 4))
        N = int(rng.integers(1, 401))
        pts = rng.uniform(-5, 5, (N, d))
        if trial % 3 == 0:  # quantize to force exact duplicates and ties
            pts = np.round(pts)
        tree = KdTree(pts)
        u = rng.uniform(-6, 6, d)
        if trial % 2 == 0:
            k = int(rng.integers(1, N + 1))
            assert np.array_equal(tree.knn(u[None], k), [brute_knn(pts, u, k)]), (
                f"trial {trial}: knn mismatch")
        else:
            r = float(rng.uniform(0, 1.2) * 10)
            assert np.array_equal(tree.radius_query(u[None], r)[1],
                                  brute_radius(pts, u, r)), (
                f"trial {trial}: radius mismatch")
    _passed(7, "kd-tree oracle equivalence", "(1000 queries)")


def test_criterion_08_knot_insertion_invariance():
    # 100 random splines, one interior knot inserted each: evaluation
    # drift at 100 sample points stays within 1e-10.
    rng = np.random.default_rng(46)
    worst = 0.0
    for trial in range(100):
        d = 2 if trial % 3 == 0 else 1
        axes = []
        for _ in range(d):
            p = int(rng.integers(1, 4))
            n = int(rng.integers(p + 1, 13))
            axes.append(random_regular_kv(rng, -1.0, 2.0, p, n))
        space = TensorSplineSpace(tuple(axes))
        coeffs = rng.standard_normal(space.shape) * 3
        f = SplineFunction(space, coeffs)
        axis = int(rng.integers(0, d))
        z = float(rng.uniform(-0.999, 1.999))
        g = insert_knot(f, axis, z)
        pts = rng.uniform(-1, 2, (100, d))
        drift = np.abs(spline_eval(f, pts) - spline_eval(g, pts)).max()
        worst = max(worst, float(drift))
        assert drift <= 1e-10, f"trial {trial}: drift {drift}"
    _passed(8, "knot insertion invariance", f"(max drift {worst:.2e})")


def test_criterion_09_partition_of_unity_and_linear_reproduction():
    # Basis functions sum to one within 1e-12, and choosing the knot
    # averages as coefficients reproduces the identity within 1e-12.
    rng = np.random.default_rng(47)
    for trial in range(10):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(p + 1, 14))
        kv = random_regular_kv(rng, 0.0, 4.0, p, n)
        space = TensorSplineSpace((kv,))
        xs = rng.uniform(0, 4, 100)
        ones = spline_eval(SplineFunction(space, np.ones(n)), xs)
        assert np.abs(ones - 1.0).max() <= 1e-12
        ident = spline_eval(SplineFunction(space, knot_averages(kv)), xs)
        assert np.abs(ident - xs).max() <= 1e-12
    # Bivariate: the plane x + y from summed per-axis knot averages.
    kvx = make_uniform_regular(0, 1, 6, 2)
    kvy = make_uniform_regular(-1, 1, 5, 3)
    space2 = TensorSplineSpace((kvx, kvy))
    coeffs = knot_averages(kvx)[:, None] + knot_averages(kvy)[None, :]
    pts = rng.uniform([0, -1], [1, 1], (100, 2))
    got = spline_eval(SplineFunction(space2, coeffs), pts)
    assert np.abs(got - pts.sum(axis=1)).max() <= 1e-12
    _passed(9, "partition of unity + linear reproduction", "(1000 points)")


def test_criterion_10_complexity_contract():
    # A knn fit performs exactly prod(n_k) estimator calls of exactly k
    # weight lookups each. Tree build-time scaling is reported but not
    # asserted (timing noise is environment-dependent).
    rng = np.random.default_rng(48)
    for counts, k, N in [((12,), 7, 300), ((5, 7), 9, 400), ((30,), 1, 50),
                         ((4, 4), 25, 600)]:
        d = len(counts)
        x = rng.uniform(0, 1, (N, d))
        cloud = PointCloud(x, rng.standard_normal(N))
        space = TensorSplineSpace.from_bounds(*cloud.bbox, list(counts),
                                              [2] * d)
        model = fit(cloud, space, WeightSpec.knn(k))
        diag = model.diagnostics
        dim = int(np.prod(counts))
        assert diag.estimator_calls == dim
        assert np.all(diag.support_sizes == k)
        assert diag.weight_lookups == dim * k

    sizes = [62_500, 125_000, 250_000, 500_000]
    times = []
    base = rng.uniform(0, 1, (sizes[-1], 2))
    for N in sizes:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            KdTree(base[:N])
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    ratios = [times[i + 1] / times[i] for i in range(len(times) - 1)]
    note = "within" if max(ratios) <= 2.6 else "OUTSIDE"
    print(f"  build-time doubling ratios {[round(r, 2) for r in ratios]} "
          f"({note} 2.6x, informational only)")
    _passed(10, "complexity contract", f"(ratios {[round(r, 2) for r in ratios]})")


def test_criterion_11_outlier_robustness():
    # Sine cloud with 5 percent magnitude-10 outliers: interquartile
    # filtering + refit lands within 2x the clean fit's true MSE for every
    # seed (same seed, same predictor draw).
    spec = WeightSpec.knn(10)
    space = TensorSplineSpace((make_uniform_regular(-2, 2, 15, 2),))
    probes = np.linspace(-2, 2, 500)
    truth = np.sin(np.pi * probes)
    ratios = []
    for seed in range(5):
        dirty = gen_synthetic("sine_outliers", 300, seed=seed, sigma=0.3,
                              outlier_fraction=0.05, outlier_magnitude=10.0)
        clean = gen_synthetic("sine", 300, seed=seed, sigma=0.3)
        kept = iqr_outlier_filter(dirty.cloud, space, spec, 1.5, NEAREST)
        mse_filtered = float(np.mean(
            (evaluate(fit(kept, space, spec, NEAREST), probes) - truth) ** 2))
        mse_clean = float(np.mean(
            (evaluate(fit(clean.cloud, space, spec, NEAREST), probes) - truth) ** 2))
        ratio = mse_filtered / mse_clean
        ratios.append(round(ratio, 2))
        assert ratio <= 2.0, f"seed {seed}: ratio {ratio:.2f} exceeds 2.0"
    _passed(11, "outlier robustness", f"(ratios {ratios})")
