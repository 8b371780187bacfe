"""Fitter: estimator, bounds, effective points, outlier filter, shape checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqisa import (EmptySupportError, FitPolicy, KdTree, NoiseModel, PointCloud,
                   TensorSplineSpace, WeightSpec, bias_bounds_at,
                   classify_convexity, coefficient_covariance,
                   classify_monotone, effective_points, estimate_control_point,
                   evaluate, fit, global_bounds, iqr_outlier_filter,
                   iqr_outlier_mask, local_bounds, make_uniform_regular,
                   spline_eval, w_convex_check, w_monotone_check)

from _oracles import brute_estimate


def sine_cloud(n=120, seed=0, sigma=0.25, lo=-2.0, hi=2.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, n)
    y = np.sin(np.pi * x) + sigma * rng.standard_normal(n)
    return PointCloud(x, y)


def space1d(lo=-2.0, hi=2.0, n=10, p=2):
    return TensorSplineSpace((make_uniform_regular(lo, hi, n, p),))


class TestPointCloud:
    def test_shapes_and_immutability(self):
        c = PointCloud(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
        assert c.x.shape == (2, 1) and c.d == 1 and c.n == 2
        with pytest.raises(ValueError):
            c.x[0] = 9.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 1)), np.zeros(2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([0.0, np.nan]), np.array([0.0, 1.0]))

    def test_diameter_exact_small(self):
        c = PointCloud(np.array([[0.0], [3.0]]), np.array([0.0, 4.0]))
        assert c.diameter == 5.0
        assert c.diameter_is_exact

    def test_diameter_bbox_fallback(self):
        rng = np.random.default_rng(0)
        c = PointCloud(rng.uniform(0, 1, (5001, 1)), rng.uniform(0, 1, 5001))
        assert not c.diameter_is_exact
        assert c.diameter > 0


class TestEstimator:
    def test_knn_example(self):
        cloud = PointCloud(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 4.0]))
        assert estimate_control_point(cloud, WeightSpec.knn(2), [0.0]) == 1.5

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_full_scan(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        n = int(rng.integers(2, 50))
        d = int(rng.integers(1, 3))
        x = rng.uniform(-3, 3, size=(n, d))
        y = rng.uniform(-10, 10, size=n)
        cloud = PointCloud(x, y)
        family = data.draw(st.sampled_from(
            ["knn", "characteristic", "gaussian", "exponential", "idw"]))
        params = {"k": int(rng.integers(1, n + 1)), "r": float(rng.uniform(0.5, 4)),
                  "sigma": float(rng.uniform(0.2, 2)), "squared_norm": False}
        spec = {"knn": WeightSpec.knn(params["k"]),
                "characteristic": WeightSpec.characteristic(params["r"]),
                "gaussian": WeightSpec.gaussian(params["sigma"]),
                "exponential": WeightSpec.exponential(params["sigma"]),
                "idw": WeightSpec.idw()}[family]
        u = rng.uniform(-3, 3, size=d)
        ref = brute_estimate(family, params, u, x, y)
        if ref is None:
            with pytest.raises(EmptySupportError):
                estimate_control_point(cloud, spec, u)
        else:
            got = estimate_control_point(cloud, spec, u)
            assert got == pytest.approx(ref, abs=1e-12)
            assert y.min() - 1e-12 <= got <= y.max() + 1e-12

    def test_empty_support_names_site(self):
        cloud = PointCloud(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(EmptySupportError, match="5.0"):
            estimate_control_point(cloud, WeightSpec.characteristic(0.1), [5.0])


class TestFit:
    def test_one_estimator_call_per_coefficient(self):
        cloud = sine_cloud(80)
        space = space1d(n=12)
        model = fit(cloud, space, WeightSpec.knn(7))
        assert model.diagnostics.estimator_calls == space.dim == 12
        assert np.all(model.diagnostics.support_sizes == 7)
        assert model.diagnostics.weight_lookups == 12 * 7

    def test_coefficients_match_estimator(self):
        cloud = sine_cloud(60, seed=3)
        space = space1d(n=8)
        spec = WeightSpec.gaussian(0.4)
        model = fit(cloud, space, spec)
        for i, u in enumerate(space.knot_average_grids[0]):
            c = estimate_control_point(cloud, spec, [u])
            assert model.spline.coefficients[i] == pytest.approx(c, abs=1e-14)

    def test_tensor_fit_shape(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(200, 2))
        y = x[:, 0] + 2 * x[:, 1]
        cloud = PointCloud(x, y)
        space = TensorSplineSpace((make_uniform_regular(0, 1, 5, 2),
                                   make_uniform_regular(0, 1, 4, 2)))
        model = fit(cloud, space, WeightSpec.knn(9))
        assert model.spline.coefficients.shape == (5, 4)
        assert model.diagnostics.estimator_calls == 20

    def test_gaussian_fit_memory_is_linear(self):
        # every gaussian row spans the whole cloud; keeping them all would
        # take dim * N * 8 bytes = 36 MB here
        rng = np.random.default_rng(31)
        n = 5000
        cloud = PointCloud(rng.uniform(0, 1, (n, 2)), rng.standard_normal(n))
        space = TensorSplineSpace.from_bounds([0, 0], [1, 1], [30, 30], [2, 2])
        tracemalloc.start()
        try:
            model = fit(cloud, space, WeightSpec.gaussian(0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.effective_count == n
        assert peak < 256 * n + 64 * space.dim  # O(N + dim), about 1.3 MB

    def test_empty_support_error_lists_cells(self):
        cloud = PointCloud(np.array([0.0, 4.0]), np.array([0.0, 1.0]))
        space = space1d(lo=0, hi=4, n=9, p=2)
        with pytest.raises(EmptySupportError) as err:
            fit(cloud, space, WeightSpec.characteristic(0.2))
        assert len(err.value.cells) >= 1
        for cell, site in err.value.cells:
            assert 0.0 < site[0] < 4.0  # interior averages starve first

    def test_nearest_fallback(self):
        cloud = PointCloud(np.array([0.0, 4.0]), np.array([0.0, 1.0]))
        space = space1d(lo=0, hi=4, n=9, p=2)
        model = fit(cloud, space, WeightSpec.characteristic(0.2),
                    FitPolicy(empty_support="nearest"))
        c = model.spline.coefficients
        assert np.all((c == 0.0) | (c == 1.0))  # every value is some response
        assert len(model.diagnostics.fallback_cells) >= 1

    def test_one_tree_per_cloud(self, monkeypatch):
        built = []
        init = KdTree.__init__

        def counting_init(tree, points):
            built.append(len(points))
            init(tree, points)

        monkeypatch.setattr(KdTree, "__init__", counting_init)
        cloud = sine_cloud(80, seed=3)
        space = space1d(n=8)
        model = fit(cloud, space, WeightSpec.knn(5))
        effective_points(model, cloud)
        local_bounds(model, cloud, (4,))
        coefficient_covariance(cloud, space, model.weight, NoiseModel(0.2))
        assert built == [80]
        # unbounded families score every row and never index the cloud
        fit(sine_cloud(80, seed=4), space, WeightSpec.gaussian(0.5))
        assert built == [80]

    @pytest.mark.parametrize("drop_outside", [False, True])
    def test_one_tree_per_working_cloud(self, monkeypatch, drop_outside):
        # a row outside the domain box makes a clipped (or subset) working
        # cloud; it is built once and reused by every later call
        built = []
        init = KdTree.__init__

        def counting_init(tree, points):
            built.append(len(points))
            init(tree, points)

        monkeypatch.setattr(KdTree, "__init__", counting_init)
        x = np.append(np.linspace(0, 1, 200), 1.5)
        cloud = PointCloud(x, np.sin(3 * x))
        space = space1d(lo=0, hi=1, n=8)
        policy = FitPolicy(drop_outside=drop_outside)
        model = fit(cloud, space, WeightSpec.knn(5), policy)
        effective_points(model, cloud)
        local_bounds(model, cloud, (4,))
        coefficient_covariance(cloud, space, model.weight, NoiseModel(0.2), policy)
        assert built == [200 if drop_outside else 201]

    def test_knn_fit_memory_is_blocked(self):
        # 70x70 knn sites are queried in blocks (about 1.0 MB here); one
        # batch of all 4900 sites peaked at about 16.5 MB
        rng = np.random.default_rng(32)
        n = 20_000
        cloud = PointCloud(rng.uniform(0, 1, (n, 2)), rng.standard_normal(n))
        space = TensorSplineSpace.from_bounds([0, 0], [1, 1], [70, 70], [2, 2])
        assert cloud.tree.n == n  # built outside the measured region
        tracemalloc.start()
        try:
            model = fit(cloud, space, WeightSpec.knn(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(model.diagnostics.support_sizes == 10)
        assert peak < 1_500_000, peak

    def test_clip_vs_drop_outside(self):
        x = np.array([-1.0, 0.2, 0.5, 0.8, 2.0])
        y = np.array([10.0, 1.0, 2.0, 3.0, 20.0])
        cloud = PointCloud(x, y)
        space = space1d(lo=0, hi=1, n=3, p=2)
        clipped = fit(cloud, space, WeightSpec.knn(1))
        dropped = fit(cloud, space, WeightSpec.knn(1), FitPolicy(drop_outside=True))
        # clipped: the outside rows sit on the boundary and win the 1-nn there
        assert clipped.spline.coefficients[0] == 10.0
        assert dropped.spline.coefficients[0] == 1.0


class TestBounds:
    def test_global_bounds_trap_evaluations(self):
        rng = np.random.default_rng(21)
        cloud = sine_cloud(90, seed=21)
        space = space1d(n=9)
        model = fit(cloud, space, WeightSpec.knn(6))
        gb = global_bounds(model, cloud)
        assert gb.verified
        xs = rng.uniform(-2, 2, 500)
        vals = evaluate(model, xs)
        assert np.all(vals >= gb.lo - 1e-12) and np.all(vals <= gb.hi + 1e-12)

    def test_local_bounds_small_case(self):
        # 3 points, knn k=1: each coefficient copies its nearest response
        cloud = PointCloud(np.array([0.0, 1.0, 2.0]), np.array([5.0, -1.0, 3.0]))
        space = space1d(lo=0, hi=2, n=3, p=1)  # averages at 0, 1, 2
        model = fit(cloud, space, WeightSpec.knn(1))
        # span 1 covers [0, 1): active coefficients 0,1 -> supports {0},{1}
        lo, hi = local_bounds(model, cloud, (1,))
        assert (lo, hi) == (-1.0, 5.0)
        lo, hi = local_bounds(model, cloud, (2,))
        assert (lo, hi) == (-1.0, 3.0)

    def test_local_bounds_contain_cell_samples(self):
        cloud = sine_cloud(140, seed=4)
        space = space1d(n=11)
        model = fit(cloud, space, WeightSpec.knn(8))
        kv = space.axes[0]
        for span in range(kv.degree, kv.n):
            a, b = kv.knots[span], kv.knots[span + 1]
            if a == b:
                continue
            lo, hi = local_bounds(model, cloud, (span,))
            xs = np.linspace(a, b - 1e-9 * (b - a), 40)
            vals = evaluate(model, xs)
            assert np.all(vals >= lo - 1e-12) and np.all(vals <= hi + 1e-12)

    def test_local_bounds_validates_cell(self):
        cloud = sine_cloud(50)
        model = fit(cloud, space1d(n=6), WeightSpec.knn(4))
        with pytest.raises(IndexError):
            local_bounds(model, cloud, (0,))  # below first nonempty span
        with pytest.raises(ValueError):
            local_bounds(model, cloud, (2, 2))


class TestEffectivePoints:
    def test_knn_union(self):
        cloud = PointCloud(np.array([0.0, 0.5, 1.0, 1.5, 2.0]),
                           np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        space = space1d(lo=0, hi=2, n=3, p=1)  # averages at 0, 1, 2
        model = fit(cloud, space, WeightSpec.knn(1))
        assert np.array_equal(effective_points(model, cloud), [0, 2, 4])

    def test_unbounded_weight_sees_everything(self):
        cloud = sine_cloud(40, seed=8)
        model = fit(cloud, space1d(n=5), WeightSpec.gaussian(1.0))
        assert len(effective_points(model, cloud)) == 40
        assert model.effective_count == 40

    def test_drop_outside_reports_cloud_rows(self):
        # rows 0 and 6 fall outside [0, 1] and are dropped; every row index
        # reported must still name the cloud, not the kept subset
        x = np.array([-5.0, 0.0, 0.25, 0.5, 0.75, 1.0, 7.0])
        truth = np.where((x < 0) | (x > 1), 100.0, x)
        cloud = PointCloud(x, truth)
        space = space1d(lo=0, hi=1, n=3, p=1)  # averages at 0, 0.5, 1
        drop = FitPolicy(drop_outside=True)
        model = fit(cloud, space, WeightSpec.knn(1), drop)
        assert np.array_equal(effective_points(model, cloud), [1, 3, 5])
        bb = bias_bounds_at(cloud, truth, space, WeightSpec.knn(1), 0.0, 0.0, drop)
        assert bb.expected_fit == 0.0
        # empty balls fall back to the nearest kept row, stored as a cloud row
        sparse = PointCloud(np.array([-5.0, 0.1, 0.9, 7.0]), np.zeros(4))
        model = fit(sparse, space, WeightSpec.characteristic(0.05),
                    FitPolicy(empty_support="nearest", drop_outside=True))
        assert model.diagnostics.fallback_cells == {(0,): 1, (1,): 1, (2,): 2}

    def test_matches_fit_count(self):
        cloud = sine_cloud(70, seed=12)
        model = fit(cloud, space1d(n=9), WeightSpec.knn(3))
        pts = effective_points(model, cloud)
        assert model.effective_count == len(pts)
        assert len(pts) < cloud.n  # k-nn keeps it a proper subset here


class TestOutlierFilter:
    def test_requires_four_points(self):
        cloud = PointCloud(np.arange(3.0), np.zeros(3))
        with pytest.raises(ValueError):
            iqr_outlier_mask(cloud, space1d(lo=0, hi=2, n=3, p=2), WeightSpec.knn(2))

    def test_zero_iqr_keeps_all(self):
        cloud = PointCloud(np.linspace(0, 1, 12), np.full(12, 3.0))
        mask = iqr_outlier_mask(cloud, space1d(lo=0, hi=1, n=4, p=2),
                                WeightSpec.knn(3))
        assert mask.all()

    def test_removes_injected_outliers(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(-2, 2, 200)
        y = np.sin(np.pi * x) + 0.2 * rng.standard_normal(200)
        bad = rng.choice(200, 10, replace=False)
        y[bad] = rng.choice([-1.0, 1.0], 10) * 10.0
        cloud = PointCloud(x, y)
        mask = iqr_outlier_mask(cloud, space1d(n=10), WeightSpec.knn(10))
        assert not mask[bad].any()
        filtered = iqr_outlier_filter(cloud, space1d(n=10), WeightSpec.knn(10))
        assert filtered.n == mask.sum()
        assert np.abs(filtered.y).max() < 5.0


class TestShapeChecks:
    def test_classify_monotone_directions(self):
        assert classify_monotone(np.array([1.0, 2.0, 3.0])).direction == "increasing"
        assert classify_monotone(np.array([3.0, 1.0, 0.0])).direction == "decreasing"
        assert classify_monotone(np.array([1.0, 0.0, 2.0])).direction == "neither"

    def test_constant_reports_increasing_with_flag(self):
        res = classify_monotone(np.full(5, 2.0))
        assert res.direction == "increasing" and res.constant

    def test_monotone_grid_axiswise(self):
        grid = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert classify_monotone(grid, axis=0).direction == "increasing"
        assert classify_monotone(grid, axis=1).direction == "increasing"
        grid[1, 0] = -1.0
        assert classify_monotone(grid, axis=0).direction == "neither"

    def test_w_monotone_on_monotone_cloud(self):
        rng = np.random.default_rng(2)
        x = np.sort(rng.uniform(0, 1, 100))
        y = 2 * x + 0.01 * rng.standard_normal(100)
        res = w_monotone_check(PointCloud(x, y), space1d(lo=0, hi=1, n=8),
                               WeightSpec.knn(12))
        assert res.direction == "increasing" and not res.constant

    def test_monotone_coefficients_give_monotone_spline(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, 150)
        y = np.tanh(3 * x) + 0.005 * rng.standard_normal(150)
        cloud = PointCloud(x, y)
        space = space1d(lo=0, hi=1, n=9)
        assert w_monotone_check(cloud, space, WeightSpec.knn(15)).direction == "increasing"
        model = fit(cloud, space, WeightSpec.knn(15))
        xs = np.linspace(0, 1, 400)
        slopes = np.diff(evaluate(model, xs)) / np.diff(xs)
        assert slopes.min() >= -1e-10

    def test_classify_convexity(self):
        kv = make_uniform_regular(0, 1, 6, 2)
        xi = np.array([kv.knots[i + 1:i + 3].mean() for i in range(6)])
        assert classify_convexity(kv, xi**2).shape == "convex"
        assert classify_convexity(kv, -(xi**2)).shape == "concave"
        aff = classify_convexity(kv, 3 * xi + 1)
        assert aff.shape == "convex" and aff.affine

    def test_w_convex_on_convex_cloud(self):
        # Small k keeps the nearest-neighbour windows local; wide windows at
        # the domain ends average one-sidedly and genuinely break convexity.
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, 300)
        y = x**2 + 0.002 * rng.standard_normal(300)
        kv = make_uniform_regular(-1, 1, 7, 2)
        res = w_convex_check(PointCloud(x, y), kv, WeightSpec.knn(8))
        assert res.shape == "convex"

    def test_convex_coefficients_give_convex_spline(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, 300)
        y = np.exp(x) + 0.002 * rng.standard_normal(300)
        cloud = PointCloud(x, y)
        kv = make_uniform_regular(-1, 1, 8, 2)
        assert w_convex_check(cloud, kv, WeightSpec.knn(8)).shape == "convex"
        model = fit(cloud, TensorSplineSpace((kv,)), WeightSpec.knn(8))
        xs = np.linspace(-1, 1, 300)
        vals = evaluate(model, xs)
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert second.min() >= -1e-8
