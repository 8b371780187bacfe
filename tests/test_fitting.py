"""Fitter: estimator, bounds, effective points, outlier filter, shape checks."""

import inspect
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wqisa import (DomainError, EmptySupportError, FitPolicy, KdTree, KnotVector, NoiseModel,
                   PointCloud, TensorSplineSpace, WeightSpec, WqisaError,
                   classify_convexity, cloud_weights, coefficient_covariance,
                   classify_monotone, estimate_control_point,
                   evaluate, fit, global_bounds, iqr_outlier_filter,
                   iqr_outlier_mask, kfold_cv, local_bounds, make_folds,
                   make_uniform_regular)
from wqisa import fitting, weights
from wqisa.fitting import (ConvexityResult, _quartiles, _working_points, coefficient_slopes,
                           weight_blocks)

from _oracles import brute_estimate, brute_local_bounds, slope_loop
from test_kdtree import COORDS
from test_weight_blocks import sites_of


def support_rows(model, cloud):
    """Sorted cloud rows in some coefficient's weight row: the union of
    weight_blocks' cols."""
    blocks = weight_blocks(cloud, model.space, model.weight, model.policy)
    return np.unique(np.concatenate([block.cols for block in blocks]))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_nonfinite_row_is_named(self, bad):
        x, y = np.zeros((6, 2)), np.zeros(6)
        x[4, 1] = bad
        with pytest.raises(ValueError, match=rf"^cloud contains non-finite values: "
                                             rf"x \[0.0, {bad}\] at row 4$"):
            PointCloud(x, y)
        y[2] = bad  # an earlier row, in y
        with pytest.raises(ValueError, match=rf"^cloud contains non-finite values: y {bad} at row 2$"):
            PointCloud(x, y)

    # (5, 0): rows of no coordinates once failed at the first tree, in numpy's words
    @pytest.mark.parametrize("x", [np.empty((0, 2)), np.empty(0), np.zeros((2, 2, 1)),
                                   np.zeros((5, 0))])
    def test_empty_or_non_matrix_predictors_rejected(self, x):
        with pytest.raises(ValueError, match=r"nonempty \(N, d\) predictor array, got shape \("):
            PointCloud(x, np.zeros(len(x)))

    def test_diameter_exact_small(self):
        c = PointCloud(np.array([[0.0], [3.0]]), np.array([0.0, 4.0]))
        assert c.diameter == 5.0
        # the farthest pair, 4 apart, not the bounding box's diagonal of 5
        assert PointCloud(np.array([0.0, 4.0, 2.0]), np.array([0.0, 0.0, 3.0])).diameter == 4.0

    def test_diameter_bbox_fallback(self):
        rng = np.random.default_rng(0)
        c = PointCloud(rng.uniform(0, 1, (5001, 1)), rng.uniform(0, 1, 5001))
        span = c.records.max(axis=0) - c.records.min(axis=0)
        assert c.diameter == float(np.sqrt((span**2).sum()))

    def test_diameter_of_huge_records_is_finite(self):
        # squared gaps past ~1.3e154 overflow to inf unless the records are scaled
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            exact = PointCloud(np.array([0.0, 3e155, -3e155]), np.zeros(3))
            assert exact.diameter == 6e155
            x = np.linspace(-3e155, 3e155, 5001)
            bbox = PointCloud(x, np.zeros(5001))
            assert bbox.diameter == 6e155
            # below 2^500 the bits are those of the unscaled formula
            small = PointCloud(x * 1e-150, np.zeros(5001))
            span = small.records.max(axis=0) - small.records.min(axis=0)
            assert small.diameter == float(np.sqrt((span**2).sum()))


    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 400), st.data())
    def test_bbox_and_inside_mask_equal_the_axis_reductions(self, d, n, data):
        # column by column, min, max and the box test are exact: the bits of
        # the reductions over the short axis, signed zeros included
        values = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-2.0, 2.0)
        x = data.draw(hnp.arrays(np.float64, (n, d), elements=values))
        cloud = PointCloud(x, np.zeros(n))
        assert [a.tobytes() for a in cloud.bbox] == [x.min(axis=0).tobytes(),
                                                     x.max(axis=0).tobytes()]
        lo = np.array(data.draw(st.lists(st.floats(-2.5, 1.0), min_size=d, max_size=d)))
        space = TensorSplineSpace.from_bounds(lo, lo + 1.5, 3, 1)
        lo, hi = space.domain
        inside = np.all((x >= lo) & (x <= hi), axis=1)
        assert cloud.within(lo, hi) == inside.all()
        # x itself when it lies in the box, unless a bound is a zero: there
        # np.clip may give a zero row the bound's sign
        clipped = cloud.clipped(lo, hi)
        assert (clipped is cloud.x) == (inside.all() and np.all(lo != 0) and np.all(hi != 0))
        assert clipped.tobytes() == np.clip(x, lo, hi).tobytes()
        drop = FitPolicy(drop_outside=True)
        if inside.all():
            assert _working_points(cloud, space, drop) == (cloud, None)
        elif not inside.any():
            with pytest.raises(DomainError, match="no cloud points inside"):
                _working_points(cloud, space, drop)
        else:
            work, kept = _working_points(cloud, space, drop)
            assert np.array_equal(kept, np.flatnonzero(inside))
            assert np.array_equal(work.x, x[inside])

    def test_drop_index_forgets_the_index_and_the_working_clouds(self):
        cloud = sine_cloud(n=200)
        fit(cloud, space1d(lo=-1.0, hi=1.0), WeightSpec.knn(5))  # a clipped working cloud
        fit(cloud, space1d(), WeightSpec.knn(5))
        assert "tree" in vars(cloud) and len(cloud._working) == 1
        cloud.drop_index()
        assert "tree" not in vars(cloud) and "_working" not in vars(cloud)
        cloud.drop_index()  # nothing left to forget
        again = fit(cloud, space1d(lo=-1.0, hi=1.0), WeightSpec.knn(5))
        assert np.array_equal(again.spline.coefficients, fit(
            sine_cloud(n=200), space1d(lo=-1.0, hi=1.0), WeightSpec.knn(5)).spline.coefficients)


class TestEstimator:
    def test_knn_example(self):
        cloud = PointCloud(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 4.0]))
        assert estimate_control_point(cloud, WeightSpec.knn(2), [0.0]).tolist() == [1.5]

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
                estimate_control_point(cloud, spec, [u])
        else:
            got, = estimate_control_point(cloud, spec, [u])
            assert got == pytest.approx(ref, abs=1e-12)
            assert y.min() - 1e-12 <= got <= y.max() + 1e-12

    @pytest.mark.parametrize("spec", [WeightSpec.knn(20), WeightSpec.characteristic(0.3),
                                      WeightSpec.gaussian(0.3), WeightSpec.exponential(0.3),
                                      WeightSpec.idw()], ids=lambda s: s.family)
    @pytest.mark.parametrize("d", [1, 2])
    def test_equals_the_fitted_coefficient_bit_for_bit(self, spec, d):
        # the estimator reduces a window as fit reduces a coefficient's row,
        # and a block of anchors as its one-row blocks
        rng = np.random.default_rng(17 + d)
        n = 600 * d * d
        x = rng.uniform(-1, 1, (n, d))
        cloud = PointCloud(x, np.sin(3 * x[:, 0]) * x[:, -1] + 0.3 * rng.standard_normal(n))
        space = TensorSplineSpace.from_bounds([-1] * d, [1] * d, [12 // d + 2] * d, 2)
        coeffs = fit(cloud, space, spec).spline.coefficients
        block = estimate_control_point(cloud, spec, sites_of(space))
        assert block.shape == (space.dim,)
        for index, got, site in zip(np.ndindex(space.shape), block, sites_of(space)):
            assert got == coeffs[index], (index, got - coeffs[index])
            one, = estimate_control_point(cloud, spec, [site])
            assert one.tobytes() == got.tobytes(), (index, one - got)

    def test_empty_support_names_site(self):
        cloud = PointCloud(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(EmptySupportError, match="5.0"):
            estimate_control_point(cloud, WeightSpec.characteristic(0.1), [5.0])

    def test_empty_support_names_every_starved_anchor(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, 2.0]))
        anchors = [[0.0, 0.05], [5.0, 5.0], [1.0, 1.0], [7.0, -7.0]]
        with pytest.raises(EmptySupportError) as err:
            estimate_control_point(cloud, WeightSpec.characteristic(0.1), anchors)
        assert [(cell, site.tolist()) for cell, site in err.value.cells] == [
            (None, [5.0, 5.0]), (None, [7.0, -7.0])]
        assert "2 coefficient(s): ? at (5.0, 5.0), ? at (7.0, -7.0)" in str(err.value)

    def test_an_empty_block_gives_no_means(self):
        cloud = sine_cloud(30)
        for spec in (WeightSpec.knn(3), WeightSpec.characteristic(0.3), WeightSpec.idw()):
            assert estimate_control_point(cloud, spec, np.empty((0, 1))).shape == (0,)


@pytest.mark.parametrize("value", ["no", 0, None])
def test_drop_outside_must_be_a_bool(value):
    with pytest.raises(ValueError, match=f"drop_outside must be a bool, got {value!r}"):
        FitPolicy(drop_outside=value)


def test_cloud_weights_checks_every_block(monkeypatch):
    # fitting passes each block of its knot-average grid as it is, and
    # cloud_weights, with no switch to skip it, checks every block it gets
    assert not hasattr(fitting, "query_block")
    assert "checked" not in inspect.signature(cloud_weights).parameters
    calls = []
    check = weights.query_block
    monkeypatch.setattr(weights, "query_block", lambda u, d: calls.append(len(u)) or check(u, d))
    cloud = sine_cloud()
    fit(cloud, space1d(n=12), WeightSpec.gaussian(0.3))
    assert calls == [1] * 12
    with pytest.raises(ValueError, match="NaN"):
        estimate_control_point(cloud, WeightSpec.gaussian(0.3), [np.nan])
    plane = TensorSplineSpace((make_uniform_regular(-2.0, 2.0, 6, 2),) * 2)
    with pytest.raises(ValueError, match="point dimension 2 != expected dimension 1"):
        fit(cloud, plane, WeightSpec.gaussian(0.3))


@pytest.mark.parametrize("d, width", [(1, 2), (2, 1)])
@pytest.mark.parametrize("half", [1.0, 0.5], ids=["cloud-in-box", "cloud-leaves-box"])
def test_a_box_of_another_dimension_is_named(d, width, half):
    # a 1-D cloud that left a 2-D box was clipped against both axes' bounds
    # and broadcast into a 2-D working cloud: the fit succeeded silently
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.uniform(-1, 1, (200, d)), rng.standard_normal(200))
    space = TensorSplineSpace.from_bounds([-half] * width, [half] * width, 5, 2)
    message = f"point dimension {width} != expected dimension {d}"
    for call in (lambda: fit(cloud, space, WeightSpec.knn(5)),
                 lambda: fit(cloud, space, WeightSpec.knn(5), FitPolicy(drop_outside=True)),
                 lambda: coefficient_covariance(cloud, space, WeightSpec.gaussian(0.3),
                                                NoiseModel(0.2)),
                 lambda: cloud.clipped(*space.domain)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    # one bound of the cloud's width: the width of the other is named
    for lo, hi in (([-1.0] * d, [1.0] * width), ([-1.0] * width, [1.0] * d)):
        for call in (cloud.within, cloud.clipped):
            with pytest.raises(ValueError) as exc:
                call(lo, hi)
            assert str(exc.value) == message
    result = kfold_cv(cloud, [4, 5], lambda n: TensorSplineSpace.from_bounds(
        [-half] * width, [half] * width, n, 2), WeightSpec.knn(5),
        assignments=make_folds(cloud.n, 3, 0))
    assert np.isinf(result.scores).all() and result.failures == {4: message, 5: message}


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
            c, = estimate_control_point(cloud, spec, [u])
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
        support_rows(model, cloud)
        local_bounds(model, cloud, [0.5])
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
        support_rows(model, cloud)
        local_bounds(model, cloud, [0.5])
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


class TestMaxFloatResponses:
    BIG = np.finfo(float).max

    @pytest.mark.parametrize("signs", ["equal", "alternating", "halves"])
    def test_fit_stays_inside_the_data_range(self, signs):
        # sums of max-float responses times convex weights can overflow;
        # coefficients, values and means must still lie in [min y, max y]
        x = np.linspace(0, 1, 50)
        sign = {"equal": np.ones(50), "alternating": (-1.0) ** np.arange(50),
                "halves": np.where(x < 0.5, 1.0, -1.0)}[signs]
        y = self.BIG * sign
        cloud = PointCloud(x, y)
        space = space1d(lo=0, hi=1, n=6, p=2)
        spec = WeightSpec.gaussian(0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = fit(cloud, space, spec)
            c = model.spline.coefficients
            assert global_bounds(model, cloud).verified
            vals = evaluate(model, np.linspace(0, 1, 10_001))
            assert np.all(np.isfinite(vals))
            assert np.all((vals >= y.min()) & (vals <= y.max()))
            one, = estimate_control_point(cloud, spec, [0.5])
            assert y.min() <= one <= y.max()
            # the fit of true values y at 0.4 lies between the responses
            # feeding its knot-span cell [0.25, 0.5)
            (lower,), (upper,) = local_bounds(model, cloud, [0.4])
            at, = evaluate(model, [0.4])
            assert lower <= at <= upper
        if signs == "equal":
            assert np.all(c == self.BIG) and one == self.BIG and at == self.BIG


BIG = np.finfo(float).max

# every dense and bounded family, with parameters from tiny to past the
# coordinate scales of COORDS
FAMILY_SPECS = {
    "knn": st.integers(1, 12).map(WeightSpec.knn),
    "characteristic": st.sampled_from([1e-300, 0.3, 2.0, 1e155]).map(WeightSpec.characteristic),
    "gaussian": st.builds(WeightSpec.gaussian, st.sampled_from([0.05, 0.5, 1e150]),
                          st.booleans()),
    "exponential": st.sampled_from([0.05, 0.5, 1e150]).map(WeightSpec.exponential),
    "idw": st.just(WeightSpec.idw()),
}


@st.composite
def adversarial_fits(draw):
    """(cloud, space bounds, counts, degree, weight, policy) on the tree's
    coordinate families (plain, subnormal, ~1e150), ±max-float responses,
    duplicate points, an all-equal axis and clouds smaller than k. The
    space spans the cloud's bounding box, as the CLI's does, widened by a
    pad that may be 0."""
    coord = COORDS[draw(st.sampled_from(sorted(COORDS)))]
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 30))
    x = np.array(draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n)))
    if n >= 2 and draw(st.booleans()):
        x[1] = x[0]
    if draw(st.booleans()):
        axis = draw(st.integers(0, d - 1))
        x[:, axis] = x[0, axis]
    y = draw(st.lists(st.sampled_from([BIG, -BIG, 0.0, 1.0]) | st.floats(-1e3, 1e3),
                      min_size=n, max_size=n))
    weight = draw(st.sampled_from(sorted(FAMILY_SPECS)).flatmap(FAMILY_SPECS.get))
    policy = FitPolicy(draw(st.sampled_from(["error", "nearest"])))
    degree = draw(st.integers(1, 2))
    counts = draw(st.lists(st.integers(degree + 1, 6), min_size=d, max_size=d))
    pad = draw(st.sampled_from([0.0, 1e-300, 1.0, 1e150]))
    bounds = x.min(axis=0) - pad, x.max(axis=0) + pad
    return PointCloud(x, np.array(y)), bounds, counts, degree, weight, policy


class TestAdversarialFits:
    @settings(max_examples=300, deadline=None)
    @given(adversarial_fits())
    @example((PointCloud([0.0, 1e154], [BIG, -BIG]), ([0.0], [1e154]), [3], 1,
              WeightSpec.gaussian(0.05, squared_norm=True), FitPolicy("nearest"))
             ).via("a squared norm over 2 sigma^2 overflows: weight 0, no warning")
    @example((PointCloud([[0.0, 0.0], [2.6e-307, 5e-324]], [BIG, BIG]),
              ([0.0, 0.0], [2.6e-307, 5e-324]), [2, 3], 1, WeightSpec.characteristic(1e-300),
              FitPolicy())).via("an axis too narrow for distinct knots")
    def test_values_lie_in_the_data_range_or_a_library_error_is_raised(self, case):
        cloud, bounds, counts, degree, weight, policy = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # k > N is clamped with a warning
            try:
                space = TensorSplineSpace.from_bounds(*bounds, counts, degree)
                model = fit(cloud, space, weight, policy)
            except WqisaError:
                return
        lo, hi = space.domain
        axes = [np.linspace(a, b, 9) for a, b in zip(lo, hi)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, cloud.d)
        vals = evaluate(model, np.vstack([cloud.x, grid]))
        assert np.all(np.isfinite(vals))
        assert np.all((vals >= cloud.y.min()) & (vals <= cloud.y.max()))


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
        (lo,), (hi,) = local_bounds(model, cloud, [0.5])
        assert (lo, hi) == (-1.0, 5.0)
        (lo,), (hi,) = local_bounds(model, cloud, [1.5])
        assert (lo, hi) == (-1.0, 3.0)
        # a block: every point in its own cell, the right end in the last
        lo, hi = local_bounds(model, cloud, [0.0, 0.5, 1.0, 2.0])
        assert lo.tolist() == [-1.0] * 4 and hi.tolist() == [5.0, 5.0, 3.0, 3.0]

    def test_local_bounds_contain_cell_samples(self):
        cloud = sine_cloud(140, seed=4)
        space = space1d(n=11)
        model = fit(cloud, space, WeightSpec.knn(8))
        kv = space.axes[0]
        for span in range(kv.degree, kv.n):
            a, b = kv.knots[span], kv.knots[span + 1]
            if a == b:
                continue
            xs = np.linspace(a, b - 1e-9 * (b - a), 40)
            lo, hi = local_bounds(model, cloud, xs)
            vals = evaluate(model, xs)
            assert np.all(vals >= lo - 1e-12) and np.all(vals <= hi + 1e-12)

    def test_local_bounds_check_their_points(self):
        # the block rule is query_block's (tests/test_point_contract.py); a
        # point off the domain is named by axis and row, as spline_eval does
        cloud = sine_cloud(50)
        model = fit(cloud, space1d(n=6), WeightSpec.knn(4))
        with pytest.raises(DomainError, match=r"axis 0: point\(s\) \[2.5\] at rows \[1\]"):
            local_bounds(model, cloud, [0.0, 2.5])
        with pytest.raises(ValueError, match="point dimension 2 != expected dimension 1"):
            local_bounds(model, cloud, [[2, 2]])
        lo, hi = local_bounds(model, cloud, np.empty(0))
        assert lo.shape == hi.shape == (0,)


# weights with local and spanning supports: a gaussian of sigma 0.01 scores
# rows beyond about 0.15 at 0, and a ball of radius 0.1 starves some sites
LOCAL_BOUND_SPECS = [WeightSpec.knn(1), WeightSpec.knn(4), WeightSpec.knn(50),
                     WeightSpec.characteristic(0.1), WeightSpec.characteristic(0.6),
                     WeightSpec.gaussian(0.01), WeightSpec.gaussian(0.3),
                     WeightSpec.exponential(0.01), WeightSpec.idw()]


@st.composite
def local_bound_fits(draw):
    """(cloud, domain bounds, counts, degree, weight, policy): 1-D to 3-D
    clouds on a quarter lattice or not, with duplicate rows, in a domain box
    that may be narrower than the cloud."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    coord = st.integers(-4, 4).map(lambda v: v / 4) | st.floats(-1, 1)
    x = np.array(draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n)))
    if n >= 2 and draw(st.booleans()):
        x[n // 2:] = x[:n - n // 2]  # every row of the second half repeats one of the first
    y = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    lo = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0]), min_size=d, max_size=d))
    hi = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=d, max_size=d))
    degree = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(degree + 1, degree + 3), min_size=d, max_size=d))
    weight = draw(st.sampled_from(LOCAL_BOUND_SPECS))
    policy = FitPolicy(draw(st.sampled_from(["error", "nearest"])), draw(st.booleans()))
    return PointCloud(x, y), (lo, hi), counts, degree, weight, policy


@settings(max_examples=150, deadline=None)
@given(local_bound_fits(), st.integers(0, 2**32 - 1))
def test_local_bounds_equal_the_union_of_supports(case, seed):
    # at a random point of every cell, and at the domain's far corner, the
    # bounds are exactly the extremes over the union of the active
    # coefficients' supports, each found by full scan
    cloud, bounds, counts, degree, weight, policy = case
    space = TensorSplineSpace.from_bounds(*bounds, counts, degree)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k > N is clamped with a warning
        try:
            model = fit(cloud, space, weight, policy)
        except WqisaError:  # a starved site under "error", or no row in the box
            return
        rng = np.random.default_rng(seed)
        spans = [[(kv.knots[s], kv.knots[s + 1]) for s in range(kv.degree, kv.n)]
                 for kv in space.axes]
        pts = [[a + (b - a) * rng.random() for a, b in cell] for cell in itertools.product(*spans)]
        pts = np.array(pts + [list(space.domain[1])])
        lo, hi = local_bounds(model, cloud, pts)
    params = {"k": weight.k, "r": weight.r, "sigma": weight.sigma,
              "squared_norm": weight.gaussian_squared_norm}
    axes = [(kv.knots, kv.degree) for kv in space.axes]
    want = np.array([brute_local_bounds(cloud.x, cloud.y, axes, weight.family, params,
                                        policy.empty_support == "nearest",
                                        policy.drop_outside, p) for p in pts])
    assert np.array_equal(lo, want[:, 0]) and np.array_equal(hi, want[:, 1]), (pts, lo, hi, want)


class TestEffectivePoints:
    def test_knn_union(self):
        cloud = PointCloud(np.array([0.0, 0.5, 1.0, 1.5, 2.0]),
                           np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        space = space1d(lo=0, hi=2, n=3, p=1)  # averages at 0, 1, 2
        model = fit(cloud, space, WeightSpec.knn(1))
        assert np.array_equal(support_rows(model, cloud), [0, 2, 4])
        assert model.effective_count == 3

    def test_unbounded_weight_sees_everything(self):
        cloud = sine_cloud(40, seed=8)
        model = fit(cloud, space1d(n=5), WeightSpec.gaussian(1.0))
        assert len(support_rows(model, cloud)) == 40
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
        assert np.array_equal(support_rows(model, cloud), [1, 3, 5])
        assert model.effective_count == 3
        assert evaluate(model, [0.0]).tolist() == [0.0]  # the fit of the true values
        # empty balls fall back to the nearest kept row, stored as a cloud row
        sparse = PointCloud(np.array([-5.0, 0.1, 0.9, 7.0]), np.zeros(4))
        model = fit(sparse, space, WeightSpec.characteristic(0.05),
                    FitPolicy(empty_support="nearest", drop_outside=True))
        assert model.diagnostics.fallback_cells == {(0,): 1, (1,): 1, (2,): 2}

    def test_matches_fit_count(self):
        cloud = sine_cloud(70, seed=12)
        model = fit(cloud, space1d(n=9), WeightSpec.knn(3))
        pts = support_rows(model, cloud)
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

    @pytest.mark.parametrize("factor", [1.5, 0.25])  # 0.25 drops 32 rows
    def test_limit_cloud_masks_as_its_scaled_copy(self, factor):
        # y = +-1.5e308 |sin 5x|: residuals are measured in the gap_unit of
        # y and the pilot's values, so no subtraction overflows (the suite
        # turns RuntimeWarnings into errors) and the mask is the one of the
        # cloud scaled by 2^-1000
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 200)
        y = np.where(rng.random(200) < 0.5, -1.0, 1.0) * 1.5e308 * np.abs(np.sin(5 * x))
        space = TensorSplineSpace.from_bounds(x.min(), x.max(), 8, 2)
        limit = iqr_outlier_mask(PointCloud(x, y), space, WeightSpec.knn(5), factor)
        scaled = iqr_outlier_mask(PointCloud(x, y * 2.0**-1000), space, WeightSpec.knn(5), factor)
        assert np.array_equal(limit, scaled)

    @pytest.mark.parametrize("kind", ["random", "ties", "constant", "scales"])
    def test_quartiles_are_numpys(self, kind):
        # taken from np.partition, since np.percentile imports numpy.ma on first use
        rng = np.random.default_rng(5)
        for n in [*range(4, 301), 10**4]:
            v = {"random": lambda: rng.standard_normal(n),
                 "ties": lambda: rng.integers(0, 3, n) * 0.1,
                 "constant": lambda: np.full(n, 0.1),
                 "scales": lambda: rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
                 }[kind]()
            got, want = np.array(_quartiles(v)), np.percentile(v, [25.0, 75.0])
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, got, want)


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

    def test_monotone_cloud_gives_monotone_coefficients(self):
        rng = np.random.default_rng(2)
        x = np.sort(rng.uniform(0, 1, 100))
        y = 2 * x + 0.01 * rng.standard_normal(100)
        model = fit(PointCloud(x, y), space1d(lo=0, hi=1, n=8), WeightSpec.knn(12))
        res = classify_monotone(model.spline.coefficients)
        assert res.direction == "increasing" and not res.constant

    def test_monotone_coefficients_give_monotone_spline(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, 150)
        y = np.tanh(3 * x) + 0.005 * rng.standard_normal(150)
        cloud = PointCloud(x, y)
        space = space1d(lo=0, hi=1, n=9)
        model = fit(cloud, space, WeightSpec.knn(15))
        assert classify_monotone(model.spline.coefficients).direction == "increasing"
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
        assert classify_convexity(kv, np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])).shape == "neither"

    def test_values_constant_up_to_one_ulp_are_affine(self):
        # the slopes of such values are pure noise: a tolerance relative to
        # the slopes themselves read them as "neither"
        kv = make_uniform_regular(0, 1, 6, 2)
        v = np.array([0.3, 0.1 + 0.2, 0.3, 0.3, 0.3, 0.3])
        for scale in (1.0, 1e-20, 2.0**-1000, 2.0**1000):
            assert classify_monotone(v * scale).constant
            assert classify_convexity(kv, v * scale) == ConvexityResult("convex", True), scale

    def test_grids_near_the_float_limit(self):
        # the bowl's slopes, and the difference of +-1.7e308, pass the float
        # range; the values' gap_unit keeps them inside, without a warning
        kv = make_uniform_regular(0, 1, 6, 2)
        xi = np.array([kv.knots[i + 1:i + 3].mean() for i in range(6)])
        bowl = 1.7e308 * (8 * (xi - 0.5) ** 2 - 1)  # from 1.7e308 down to -1.49e308 and back
        assert classify_convexity(kv, bowl) == classify_convexity(kv, bowl / 4)
        assert classify_convexity(kv, bowl).shape == "convex"
        assert classify_convexity(kv, -bowl).shape == "concave"
        assert classify_monotone(bowl).direction == "neither"
        assert classify_monotone(np.array([1.7e308, -1.7e308])).direction == "decreasing"

    def test_slopes_match_the_loop_bit_for_bit(self):
        # Interior knots of multiplicity p+1 empty a knot window, whose slope
        # is the previous live one carried forward.
        rng = np.random.default_rng(15)
        for trial in range(400):
            p = int(rng.integers(1, 4))  # a knot vector's degree is at least 1
            cuts = np.sort(rng.choice(np.linspace(0.1, 0.9, 9), int(rng.integers(0, 6)),
                                      replace=False))
            reps = rng.integers(1, p + 2, len(cuts))  # multiplicity up to p+1
            t = np.concatenate([np.zeros(p + 1), np.repeat(cuts, reps), np.ones(p + 1)])
            kv = KnotVector(p, t)
            c = rng.standard_normal(kv.n) * 10.0 ** rng.integers(-5, 6)
            got, want = coefficient_slopes(kv, c), slope_loop(kv.knots, p, c)
            assert got.tobytes() == want.tobytes(), f"trial {trial}: {got} != {want}"

    def test_values_without_differences(self):
        # no slope, or one slope: nothing to compare, so constant / affine
        assert classify_monotone(np.empty(0)) == classify_monotone(np.ones(1))
        assert classify_monotone(np.empty((0, 3)), axis=1).constant
        for kv in (KnotVector(1, np.array([0.0, 0.5, 1.0])), make_uniform_regular(0, 1, 2, 1)):
            res = classify_convexity(kv, np.arange(kv.n, dtype=float))
            assert res.shape == "convex" and res.affine

    def test_convex_cloud_gives_convex_coefficients(self):
        # Small k keeps the nearest-neighbour windows local; wide windows at
        # the domain ends average one-sidedly and genuinely break convexity.
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, 300)
        y = x**2 + 0.002 * rng.standard_normal(300)
        kv = make_uniform_regular(-1, 1, 7, 2)
        model = fit(PointCloud(x, y), TensorSplineSpace((kv,)), WeightSpec.knn(8))
        assert classify_convexity(kv, model.spline.coefficients).shape == "convex"

    def test_convex_coefficients_give_convex_spline(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, 300)
        y = np.exp(x) + 0.002 * rng.standard_normal(300)
        cloud = PointCloud(x, y)
        kv = make_uniform_regular(-1, 1, 8, 2)
        model = fit(cloud, TensorSplineSpace((kv,)), WeightSpec.knn(8))
        assert classify_convexity(kv, model.spline.coefficients).shape == "convex"
        xs = np.linspace(-1, 1, 300)
        vals = evaluate(model, xs)
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert second.min() >= -1e-8


@pytest.mark.parametrize("call, error, match", [
    (lambda: fit(PointCloud(np.array([3.0, 4.0]), np.zeros(2)), space1d(), WeightSpec.knn(1),
                 FitPolicy(drop_outside=True)), DomainError, "no cloud points inside the domain box"),
    (lambda: iqr_outlier_mask(sine_cloud(20), space1d(n=4), WeightSpec.knn(3), factor=-0.5),
     ValueError, "factor must be >= 0, got -0.5"),
], ids=["none-inside", "negative-factor"])
def test_unusable_request_is_named(call, error, match):
    with pytest.raises(error, match=match):
        call()
