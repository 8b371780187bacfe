"""Error reports, Hausdorff and Jaccard comparisons, band coverage."""

from dataclasses import astuple, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wqisa import (NoiseModel, PointCloud, TensorSplineSpace, WeightSpec,
                   band_coverage, coefficient_covariance, dispersion,
                   directed_hausdorff_normalized, fit, jaccard,
                   make_uniform_regular, snap_points)
from wqisa.fitting import gap_unit


def reference_dispersion(obs, pred) -> tuple:
    """dispersion's statistics from the residual obs / unit - pred / unit,
    formed out of place."""
    unit = max(gap_unit(obs), gap_unit(pred))
    res = obs / unit - pred / unit
    mse = float(np.mean(res**2))
    lo, hi = (len(res) - 1) // 2, len(res) // 2
    part = np.partition(res, (lo, hi, -1))
    mid = part[-1] if np.isnan(part[-1]) else part[hi] if lo == hi else (part[lo] + part[hi]) / 2
    return (mse * unit * unit, float(np.mean(np.abs(res))) * unit, float(np.sqrt(mse)) * unit,
            float(res.min()) * unit, float(res.max()) * unit, float(res.mean()) * unit,
            float(mid) * unit, float(res.std()) * unit)


def bits(values) -> list:
    """The float64 bytes of each value: tells -0.0 from 0.0, and inf and NaN apart."""
    return [np.float64(v).tobytes() for v in (astuple(values) if is_dataclass(values) else values)]


class TestDispersion:
    def test_zero_residuals(self):
        v = np.array([1.0, -2.0, 3.5])
        rep = dispersion(v, v)
        assert rep.mse == rep.mae == rep.rmse == 0.0
        assert rep.min == rep.max == rep.mean == rep.median == rep.std == 0.0

    def test_hand_computed_example(self):
        rep = dispersion([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])
        assert rep.mse == pytest.approx(7.5)
        assert rep.mae == pytest.approx(2.5)
        assert rep.rmse == pytest.approx(np.sqrt(7.5))
        assert rep.min == 1.0 and rep.max == 4.0
        assert rep.mean == 2.5 and rep.median == 2.5
        assert rep.std == pytest.approx(np.sqrt(1.25))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 11, 1000, 1001])
    def test_median_is_numpys(self, n):
        # taken from np.partition, since np.median imports numpy.ma on first use
        rng = np.random.default_rng(n)
        obs, pred = rng.standard_normal(n).round(1), rng.standard_normal(n)
        assert dispersion(obs, pred).median == np.median(obs - pred)
        if n > 1:
            obs[n // 2] = np.nan
            assert np.isnan(dispersion(obs, pred).median)

    def test_to_dict_has_all_keys(self):
        rep = dispersion([1.0], [0.5])
        assert set(rep.to_dict()) == {
            "mse", "mae", "rmse", "min", "max", "mean", "median", "std"}

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 40),
                      elements=st.floats(-1e6, 1e6)),
           st.integers(0, 2**31 - 1))
    def test_mae_never_exceeds_rmse(self, obs, seed):
        pred = np.random.default_rng(seed).uniform(-1e6, 1e6, len(obs))
        rep = dispersion(obs, pred)
        assert rep.mae <= rep.rmse * (1 + 1e-12)
        assert rep.rmse == pytest.approx(np.sqrt(rep.mse), rel=1e-12)
        assert rep.min <= rep.mean <= rep.max

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 60), st.data())
    def test_in_place_residual_keeps_the_bits(self, n, data):
        values = st.sampled_from([1.5e308, -1.5e308, 0.0, -0.0, 5e-324]) | st.floats(-1e308, 1e308)
        obs = data.draw(hnp.arrays(np.float64, n, elements=values))
        pred = data.draw(hnp.arrays(np.float64, n, elements=values))
        assert bits(dispersion(obs, pred)) == bits(reference_dispersion(obs, pred))

    def test_in_place_residual_keeps_the_bits_of_a_large_batch(self):
        # past 256 KiB numpy may reuse a temporary; the bits must not care
        rng = np.random.default_rng(4)
        obs, pred = rng.standard_normal((2, 50_000)) * 1e307
        assert bits(dispersion(obs, pred)) == bits(reference_dispersion(obs, pred))

    def test_validation(self):
        with pytest.raises(ValueError, match="mismatch"):
            dispersion([1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="at least one"):
            dispersion([], [])


class TestHausdorff:
    def ref(self, diam=5.0):
        return PointCloud(np.array([[0.0, 0.0], [3.0 * diam / 5, 4.0 * diam / 5]]),
                          np.zeros(2))

    def test_frozen_example(self):
        # Farthest point of a is (3,4), distance 5 to b; reference diameter 5.
        a = np.array([[0.0, 0.0], [3.0, 4.0]])
        b = np.array([[0.0, 0.0]])
        assert directed_hausdorff_normalized(a, b, self.ref()) == pytest.approx(1.0)

    def test_subset_scores_zero(self):
        rng = np.random.default_rng(0)
        b = rng.uniform(-1, 1, (40, 2))
        a = b[::3]
        assert directed_hausdorff_normalized(a, b, self.ref()) == 0.0

    def test_asymmetric(self):
        a = np.array([[0.0], [10.0]])
        b = np.array([[0.0]])
        ref = PointCloud(np.array([0.0, 2.0]), np.zeros(2))
        assert directed_hausdorff_normalized(a, b, ref) == pytest.approx(5.0)
        assert directed_hausdorff_normalized(b, a, ref) == 0.0

    def test_matches_scipy(self):
        scipy_sd = pytest.importorskip("scipy.spatial.distance")
        rng = np.random.default_rng(3)
        a = rng.uniform(-2, 2, (300, 3))
        b = rng.uniform(-2, 2, (250, 3))
        ref = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]), np.zeros(2))
        got = directed_hausdorff_normalized(a, b, ref)
        want = scipy_sd.directed_hausdorff(a, b)[0] / 1.0
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_bits_of_a_full_scan(self, dim):
        # the k-d tree finds each nearest point; the value is the full scan's
        rng = np.random.default_rng(40 + dim)
        ref = PointCloud(rng.uniform(-1, 1, (300, dim - 1)), rng.uniform(-1, 1, 300))
        for trial in range(4):
            a = rng.uniform(-1, 1, (700, dim))
            b = rng.uniform(-1, 1, (rng.integers(1, 400), dim)).round(trial)  # coarse: ties
            b = np.vstack([b, b[:20], a[::9]])  # duplicates, and points of a on b
            a = np.vstack([a, a[:50]])
            worst = max(float(((c[:, None, :] - b[None, :, :]) ** 2).sum(axis=2).min(axis=1).max())
                        for c in np.array_split(a, 7))
            assert directed_hausdorff_normalized(a, b, ref) == float(np.sqrt(worst)) / ref.diameter

    def test_zero_diameter_reference_rejected(self):
        ref = PointCloud(np.array([1.0, 1.0]), np.zeros(2))
        with pytest.raises(ValueError, match="zero diameter"):
            directed_hausdorff_normalized([[0.0]], [[1.0]], ref)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            directed_hausdorff_normalized([[0.0, 1.0]], [[1.0]], self.ref())

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("row", [1, 1500])
    def test_non_finite_point_of_a_rejected(self, bad, row):
        # an infinite row of a once scored inf; a row past the first query
        # block is named by its row in a
        a = np.zeros((row + 1, 2))
        a[row, 0] = bad
        with pytest.raises(ValueError, match=rf"not NaN or inf, got .* at row {row}$"):
            directed_hausdorff_normalized(a, [[1.0, 0.0]], self.ref())


class TestJaccard:
    def test_identical_sets_score_one(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3, 3, (100, 2))
        assert jaccard(pts, pts.copy()) == 1.0

    @pytest.mark.parametrize("bad", [np.empty((0, 2)), np.empty(0), np.zeros((2, 2, 2))])
    def test_empty_or_non_matrix_point_sets_rejected(self, bad):
        with pytest.raises(ValueError, match=r"nonempty \(m, t\) point array"):
            jaccard(bad, np.zeros((1, 2)))

    def test_disjoint_sets_score_zero(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[100.0, 100.0]])
        assert jaccard(a, b) == 0.0

    def test_half_overlap(self):
        a = np.array([[0.0], [1.0]])
        b = np.array([[0.0], [2.0]])
        # Cells {0,1} vs {0,2}: intersection 1, union 3.
        assert jaccard(a, b, cell=1.0) == pytest.approx(1 / 3)

    def test_coarse_cell_merges_nearby_points(self):
        a = np.array([[0.0], [0.01]])
        b = np.array([[0.02]])
        assert jaccard(a, b, cell=1.0) == 1.0
        assert jaccard(a, b, cell=0.001) == 0.0

    def test_snap_points_quantizes(self):
        got = snap_points(np.array([[1.4, -0.6], [0.2, 0.9], [0.9, -1.2], [0.1, 1.3]]), cell=1.0)
        assert got.dtype == np.int64 and got.tolist() == [[0, 1], [1, -1]]  # distinct, sorted
        with pytest.raises(ValueError):
            snap_points([[0.0]], cell=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_point_rejected_by_its_row(self, bad, side):
        # a NaN row once made the default cell 1.0 and scored these sets 0.8;
        # an infinite one was blamed on the cell
        rng = np.random.default_rng(7)
        sets = [rng.uniform(0, 1, (200, 2)), rng.uniform(0, 1, (200, 2))]
        assert jaccard(*sets) == 0.0
        sets[side][17, 1] = bad
        with pytest.raises(ValueError, match=r"not NaN or inf, got .* at row 17$"):
            jaccard(*sets)
        with pytest.raises(ValueError, match=r"not NaN or inf, got .* at row 17$"):
            snap_points(sets[side], cell=1.0)

    @pytest.mark.parametrize("cell", [np.nan, np.inf, 0.0, -1.0])
    def test_cell_must_be_finite_and_positive(self, cell):
        # a NaN or infinite cell once snapped two unrelated sets onto one
        # cell and scored them 1.0
        rng = np.random.default_rng(6)
        a, b = rng.uniform(0, 1, (200, 2)), rng.uniform(5, 6, (200, 2))
        assert jaccard(a, b) == 0.0
        with pytest.raises(ValueError, match=f"cell size must be finite and > 0, got {cell}"):
            jaccard(a, b, cell)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            jaccard([[0.0, 1.0]], [[1.0]])

    def test_flat_arrays_are_points_on_a_line(self):
        assert jaccard([0.0, 1.0], [0.0, 2.0], cell=1.0) == jaccard([[0.0], [1.0]], [[0.0], [2.0]],
                                                                    cell=1.0)


@pytest.mark.parametrize("scale", [2.0**600, 2.0**1000, 2.0**-300, 2.0**-600])
def test_metrics_keep_their_bits_at_a_power_of_two_scale(scale):
    # squared gaps overflow past ~1e154 and underflow below ~1e-154: the
    # metrics measure in a unit that keeps them normal, and scaling by a
    # power of two is exact
    rng = np.random.default_rng(8)
    a = rng.uniform(-1, 1, (200, 3))
    b = a + rng.normal(0, 0.01, a.shape)
    ref = PointCloud(a[:, :2], a[:, 2])
    big = PointCloud(a[:, :2] * scale, a[:, 2] * scale)
    assert 0.0 < jaccard(a, b) < 0.5 and 0.0 < directed_hausdorff_normalized(a, b, ref) < 0.1
    assert jaccard(a * scale, b * scale) == jaccard(a, b)
    assert (directed_hausdorff_normalized(a * scale, b * scale, big)
            == directed_hausdorff_normalized(a, b, ref))
    # residual statistics scale with the values, and mse with their square
    at = dispersion(a[:, 2] * scale, b[:, 2] * scale).to_dict()
    want = {key: val * scale * (scale if key == "mse" else 1.0)
            for key, val in dispersion(a[:, 2], b[:, 2]).to_dict().items()}
    assert np.array_equal(np.array(list(at.values())).view(np.int64),
                          np.array(list(want.values())).view(np.int64)), (at, want)


class TestBandCoverage:
    def test_wide_band_covers_everything_narrow_almost_nothing(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, 150)
        y = np.sin(np.pi * x) + 0.3 * rng.standard_normal(150)
        cloud = PointCloud(x, y)
        space = TensorSplineSpace((make_uniform_regular(-1, 1, 6, 2),))
        spec = WeightSpec.knn(10)
        model = fit(cloud, space, spec)
        huge = coefficient_covariance(cloud, space, spec, NoiseModel(50.0))
        tiny = coefficient_covariance(cloud, space, spec, NoiseModel(1e-9))
        assert band_coverage(cloud, model, huge) == 1.0
        assert band_coverage(cloud, model, tiny) < 0.2

    def test_coverage_monotone_in_alpha(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, 200)
        y = 0.5 * x + 0.2 * rng.standard_normal(200)
        cloud = PointCloud(x, y)
        space = TensorSplineSpace((make_uniform_regular(-1, 1, 5, 2),))
        spec = WeightSpec.knn(12)
        model = fit(cloud, space, spec)
        cov = coefficient_covariance(cloud, space, spec, NoiseModel(0.2))
        covs = [band_coverage(cloud, model, cov, alpha=a)
                for a in (0.5, 0.2, 0.05, 0.01)]
        assert all(c1 <= c2 for c1, c2 in zip(covs, covs[1:]))
