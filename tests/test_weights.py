"""Weight families: closed forms and neighbor semantics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wqisa import PointCloud, WeightSpec, cloud_weights, estimate_control_point

from _oracles import brute_weight_vector


def cloud_of(x):
    x = np.asarray(x, dtype=float)
    return PointCloud(x, np.zeros(len(x)))


def weights_at(spec, u, xs):
    """Dense weight vector of the cloud xs against anchor u."""
    idx, w = cloud_weights(spec, u, cloud_of(xs))
    dense = np.zeros(len(xs))
    dense[idx] = w
    return dense


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            WeightSpec("parzen")

    @pytest.mark.parametrize("bad", [
        lambda: WeightSpec.knn(0),
        lambda: WeightSpec.characteristic(0.0),
        lambda: WeightSpec.gaussian(-1.0),
        lambda: WeightSpec.exponential(0.0),
    ])
    def test_nonpositive_params(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestClosedForms:
    def test_gaussian_peak(self):
        assert weights_at(WeightSpec.gaussian(1.0), [0.0], [0.0])[0] == 1.0

    def test_gaussian_printed_form_uses_plain_norm(self):
        # default numerator is the distance itself, not its square
        w = weights_at(WeightSpec.gaussian(0.5), [0.0], [2.0])[0]
        assert w == pytest.approx(math.exp(-2.0 / (2 * 0.25)), rel=1e-15)

    def test_gaussian_squared_norm_switch(self):
        w = weights_at(WeightSpec.gaussian(0.5, squared_norm=True), [0.0], [2.0])[0]
        assert w == pytest.approx(math.exp(-4.0 / (2 * 0.25)), rel=1e-15)

    def test_exponential(self):
        w = weights_at(WeightSpec.exponential(0.7), [1.0], [3.0])[0]
        assert w == pytest.approx(math.exp(-2.0 / (math.sqrt(2) * 0.7)), rel=1e-15)

    def test_characteristic_closed_ball(self):
        # the ball is closed: a point exactly at distance r is inside
        w = weights_at(WeightSpec.characteristic(2.0), [0.0], [2.0, 2.0000001, -2.0])
        assert np.array_equal(w, [1.0, 0.0, 1.0])


class TestKnn:
    def test_three_point_example(self):
        # k = 2 around u = 0 selects x = 0 and x = 1
        w = weights_at(WeightSpec.knn(2), [0.0], [0.0, 1.0, 2.0])
        assert np.array_equal(w, [0.5, 0.5, 0.0])

    def test_cloud_weights_sum_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 60))
            pts = rng.uniform(-5, 5, size=(n, int(rng.integers(1, 3))))
            cloud = cloud_of(pts)
            k = int(rng.integers(1, n + 1))
            u = rng.uniform(-5, 5, size=pts.shape[1])
            idx, w = cloud_weights(WeightSpec.knn(k), u, cloud)
            assert len(idx) == k
            assert math.fsum(w) == 1.0

    def test_clamp_warns(self):
        cloud = cloud_of([0.0, 1.0])
        with pytest.warns(UserWarning, match="clamped"):
            idx, w = cloud_weights(WeightSpec.knn(5), [0.0], cloud)
        assert len(idx) == 2
        assert np.all(w == 0.5)


class TestIdw:
    def test_inverse_distance_when_no_coincidence(self):
        w = weights_at(WeightSpec.idw(), [0.0], [1.0, 3.0])
        assert w[0] == 1.0
        assert w[1] == pytest.approx(1 / 3)

    def test_coincidence_takes_all_mass(self):
        cloud = cloud_of([0.0, 0.0, 2.0])
        idx, w = cloud_weights(WeightSpec.idw(), [0.0], cloud)
        assert np.array_equal(idx, [0, 1])
        assert np.all(w == 0.5)


finite = st.floats(-20, 20, allow_nan=False)


@st.composite
def specs(draw):
    family = draw(st.sampled_from(["knn", "characteristic", "gaussian",
                                   "exponential", "idw"]))
    if family == "knn":
        return WeightSpec.knn(draw(st.integers(1, 10)))
    if family == "characteristic":
        return WeightSpec.characteristic(draw(st.floats(0.01, 30)))
    if family == "gaussian":
        return WeightSpec.gaussian(draw(st.floats(0.05, 5)), draw(st.booleans()))
    if family == "exponential":
        return WeightSpec.exponential(draw(st.floats(0.05, 5)))
    return WeightSpec.idw()


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(specs(), st.lists(finite, min_size=1, max_size=40), finite)
    @example(WeightSpec.idw(), [2.29e-309], 0.0).via("gap squared underflows to 0")
    def test_nonnegative_and_matches_full_scan(self, spec, xs, at):
        pts = np.array(xs).reshape(-1, 1)
        cloud = cloud_of(pts)
        u = np.array([at])
        k = spec.k if spec.family == "knn" else None
        if k is not None and k > len(pts):
            return  # clamping covered elsewhere
        idx, w = cloud_weights(spec, u, cloud)
        assert np.all(w >= 0)
        dense = np.zeros(len(pts))
        dense[idx] = w
        params = {"k": spec.k, "r": spec.r, "sigma": spec.sigma,
                  "squared_norm": spec.gaussian_squared_norm}
        ref = brute_weight_vector(spec.family, params, u, pts)
        assert np.allclose(dense, ref, rtol=0, atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(specs(), st.lists(finite, min_size=1, max_size=30),
           st.lists(finite | st.sampled_from([0.0, 1.0]), max_size=6))
    def test_block_rows_match_single_anchors(self, spec, xs, anchors):
        cloud = cloud_of(np.array(xs + [0.0, 1.0]))  # coincident idw anchors possible
        if spec.family == "knn" and spec.k > cloud.n:
            return  # clamping covered elsewhere
        block = np.array(anchors).reshape(-1, 1)
        indptr, idx, w = cloud_weights(spec, block, cloud)
        assert len(indptr) == len(block) + 1
        for j, u in enumerate(block):
            one_idx, one_w = cloud_weights(spec, u, cloud)
            assert np.array_equal(idx[indptr[j]:indptr[j + 1]], one_idx)
            assert np.array_equal(w[indptr[j]:indptr[j + 1]], one_w)

    @pytest.mark.parametrize("spec", [WeightSpec.knn(3), WeightSpec.characteristic(0.5),
                                      WeightSpec.gaussian(0.3), WeightSpec.exponential(0.3),
                                      WeightSpec.idw()], ids=lambda s: s.family)
    def test_anchor_dimension_checked(self, spec):
        # the unbounded families used to broadcast a 1-D anchor over a 2-D cloud
        cloud = cloud_of(np.random.default_rng(1).uniform(0, 1, (50, 2)))
        with pytest.raises(ValueError, match="query dimension 1 != tree dimension 2"):
            estimate_control_point(cloud, spec, [0.5])


class TestScanKernel:
    """The in-place kernel chain gives the bits of the oracle's closed forms."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("spec", [WeightSpec.gaussian(0.1), WeightSpec.gaussian(0.1, True),
                                      WeightSpec.gaussian(0.7, True),
                                      WeightSpec.exponential(0.05), WeightSpec.exponential(0.4),
                                      WeightSpec.idw()],
                             ids=lambda s: s.label())
    def test_rows_equal_the_closed_forms(self, d, spec):
        rng = np.random.default_rng(10 + d)
        near = rng.uniform(-1, 1, (150, d))
        far = rng.uniform(500, 600, (30, d))  # gaussian and exponential weights underflow to 0
        huge = np.full((2, d), 3e155)  # d2 overflows: weight 0 for every family
        x = np.vstack([near, far, huge, near[:3]])  # duplicates of cloud rows
        cloud = cloud_of(x)
        anchors = np.vstack([near[0], near[5], far[0], rng.uniform(-1, 1, (4, d)), huge[0]])
        params = {"sigma": spec.sigma, "squared_norm": spec.gaussian_squared_norm}
        for u in anchors:  # near[0] and near[5] coincide with rows: idw's uniform case
            idx, w = cloud_weights(spec, u, cloud)
            want = brute_weight_vector(spec.family, params, u, x)
            assert np.array_equal(idx, np.flatnonzero(want))
            assert np.array_equal(w, want[idx])
        idx, _ = cloud_weights(spec, near[1], cloud)
        if spec.family != "idw":  # the underflow filter dropped the far rows
            assert not np.isin(np.arange(150, 180), idx).any()
