"""Weight families: closed forms and neighbor semantics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wqisa import (PointCloud, WeightSpec, cloud_weights, estimate_control_point,
                   parse_weight)
from wqisa.weights import FAMILIES

from _oracles import brute_weight_vector


def cloud_of(x):
    x = np.asarray(x, dtype=float)
    return PointCloud(x, np.zeros(len(x)))


def one_row(spec, u, cloud):
    """(indices, weights) of the one CSR row cloud_weights gives the block
    [u]."""
    indptr, idx, w = cloud_weights(spec, np.reshape(u, (1, -1)), cloud)
    assert np.array_equal(indptr, [0, len(idx)])
    return idx, w


def weights_at(spec, u, xs):
    """Dense weight vector of the cloud xs against anchor u."""
    idx, w = one_row(spec, u, cloud_of(xs))
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

    @pytest.mark.parametrize("make, key", [
        (lambda: WeightSpec.gaussian(math.nan), "sigma"),
        (lambda: WeightSpec.gaussian(math.inf), "sigma"),
        (lambda: WeightSpec.exponential(math.nan), "sigma"),
        (lambda: WeightSpec.characteristic(math.inf), "r"),
        (lambda: WeightSpec.characteristic(math.nan), "r"),
        (lambda: WeightSpec.knn(math.inf), "k"),
        (lambda: WeightSpec.knn(2.5), "k"),
        # finite sigmas whose kernel scale, 2 sigma^2 or sqrt(2) sigma, is 0 or inf
        (lambda: WeightSpec.gaussian(1e-200), "sigma"),
        (lambda: WeightSpec.gaussian(1e200), "sigma"),
        (lambda: WeightSpec.gaussian(1e200, squared_norm=True), "sigma"),
        (lambda: WeightSpec.exponential(1.7e308), "sigma"),
    ])
    def test_non_finite_params_name_the_key(self, make, key):
        with pytest.raises(ValueError, match=rf"\b{key} > 0"):
            make()

    @pytest.mark.parametrize("kwargs, field", [
        (dict(family="knn", k=3, sigma=0.5), "'sigma'"),
        (dict(family="idw", gaussian_squared_norm=True), "'gaussian_squared_norm'"),
        (dict(family="exponential", sigma=0.5, gaussian_squared_norm=True),
         "'gaussian_squared_norm'"),
        (dict(family="characteristic", r=0.5, k=0), "'k'"),
    ])
    def test_parameter_of_another_family_named(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            WeightSpec(**kwargs)


class TestDescriptors:
    @pytest.mark.parametrize("spec, text", [
        (WeightSpec.knn(10), "knn:k=10"),
        (WeightSpec.gaussian(0.1), "gaussian:sigma=0.1"),
        (WeightSpec.characteristic(0.1), "characteristic:r=0.1"),
        (WeightSpec.gaussian(0.1, squared_norm=True), "gaussian:sigma=0.1,squared_norm=1"),
        (WeightSpec.exponential(0.25), "exponential:sigma=0.25"),
        (WeightSpec.idw(), "idw"),
    ])
    def test_label_bytes_and_parse(self, spec, text):
        assert spec.label() == text
        assert parse_weight(text) == spec

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_parse_reads_label_back(self, data):
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        # kernel scales 2 sigma^2 and sqrt(2) sigma stay positive and finite
        squarable = st.floats(min_value=1e-160, max_value=9e153)
        scalable = st.floats(min_value=0.0, exclude_min=True, max_value=1.27e308)
        spec = data.draw(st.one_of(
            st.integers(1, 10**9).map(WeightSpec.knn),
            positive.map(WeightSpec.characteristic),
            st.builds(WeightSpec.gaussian, squarable, st.booleans()),
            scalable.map(WeightSpec.exponential),
            st.just(WeightSpec.idw())))
        assert parse_weight(spec.label()) == spec

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(FAMILIES), st.fixed_dictionaries({}, optional={
        key: st.none() | st.integers(-2, 10**6) | st.floats() for key in ("k", "r", "sigma")
    } | {"gaussian_squared_norm": st.booleans()}))
    def test_constructor_keywords_raise_or_round_trip(self, family, kwargs):
        try:
            spec = WeightSpec(family, **kwargs)
        except ValueError:
            return
        assert parse_weight(spec.label()) == spec

    @pytest.mark.parametrize("text, spec", [
        (" knn : k = 9 ", WeightSpec.knn(9)),
        ("idw:", WeightSpec.idw()),
        ("gaussian:sigma=0.5,squared_norm=yes", WeightSpec.gaussian(0.5, True)),
        ("gaussian:squared_norm=false,sigma=0.5", WeightSpec.gaussian(0.5)),
        ("characteristic:r=1e-3", WeightSpec.characteristic(0.001)),
        ("exponential:sigma=1e308", WeightSpec.exponential(1e308)),  # sqrt(2) sigma: 1.41e308
        ("gaussian:sigma=1e-160", WeightSpec.gaussian(1e-160)),  # 2 sigma^2: 2e-320
    ])
    def test_accepted_spellings(self, text, spec):
        assert parse_weight(text) == spec

    @pytest.mark.parametrize("text, key", [
        ("knn:k=9,r=3", "'r'"),
        ("idw:k=3", "'k'"),
        ("exponential:sigma=0.4,squared_norm=1", "'squared_norm'"),
        ("knn:k=9,k=9", "'k'"),
        ("gaussian:sigma=0.4,sigma=0.5", "'sigma'"),
        ("knn:k", "'k'"),
        ("knn:k=9.5", "'k'"),
        ("characteristic:r=wide", "'r'"),
        ("gaussian:sigma=0.4,squared_norm=2", "'squared_norm'"),
        ("gaussian:sigma=0.4,squared_norm=True", "'squared_norm'"),
        ("gaussian:sigma=nan", r"\bsigma > 0"),
        ("gaussian:sigma=inf", r"\bsigma > 0"),
        ("characteristic:r=nan", r"\br > 0"),
        ("exponential:sigma=-inf", r"\bsigma > 0"),
        ("gaussian:sigma=1e-200", r"\bsigma > 0 whose kernel scale 2 sigma\^2"),
        ("gaussian:sigma=1e200", r"\bsigma > 0 whose kernel scale 2 sigma\^2"),
        ("exponential:sigma=1.7e308", r"\bsigma > 0 whose kernel scale sqrt\(2\) sigma"),
        ("knn", r"\bk > 0"),
        ("cosine:k=3", "'cosine'"),
        # a descriptor that is no str once failed on its missing .strip()
        (5, "^weight must be a descriptor string, got 5$"),
        (None, "^weight must be a descriptor string, got None$"),
    ])
    def test_rejections_name_the_key(self, text, key):
        with pytest.raises(ValueError, match=key):
            parse_weight(text)


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
            idx, w = one_row(WeightSpec.knn(k), u, cloud)
            assert len(idx) == k
            assert math.fsum(w) == 1.0

    def test_clamp_warns(self):
        cloud = cloud_of([0.0, 1.0])
        with pytest.warns(UserWarning, match="clamped"):
            idx, w = one_row(WeightSpec.knn(5), [0.0], cloud)
        assert len(idx) == 2
        assert np.all(w == 0.5)


class TestIdw:
    def test_inverse_distance_when_no_coincidence(self):
        w = weights_at(WeightSpec.idw(), [0.0], [1.0, 3.0])
        assert w[0] == 1.0
        assert w[1] == pytest.approx(1 / 3)

    def test_coincidence_takes_all_mass(self):
        cloud = cloud_of([0.0, 0.0, 2.0])
        idx, w = one_row(WeightSpec.idw(), [0.0], cloud)
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
        idx, w = one_row(spec, u, cloud)
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
            one_idx, one_w = one_row(spec, u, cloud)
            assert np.array_equal(idx[indptr[j]:indptr[j + 1]], one_idx)
            assert np.array_equal(w[indptr[j]:indptr[j + 1]], one_w)

    @pytest.mark.parametrize("spec", [WeightSpec.knn(3), WeightSpec.characteristic(0.5),
                                      WeightSpec.gaussian(0.3), WeightSpec.exponential(0.3),
                                      WeightSpec.idw()], ids=lambda s: s.family)
    def test_anchor_dimension_checked(self, spec):
        # the unbounded families used to broadcast a 1-D anchor over a 2-D
        # cloud, and the estimator read a (2, 1) column as one 2-D anchor
        cloud = cloud_of(np.random.default_rng(1).uniform(0, 1, (50, 2)))
        with pytest.raises(ValueError, match="point dimension 1 != expected dimension 2"):
            estimate_control_point(cloud, spec, [[0.5], [0.25]])
        with pytest.raises(ValueError, match=r"\(m, d\) block, got shape \(2,\)"):
            cloud_weights(spec, [0.5, 0.5], cloud)
        with pytest.raises(ValueError, match="NaN"):
            cloud_weights(spec, [[0.5, np.nan]], cloud)

    @pytest.mark.parametrize("spec", [WeightSpec.knn(3), WeightSpec.characteristic(0.5),
                                      WeightSpec.gaussian(0.3), WeightSpec.exponential(0.3),
                                      WeightSpec.idw()], ids=lambda s: s.family)
    def test_infinite_anchor_rejected(self, spec):
        # knn once averaged the first k rows here, gaussian raised
        # EmptySupportError and a ball returned an empty row
        cloud = cloud_of(np.random.default_rng(1).uniform(0, 1, (200, 2)))
        with pytest.raises(ValueError, match=r"finite, not NaN or inf, got \[inf, 0.0\] at row 0"):
            estimate_control_point(cloud, spec, [[np.inf, 0.0]])
        with pytest.raises(ValueError, match=r"got \[0.5, -inf\] at row 1"):
            cloud_weights(spec, [[0.5, 0.5], [0.5, -np.inf]], cloud)


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
            idx, w = one_row(spec, u, cloud)
            want = brute_weight_vector(spec.family, params, u, x)
            assert np.array_equal(idx, np.flatnonzero(want))
            assert np.array_equal(w, want[idx])
        idx, _ = one_row(spec, near[1], cloud)
        if spec.family != "idw":  # the underflow filter dropped the far rows
            assert not np.isin(np.arange(150, 180), idx).any()
