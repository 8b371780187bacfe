"""Spatial index: exact agreement with linear scans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqisa import KdTree

from _oracles import brute_knn, brute_radius


finite = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


@st.composite
def clouds(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 120))
    base = draw(st.lists(st.tuples(*[finite] * d), min_size=n, max_size=n))
    pts = np.array(base)
    if draw(st.booleans()) and n >= 2:
        pts[1] = pts[0]  # force a duplicate
    return pts


class TestKnn:
    @settings(max_examples=120, deadline=None)
    @given(clouds(), st.data())
    def test_matches_linear_scan(self, pts, data):
        tree = KdTree(pts)
        k = data.draw(st.integers(1, len(pts)))
        u = np.array([data.draw(finite) for _ in range(pts.shape[1])])
        got = tree.knn(u, k)
        want = brute_knn(pts, u, k)
        assert np.array_equal(got, want)

    def test_tie_break_by_index(self):
        pts = np.array([[1.0], [-1.0], [1.0], [0.5]])
        tree = KdTree(pts)
        # distances from 0: 1, 1, 1, 0.5; ties at distance 1 resolved 0 then 1
        assert np.array_equal(tree.knn([0.0], 3), [3, 0, 1])

    def test_duplicates_returned_before_farther_points(self):
        pts = np.array([[0.0, 0.0]] * 5 + [[2.0, 0.0]])
        tree = KdTree(pts)
        assert np.array_equal(tree.knn([0.1, 0.0], 6), [0, 1, 2, 3, 4, 5])

    def test_k_out_of_range(self):
        tree = KdTree(np.arange(5.0))
        with pytest.raises(ValueError):
            tree.knn([0.0], 0)
        with pytest.raises(ValueError):
            tree.knn([0.0], 6)

    def test_large_tree_spot_check(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(4000, 2))
        tree = KdTree(pts)
        for _ in range(25):
            u = rng.uniform(-1.2, 1.2, size=2)
            k = int(rng.integers(1, 40))
            assert np.array_equal(tree.knn(u, k), brute_knn(pts, u, k))


class TestRadius:
    @settings(max_examples=120, deadline=None)
    @given(clouds(), st.data())
    def test_matches_linear_scan(self, pts, data):
        tree = KdTree(pts)
        u = np.array([data.draw(finite) for _ in range(pts.shape[1])])
        r = data.draw(st.floats(0, 50))
        got = tree.radius_query(u, r)
        want = brute_radius(pts, u, r)
        assert np.array_equal(got, np.sort(want))

    def test_closed_ball_includes_boundary(self):
        pts = np.array([[0.0], [3.0], [4.0]])
        tree = KdTree(pts)
        assert np.array_equal(tree.radius_query([0.0], 3.0), [0, 1])

    def test_empty_result(self):
        tree = KdTree(np.array([[0.0], [1.0]]))
        assert len(tree.radius_query([10.0], 0.5)) == 0

    def test_negative_radius_rejected(self):
        tree = KdTree(np.array([[0.0]]))
        with pytest.raises(ValueError):
            tree.radius_query([0.0], -1.0)


# coordinate families for batched queries: ordinary values, subnormals, and
# values around 1e150 whose squared gaps overflow to inf so that ties fall
# back to the index
COORDS = {
    "plain": st.floats(-100, 100),
    "subnormal": st.floats(-1e-306, 1e-306) | st.sampled_from([0.0, 5e-324, -5e-324, 1e-310]),
    "huge": st.sampled_from([-3e155, -1e154, -1e150, 0.0, 1e150, 2e154, 3e155]),
}


@st.composite
def query_blocks(draw):
    """(points, queries): duplicates, an all-equal axis and queries outside
    the bounding box included."""
    coord = COORDS[draw(st.sampled_from(sorted(COORDS)))]
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 80))
    pts = np.array(draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n)))
    if n >= 2 and draw(st.booleans()):
        pts[1] = pts[0]
    if draw(st.booleans()):
        axis = draw(st.integers(0, d - 1))
        pts[:, axis] = pts[0, axis]
    m = draw(st.integers(0, 12))
    queries = np.array(draw(st.lists(st.tuples(*[coord] * d), min_size=m, max_size=m)))
    queries = queries.reshape(m, d) * draw(st.sampled_from([1.0, 4.0]))
    return pts, queries


class TestBatch:
    @settings(max_examples=150, deadline=None)
    @given(query_blocks(), st.data())
    def test_knn_rows_match_linear_scan(self, block, data):
        pts, queries = block
        k = data.draw(st.just(len(pts)) | st.integers(1, len(pts)))
        got = KdTree(pts).knn(queries, k)
        assert got.shape == (len(queries), k)
        for u, row in zip(queries, got):
            assert np.array_equal(row, brute_knn(pts, u, k))

    @settings(max_examples=150, deadline=None)
    @given(query_blocks(), st.data())
    def test_radius_rows_match_linear_scan(self, block, data):
        pts, queries = block
        r = data.draw(st.just(0.0) | st.floats(0, 50) | st.sampled_from([1e150, 1e155]))
        indptr, indices = KdTree(pts).radius_query(queries, r)
        assert len(indptr) == len(queries) + 1
        for j, u in enumerate(queries):
            got = indices[indptr[j]:indptr[j + 1]]
            assert np.array_equal(got, brute_radius(pts, u, r))


class TestBuild:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KdTree(np.empty((0, 2)))

    def test_single_point(self):
        tree = KdTree(np.array([[1.0, 2.0]]))
        assert np.array_equal(tree.knn([0.0, 0.0], 1), [0])

    def test_all_duplicates(self):
        pts = np.zeros((50, 2))
        tree = KdTree(pts)
        assert np.array_equal(tree.knn([0.0, 0.0], 5), [0, 1, 2, 3, 4])
        assert len(tree.radius_query([0.0, 0.0], 0.0)) == 50

    def test_query_dimension_checked(self):
        tree = KdTree(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            tree.knn([0.0], 1)

    def test_nan_query_rejected(self):
        tree = KdTree(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="NaN"):
            tree.knn([[0.0, 0.0], [np.nan, 0.0]], 1)
        with pytest.raises(ValueError, match="NaN"):
            tree.radius_query([np.nan, 0.0], 1.0)
