"""Spatial index: exact agreement with linear scans."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wqisa import KdTree, kdtree
from wqisa.fitting import SITE_BLOCK
from wqisa.kdtree import squared_distances

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


@st.composite
def lattice_clouds(draw):
    """Tie-heavy clouds: up to 300 points of a small integer lattice, so
    most coordinates repeat and many points coincide."""
    d = draw(st.integers(1, 3))
    side = draw(st.integers(1, 6))
    shape = (draw(st.integers(1, 300)), d)
    return draw(hnp.arrays(np.int8, shape, elements=st.integers(0, side - 1))).astype(float)


class TestKnn:
    @settings(max_examples=120, deadline=None)
    @given(clouds(), st.data())
    def test_matches_linear_scan(self, pts, data):
        tree = KdTree(pts)
        k = data.draw(st.integers(1, len(pts)))
        u = np.array([data.draw(finite) for _ in range(pts.shape[1])])
        got = tree.knn(u[None], k)
        assert got.shape == (1, k)
        assert np.array_equal(got[0], brute_knn(pts, u, k))

    def test_tie_break_by_index(self):
        pts = np.array([[1.0], [-1.0], [1.0], [0.5]])
        tree = KdTree(pts)
        # distances from 0: 1, 1, 1, 0.5; ties at distance 1 resolved 0 then 1
        assert np.array_equal(tree.knn([[0.0]], 3), [[3, 0, 1]])

    def test_duplicates_returned_before_farther_points(self):
        pts = np.array([[0.0, 0.0]] * 5 + [[2.0, 0.0]])
        tree = KdTree(pts)
        assert np.array_equal(tree.knn([[0.1, 0.0]], 6), [[0, 1, 2, 3, 4, 5]])

    def test_k_out_of_range(self):
        tree = KdTree(np.arange(5.0))
        with pytest.raises(ValueError):
            tree.knn([[0.0]], 0)
        with pytest.raises(ValueError):
            tree.knn([[0.0]], 6)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", None])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            KdTree(np.arange(5.0)).knn([[0.0]], k)

    def test_large_tree_spot_check(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(4000, 2))
        tree = KdTree(pts)
        for _ in range(25):
            u = rng.uniform(-1.2, 1.2, size=2)
            k = int(rng.integers(1, 40))
            assert np.array_equal(tree.knn(u[None], k), [brute_knn(pts, u, k)])


class TestRadius:
    @settings(max_examples=120, deadline=None)
    @given(clouds(), st.data())
    def test_matches_linear_scan(self, pts, data):
        tree = KdTree(pts)
        u = np.array([data.draw(finite) for _ in range(pts.shape[1])])
        r = data.draw(st.floats(0, 50))
        indptr, got = tree.radius_query(u[None], r)
        want = brute_radius(pts, u, r)
        assert np.array_equal(indptr, [0, len(want)])
        assert np.array_equal(got, np.sort(want))

    def test_closed_ball_includes_boundary(self):
        pts = np.array([[0.0], [3.0], [4.0]])
        tree = KdTree(pts)
        assert np.array_equal(tree.radius_query([[0.0]], 3.0)[1], [0, 1])

    def test_empty_result(self):
        tree = KdTree(np.array([[0.0], [1.0]]))
        indptr, rows = tree.radius_query([[10.0]], 0.5)
        assert np.array_equal(indptr, [0, 0]) and len(rows) == 0

    def test_negative_radius_rejected(self):
        tree = KdTree(np.array([[0.0]]))
        with pytest.raises(ValueError, match="radius r must be >= 0"):
            tree.radius_query([[0.0]], -1.0)

    def test_nan_radius_rejected(self):
        # r < 0 is false for NaN: the check must not let it through
        tree = KdTree(np.array([[0.0]]))
        with pytest.raises(ValueError, match="radius r must be >= 0, got nan"):
            tree.radius_query([[0.0]], np.nan)


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


def lattice(n=300, seed=8):
    """Points on a small integer lattice: many duplicates and many equal
    distances from lattice and half-lattice queries."""
    rng = np.random.default_rng(seed)
    return rng.integers(-4, 5, size=(n, 2)).astype(float)


class TestPackedKeys:
    """The (query, rank of d2, row) and (query, row) key sorts give the
    brute-force order on ties, for one query, a partial and a full block,
    and when a block's keys would reach KEY_LIMIT."""

    @pytest.mark.parametrize("m", [1, 37, SITE_BLOCK])
    def test_ties_and_duplicates_match_the_scans(self, m):
        pts = lattice()
        rng = np.random.default_rng(m)
        queries = rng.integers(-10, 11, size=(m, 2)) / 2.0
        tree = KdTree(pts)
        for k in (1, 7, 40, len(pts)):
            got = tree.knn(queries, k)
            assert got.shape == (m, k)
            for u, row in zip(queries, got):
                assert np.array_equal(row, brute_knn(pts, u, k))
        for r in (0.0, 1.0, 2.0, 2.5):
            indptr, indices = tree.radius_query(queries, r)
            for j, u in enumerate(queries):
                assert np.array_equal(indices[indptr[j]:indptr[j + 1]], brute_radius(pts, u, r))

    @pytest.mark.parametrize("limit", [1, SITE_BLOCK * 300])  # 300 = len(lattice())
    def test_blocks_past_the_key_limit_are_answered_in_halves(self, monkeypatch, limit):
        pts = lattice()
        queries = np.random.default_rng(3).integers(-10, 11, size=(SITE_BLOCK, 2)) / 2.0
        tree = KdTree(pts)
        whole_knn, whole_radius = tree.knn(queries, 12), tree.radius_query(queries, 2.0)
        blocks = []
        within = KdTree._within
        monkeypatch.setattr(KdTree, "_within", lambda self, q, b: blocks.append(len(q))
                            or within(self, q, b))
        monkeypatch.setattr(kdtree, "KEY_LIMIT", limit)
        got = tree.knn(queries, 12)
        assert len(blocks) > 1 and sum(blocks) >= SITE_BLOCK
        assert np.array_equal(got, whole_knn)
        for u, row in zip(queries, got):
            assert np.array_equal(row, brute_knn(pts, u, 12))
        blocks.clear()
        indptr, indices = tree.radius_query(queries, 2.0)
        assert len(blocks) > 1 and sum(blocks) == SITE_BLOCK
        assert np.array_equal(indptr, whole_radius[0])
        assert np.array_equal(indices, whole_radius[1])
        for j, u in enumerate(queries):
            assert np.array_equal(indices[indptr[j]:indptr[j + 1]], brute_radius(pts, u, 2.0))


def descent_bound(tree, pts, u, k):
    """_knn_bound read the long way: walk u down to the deepest node that
    still holds k points, and sort the d2 of all its points."""
    node = 0
    while tree._left[node] >= 0:
        child = tree._left[node] + (u[tree._axis[node]] >= tree._split[node])
        if tree._end[child] - tree._start[child] < k:
            break
        node = child
    own = pts[tree._perm[tree._start[node]:tree._end[node]]]
    return np.sort(squared_distances(own, u))[k - 1]


class TestKnnBound:
    @settings(max_examples=150, deadline=None)
    @given(lattice_clouds(), st.data())
    def test_matches_the_sorted_descent_node(self, pts, data):
        k = data.draw(st.just(len(pts)) | st.integers(1, len(pts)))
        m = data.draw(st.integers(0, 12))
        coords = st.integers(-2, 2 * int(pts.max()) + 4).map(lambda c: c / 2.0)  # half-lattice
        queries = np.array(data.draw(st.lists(st.tuples(*[coords] * pts.shape[1]),
                                              min_size=m, max_size=m))).reshape(m, pts.shape[1])
        tree = KdTree(pts)
        got = tree._knn_bound(queries, k)
        assert got.shape == (m,)
        want = [descent_bound(tree, pts, u, k) for u in queries]
        assert np.array_equal(got, np.array(want, dtype=float))

    @pytest.mark.parametrize("k", [1, 5, 300])
    def test_empty_block(self, k):
        tree = KdTree(lattice())
        assert tree._knn_bound(np.empty((0, 2)), k).shape == (0,)
        assert tree.knn(np.empty((0, 2)), k).shape == (0, k)


class TestBuild:
    @settings(max_examples=150, deadline=None)
    @given(lattice_clouds())
    def test_nodes_partition_the_points(self, pts):
        # pins the layout the queries rely on, whatever order the sorts
        # leave tied coordinates in
        tree = KdTree(pts)
        perm, start, end, left = tree._perm, tree._start, tree._end, tree._left
        assert np.array_equal(np.sort(perm), np.arange(len(pts)))
        assert (start[0], end[0]) == (0, len(pts))
        for node in range(len(start)):
            own = pts[perm[start[node]:end[node]]]
            assert np.array_equal(tree._lo[node], own.min(axis=0))
            assert np.array_equal(tree._hi[node], own.max(axis=0))
            child = left[node]
            if child < 0:
                assert len(own) <= kdtree.LEAF_SIZE or (own == own[0]).all()
                continue
            mid = start[node] + (end[node] - start[node]) // 2
            assert (start[child], end[child]) == (start[node], mid)
            assert (start[child + 1], end[child + 1]) == (mid, end[node])
            axis, split = tree._axis[node], tree._split[node]
            assert (pts[perm[start[node]:mid], axis] <= split).all()
            assert (pts[perm[mid:end[node]], axis] >= split).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KdTree(np.empty((0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.arange(10.0).reshape(5, 2)
        pts[3, 1] = bad
        match = rf"point coordinates must be finite, not NaN or inf, got \[6.0, {bad}\] at row 3"
        with pytest.raises(ValueError, match=match):
            KdTree(pts)

    def test_single_point(self):
        tree = KdTree(np.array([[1.0, 2.0]]))
        assert np.array_equal(tree.knn([[0.0, 0.0]], 1), [[0]])

    def test_all_duplicates(self):
        pts = np.zeros((50, 2))
        tree = KdTree(pts)
        assert np.array_equal(tree.knn([[0.0, 0.0]], 5), [[0, 1, 2, 3, 4]])
        assert np.array_equal(tree.radius_query([[0.0, 0.0]], 0.0)[0], [0, 50])

    def test_query_dimension_checked(self):
        tree = KdTree(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="point dimension 1 != expected dimension 2"):
            tree.knn([[0.0]], 1)

    @pytest.mark.parametrize("u", [[0.0, 0.0], 0.0, [[[0.0, 0.0]]]])
    def test_queries_must_be_a_block(self, u):
        tree = KdTree(np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"\(m, d\) block"):
            tree.knn(u, 1)
        with pytest.raises(ValueError, match=r"\(m, d\) block"):
            tree.radius_query(u, 1.0)

    def test_nan_query_rejected(self):
        tree = KdTree(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="NaN"):
            tree.knn([[0.0, 0.0], [np.nan, 0.0]], 1)
        with pytest.raises(ValueError, match="NaN"):
            tree.radius_query([[np.nan, 0.0]], 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_named(self, bad):
        # a query at infinity once took the lowest-index rows as its nearest
        tree = KdTree(np.arange(10.0).reshape(5, 2))
        block = [[0.0, 0.0], [bad, 0.0]]
        match = rf"must be finite, not NaN or inf, got \[{bad}, 0.0\] at row 1"
        with pytest.raises(ValueError, match=match):
            tree.knn(block, 1)
        with pytest.raises(ValueError, match=match):
            tree.radius_query(block, 1.0)


class TestSquaredDistances:
    """The one d2 kernel: axis-order sums, the bits of numpy's reduction
    below 8 axes, and inf without a warning past ~1.3e154."""

    @pytest.mark.parametrize("d", range(1, 8))
    @pytest.mark.parametrize("scale", [1e-160, 1.0, 1e3, 1e150])
    def test_bits_of_the_axis_reduction(self, d, scale):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((300, d)) * scale * rng.uniform(0.01, 100.0, d)
        a[1] = a[0]  # a duplicate: d2 exactly 0
        b = rng.standard_normal(d) * scale
        with np.errstate(over="ignore"):
            assert np.array_equal(squared_distances(a, b), ((a - b) ** 2).sum(axis=-1))
            pairs = squared_distances(a[:40, None, :], a[None, :, :])
            assert np.array_equal(pairs, ((a[:40, None, :] - a[None, :, :]) ** 2).sum(axis=-1))
            assert pairs.shape == (40, 300)
            assert squared_distances(a[0], a[1]) == 0.0

    def test_huge_gaps_give_inf_without_a_warning(self):
        a = np.array([[0.0, 0.0], [1e155, 0.0], [0.0, -1e155], [1e155, 1e155]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d2 = squared_distances(a, np.zeros(2))
            far = squared_distances(np.array([[1e155]]), np.array([-1e155]))
        assert d2[0] == 0.0 and np.all(np.isinf(d2[1:])) and not np.isnan(d2).any()
        assert np.isinf(far).all()
