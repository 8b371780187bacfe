"""Spline core: knot vectors, basis evaluation, averages, insertion."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wqisa import (DomainError, KnotVector, SplineFunction, TensorSplineSpace,
                   insert_knot, knot_averages, make_uniform_regular, spline_eval)

from wqisa.splines import EVAL_BLOCK, _combine, _windows

from _oracles import dense_blend_insert, full_sum_eval, naive_bspline


def random_regular_kv(rng, a=None, b=None, p=None, n=None, repeated=False):
    p = int(rng.integers(1, 4)) if p is None else p
    n = int(rng.integers(p + 1, p + 8)) if n is None else n
    a = float(rng.uniform(-3, 0)) if a is None else a
    b = a + float(rng.uniform(0.5, 4)) if b is None else b
    interior = np.sort(rng.uniform(a, b, size=n - p - 1))
    if repeated and len(interior) >= 2:
        interior[1] = interior[0]  # multiplicity 2 somewhere
    knots = np.concatenate([np.full(p + 1, a), interior, np.full(p + 1, b)])
    return KnotVector(p, knots)


class TestKnotVector:
    def test_uniform_regular_examples(self):
        assert np.array_equal(make_uniform_regular(0, 1, 3, 2).knots,
                              [0, 0, 0, 1, 1, 1])
        assert np.array_equal(make_uniform_regular(0, 2, 4, 2).knots,
                              [0, 0, 0, 1, 2, 2, 2])
        assert np.array_equal(make_uniform_regular(0, 1, 5, 1).knots,
                              [0, 0, 0.25, 0.5, 0.75, 1, 1])

    def test_uniform_regular_is_regular(self):
        kv = make_uniform_regular(-1.5, 2.5, 9, 3)
        assert kv.is_regular
        assert kv.n == 9
        assert kv.domain == (-1.5, 2.5)

    def test_invalid_domain(self):
        with pytest.raises(DomainError):
            make_uniform_regular(1, 1, 5, 2)
        with pytest.raises(DomainError):
            make_uniform_regular(2, 1, 5, 2)
        # interior knots that round onto their neighbours
        with pytest.raises(DomainError, match="too narrow for 2 distinct knot spans"):
            make_uniform_regular(0.0, 5e-324, 3, 1)
        with pytest.raises(DomainError, match="too narrow"):
            make_uniform_regular(1e150, np.nextafter(1e150, 2e150), 6, 1)

    @pytest.mark.parametrize("a, b", [(-np.inf, 1.0), (0.0, np.inf), (-1e308, 1e308),
                                      (np.float64(-1e308), np.float64(1e308))])
    def test_bounds_without_a_finite_width_rejected(self, a, b):
        # the width, not just the ends: linspace over [-1e308, 1e308]
        # overflows, and an infinite end once warned and made inf knots
        with pytest.raises(DomainError) as exc:
            make_uniform_regular(a, b, 8, 2)
        assert str(exc.value) == (f"[{float(a)!r}, {float(b)!r}] has width b - a = inf, "
                                  "not a finite float")

    @pytest.mark.parametrize("knots, bad", [
        ([-np.inf] * 3 + [0.5, 1.0, 1.0, 1.0], "[-inf, -inf, -inf]"),
        ([0.0] * 3 + [np.nan, 1.0, 1.0, 1.0], "[nan]"),
        ([0.0] * 3 + [0.5] + [np.inf] * 3, "[inf, inf, inf]"),
    ])
    def test_knots_must_be_finite(self, knots, bad):
        with pytest.raises(ValueError) as exc:
            KnotVector(2, knots)
        assert str(exc.value) == f"knots must be finite, got {bad}"

    def test_too_few_functions(self):
        with pytest.raises(ValueError):
            make_uniform_regular(0, 1, 2, 2)

    def test_nondecreasing_enforced(self):
        with pytest.raises(ValueError):
            KnotVector(1, [0, 1, 0.5, 2])

    def test_multiplicity_cap(self):
        with pytest.raises(ValueError):
            KnotVector(1, [0, 0, 0, 1, 1])  # multiplicity 3 > p+1 = 2

    def test_minimal_vectors_allowed(self):
        # a bare local vector carries a single basis function
        kv = KnotVector(1, [0, 1, 2])
        assert kv.n == 1
        assert not kv.is_regular

    def test_immutable(self):
        kv = make_uniform_regular(0, 1, 4, 2)
        with pytest.raises(ValueError):
            kv.knots[0] = 5.0


def basis_value(kv, i, x):
    """Value of basis function i of a regular vector at x, via _windows."""
    (flat,), (vals,) = _windows(TensorSplineSpace((kv,)), np.array([[x]], dtype=float))
    return float(vals[flat == i][0]) if i in flat else 0.0


class TestBsplineEval:
    def test_degree1_left_closed(self):
        # the hat on [0, 1, 2] reaches 1 at its interior knot
        assert basis_value(make_uniform_regular(0, 2, 3, 1), 1, 1.0) == 1.0

    def test_degree2_midpoint(self):
        # hand-unrolled two-term recursion on [0,1,2,3] at 1.5:
        # B = 0.75*B1(1.5) + 0.75*B2(1.5) with both degree-1 hats at 0.5
        kv = make_uniform_regular(0, 3, 5, 2)  # basis 2 lives on [0, 1, 2, 3]
        assert basis_value(kv, 2, 1.5) == pytest.approx(0.75, abs=1e-15)

    def test_zero_outside_support(self):
        kv = make_uniform_regular(0, 4, 6, 2)
        # basis 0 is supported on [t0, t3] = [0, 1] only
        for x in [1.0, 1.5, 2.0, 3.7]:
            assert basis_value(kv, 0, x) == 0.0

    def test_right_boundary_left_limit(self):
        kv = make_uniform_regular(0, 1, 4, 2)
        assert basis_value(kv, kv.n - 1, 1.0) == 1.0
        assert basis_value(kv, 0, 0.0) == 1.0

    def test_matches_naive_recursion(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            kv = random_regular_kv(rng, repeated=bool(rng.integers(2)))
            a, b = kv.domain
            x = float(rng.uniform(a, b))
            i = int(rng.integers(kv.n))
            ours = basis_value(kv, i, x)
            ref = naive_bspline(kv.knots, kv.degree, i, x, closed_right=b)
            assert ours == pytest.approx(ref, abs=1e-13)


class TestKnotAverages:
    def test_example(self):
        xi = knot_averages(KnotVector(2, [0, 0, 0, 1, 2, 2, 2]))
        assert np.array_equal(xi, [0, 0.5, 1.5, 2])

    def test_degree1_hits_interior_knots(self):
        kv = make_uniform_regular(0, 1, 5, 1)
        assert np.array_equal(knot_averages(kv), [0, 0.25, 0.5, 0.75, 1])

    def test_regular_postconditions(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            kv = random_regular_kv(rng)
            xi = knot_averages(kv)
            a, b = kv.domain
            assert xi[0] == pytest.approx(a, abs=1e-12)
            assert xi[-1] == pytest.approx(b, abs=1e-12)
            assert np.all(np.diff(xi) >= -1e-15)

    def test_degree0_rejected(self):
        with pytest.raises(ValueError):
            knot_averages(KnotVector(0, [0, 1]))

    def test_equal_to_per_basis_means_bit_for_bit(self):
        rng = np.random.default_rng(29)
        for _ in range(400):
            p = int(rng.integers(1, 13))
            kv = random_regular_kv(rng, p=p, n=int(rng.integers(p + 1, p + 30)),
                                   repeated=bool(rng.integers(2)))
            t = kv.knots
            means = np.array([t[i + 1 : i + p + 1].mean() for i in range(kv.n)])
            assert np.array_equal(knot_averages(kv), means)


@st.composite
def regular_spaces(draw, max_d=2):
    d = draw(st.integers(1, max_d))
    axes = []
    for _ in range(d):
        p = draw(st.integers(1, 3))
        n = draw(st.integers(p + 1, p + 6))
        a = draw(st.floats(-5, 2, allow_nan=False))
        width = draw(st.floats(0.5, 6, allow_nan=False))
        axes.append(make_uniform_regular(a, a + width, n, p))
    return TensorSplineSpace(tuple(axes))


class TestBasisRow:
    @settings(max_examples=80, deadline=None)
    @given(regular_spaces(), st.data())
    def test_partition_of_unity_and_nonnegative(self, space, data):
        lo, hi = space.domain
        u = [data.draw(st.floats(float(lo[k]), float(hi[k]))) for k in range(space.d)]
        (flat,), (block,) = _windows(space, np.array([u]))
        assert np.all(block >= 0)
        assert abs(block.sum() - 1.0) <= 1e-12
        first = np.unravel_index(flat[0], space.shape)
        for k, f in enumerate(first):
            assert 0 <= f and f + space.degrees[k] <= space.shape[k] - 1
        # the C-order block of prod(p_k + 1) coefficients from the first
        active = np.ix_(*[np.arange(f, f + p + 1) for f, p in zip(first, space.degrees)])
        assert np.array_equal(flat, np.ravel_multi_index(active, space.shape).reshape(-1))

    def test_bivariate_corner(self):
        space = TensorSplineSpace((make_uniform_regular(0, 1, 4, 2),
                                   make_uniform_regular(0, 1, 5, 2)))
        (flat,), (block,) = _windows(space, np.array([[0.0, 0.0]]))
        assert flat[0] == 0
        assert block[0] == pytest.approx(1.0, abs=1e-15)
        assert block.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.count_nonzero(block > 1e-14) == 1

    def test_out_of_domain(self):
        space = TensorSplineSpace((make_uniform_regular(0, 1, 4, 2),))
        with pytest.raises(DomainError):
            spline_eval(SplineFunction(space, np.zeros(4)), [1.5])


class TestSplineEval:
    def test_matches_full_basis_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = int(rng.integers(1, 3))
            axes = tuple(random_regular_kv(rng) for _ in range(d))
            space = TensorSplineSpace(axes)
            coeffs = rng.uniform(-5, 5, size=space.shape)
            f = SplineFunction(space, coeffs)
            lo, hi = space.domain
            for _ in range(6):
                pt = [float(rng.uniform(lo[k], hi[k])) for k in range(d)]
                ref = full_sum_eval([kv.knots for kv in axes],
                                    [kv.degree for kv in axes], coeffs, pt)
                assert spline_eval(f, np.array([pt]))[0] == pytest.approx(ref, abs=1e-11)

    def test_linear_reproduction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            kv = random_regular_kv(rng)
            space = TensorSplineSpace((kv,))
            f = SplineFunction(space, knot_averages(kv))
            a, b = kv.domain
            xs = np.linspace(a, b, 57)
            err = np.abs(spline_eval(f, xs) - xs)
            assert err.max() <= 1e-12

    def test_constant_reproduction(self):
        kv = make_uniform_regular(-2, 3, 8, 3)
        f = SplineFunction(TensorSplineSpace((kv,)), np.full(8, 4.25))
        xs = np.linspace(-2, 3, 33)
        assert np.abs(spline_eval(f, xs) - 4.25).max() <= 1e-12

    def test_scalar_and_batch_forms(self):
        kv = make_uniform_regular(0, 1, 4, 2)
        f = SplineFunction(TensorSplineSpace((kv,)), np.arange(4.0))
        with pytest.raises(ValueError, match=r"\(m, d\) block, got shape \(\)"):
            spline_eval(f, 0.3)
        one = spline_eval(f, [[0.3]])  # a single point is a batch of one
        assert one.shape == (1,)
        batch = spline_eval(f, np.array([0.3, 0.7]))
        assert batch.shape == (2,)
        assert batch[0] == one[0]

    def test_out_of_domain(self):
        kv = make_uniform_regular(0, 1, 4, 2)
        f = SplineFunction(TensorSplineSpace((kv,)), np.arange(4.0))
        with pytest.raises(DomainError):
            spline_eval(f, [-0.01])

    def test_continuity_at_interior_knots(self):
        # multiplicity m <= p keeps the spline continuous: one-sided limits agree
        rng = np.random.default_rng(19)
        for p, mult in [(2, 1), (2, 2), (3, 2), (3, 3)]:
            z = 0.5
            knots = np.concatenate([np.zeros(p + 1), np.full(mult, z),
                                    np.linspace(0.7, 0.9, 2), np.ones(p + 1)])
            kv = KnotVector(p, knots)
            f = SplineFunction(TensorSplineSpace((kv,)), rng.uniform(-1, 1, kv.n))
            eps = 1e-10
            below, above = spline_eval(f, [z - eps, z + eps])
            assert abs(below - above) <= 1e-8

    def test_jump_at_full_multiplicity(self):
        # multiplicity p+1 allows a discontinuity
        p = 2
        knots = np.concatenate([np.zeros(p + 1), np.full(p + 1, 0.5), np.ones(p + 1)])
        kv = KnotVector(p, knots)
        coeffs = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        f = SplineFunction(TensorSplineSpace((kv,)), coeffs)
        eps = 1e-9
        above, below = spline_eval(f, [0.5 + eps, 0.5 - eps])
        assert abs(above - below) > 0.9

    def test_max_float_coefficients_stay_finite(self):
        # partition-of-unity rounding pushes 452 of these sums past max float
        big = np.finfo(float).max
        space = TensorSplineSpace((make_uniform_regular(0, 1, 6, 2),))
        xs = np.linspace(0, 1, 10_001)
        assert np.all(spline_eval(SplineFunction(space, np.full(6, big)), xs) == big)
        mixed = SplineFunction(space, np.array([big, -big, big, big, -big, -big]))
        vals = spline_eval(mixed, xs)
        assert np.all(np.isfinite(vals)) and np.all(np.abs(vals) <= big)


def gathered_product(c, flat, vals):
    """_combine's values from the out-of-place product c[flat] * vals."""
    with np.errstate(over="ignore"):
        out = (c[flat] * vals).sum(axis=1)
    return np.clip(out, c.min(), c.max())


class TestCombine:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 60), st.integers(1, 27), st.data())
    def test_in_place_product_keeps_the_bits(self, dim, m, width, data):
        values = st.sampled_from([1.5e308, -1.5e308, 0.0, -0.0]) | st.floats(-1e308, 1e308)
        c = data.draw(hnp.arrays(np.float64, dim, elements=values))
        flat = data.draw(hnp.arrays(np.intp, (m, width), elements=st.integers(0, dim - 1)))
        vals = data.draw(hnp.arrays(np.float64, (m, width), elements=st.floats(0.0, 1.0)))
        with np.errstate(invalid="ignore"):  # inf - inf: NaN on both sides
            assert _combine(c, flat, vals).tobytes() == gathered_product(c, flat, vals).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_in_place_product_keeps_the_bits_of_a_full_block(self, d):
        # past 256 KiB numpy may reuse a temporary; the bits must not care
        rng = np.random.default_rng(d)
        space = TensorSplineSpace.from_bounds([0.0] * d, [1.0] * d, 7, 2)
        c = rng.uniform(-1.0, 1.0, space.dim) * 1.5e308
        flat, vals = _windows(space, rng.uniform(0, 1, (EVAL_BLOCK, d)))
        assert _combine(c, flat, vals).tobytes() == gathered_product(c, flat, vals).tobytes()


class TestInsertKnot:
    def test_pointwise_equality_univariate(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            kv = random_regular_kv(rng)
            space = TensorSplineSpace((kv,))
            f = SplineFunction(space, rng.uniform(-4, 4, space.shape))
            a, b = kv.domain
            z = float(rng.uniform(a, b))
            while not a < z < b:
                z = float(rng.uniform(a, b))
            g = insert_knot(f, 0, z)
            assert g.space.axes[0].n == kv.n + 1
            xs = np.linspace(a, b, 101)
            drift = np.abs(spline_eval(g, xs) - spline_eval(f, xs))
            assert drift.max() <= 1e-10

    def test_pointwise_equality_tensor(self):
        rng = np.random.default_rng(29)
        axes = (make_uniform_regular(0, 2, 6, 2), make_uniform_regular(-1, 1, 5, 3))
        space = TensorSplineSpace(axes)
        f = SplineFunction(space, rng.uniform(-1, 1, space.shape))
        g = insert_knot(insert_knot(f, 0, 0.37), 1, -0.2)
        pts = np.column_stack([rng.uniform(0, 2, 200), rng.uniform(-1, 1, 200)])
        drift = np.abs(spline_eval(g, pts) - spline_eval(f, pts))
        assert drift.max() <= 1e-10

    def test_repeated_insertion_to_full_multiplicity(self):
        kv = make_uniform_regular(0, 1, 5, 2)
        f = SplineFunction(TensorSplineSpace((kv,)),
                           np.random.default_rng(1).uniform(-1, 1, 5))
        g = f
        for _ in range(3):  # up to multiplicity p+1 = 3
            g = insert_knot(g, 0, 0.4)
        xs = np.linspace(0, 1, 101)
        assert np.abs(spline_eval(g, xs) - spline_eval(f, xs)).max() <= 1e-10
        with pytest.raises(ValueError):
            insert_knot(g, 0, 0.4)

    def test_matches_dense_blend_oracle(self):
        # Up to 4 ulp of max|P|: the oracle's tensordot may fuse or reorder
        # the two products of each blended coefficient.
        rng = np.random.default_rng(31)
        for trial in range(150):
            d = int(rng.integers(1, 4))
            axes = tuple(random_regular_kv(rng, repeated=bool(rng.integers(2)))
                         for _ in range(d))
            f = SplineFunction(TensorSplineSpace(axes), rng.standard_normal(
                [kv.n for kv in axes]) * 10.0 ** rng.integers(-3, 4))
            axis = int(rng.integers(d))
            kv = f.space.axes[axis]
            a, b = kv.domain
            inner = kv.knots[(kv.knots > a) & (kv.knots < b)]
            z = float(rng.choice(inner)) if len(inner) and rng.integers(2) else \
                float(rng.uniform(a, b))
            for _ in range(kv.degree + 1):  # repeated insertion up to multiplicity p+1
                if np.count_nonzero(f.space.axes[axis].knots == z) > kv.degree or not a < z < b:
                    break
                g = insert_knot(f, axis, z)
                knots, want = dense_blend_insert(f.space.axes[axis].knots, kv.degree,
                                                 f.coefficients, axis, z)
                assert np.array_equal(g.space.axes[axis].knots, knots)
                assert g.coefficients.shape == want.shape
                scale = np.spacing(np.abs(f.coefficients).max())
                gap = np.abs(g.coefficients - want).max()
                assert gap <= 4 * scale, f"trial {trial}: gap {gap} over 4 ulp {scale}"
                f = g

    def test_insertion_memory_is_linear_in_coefficients(self):
        # The dense blend matrix took (n+1) * n floats: 122 MiB at n = 4000.
        kv = make_uniform_regular(0, 1, 4000, 2)
        f = SplineFunction(TensorSplineSpace((kv,)),
                           np.random.default_rng(3).standard_normal(4000))
        tracemalloc.start()
        try:
            g = insert_knot(f, 0, 0.31)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.space.axes[0].n == 4001
        assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MiB"

    def test_knot_outside_domain(self):
        kv = make_uniform_regular(0, 1, 5, 2)
        f = SplineFunction(TensorSplineSpace((kv,)), np.zeros(5))
        for z in [0.0, 1.0, -0.5, 2.0]:
            with pytest.raises(DomainError):
                insert_knot(f, 0, z)

    def test_bad_axis(self):
        kv = make_uniform_regular(0, 1, 5, 2)
        f = SplineFunction(TensorSplineSpace((kv,)), np.zeros(5))
        with pytest.raises(IndexError):
            insert_knot(f, 1, 0.5)


class TestTensorSplineSpace:
    def test_requires_regular(self):
        with pytest.raises(ValueError):
            TensorSplineSpace((KnotVector(2, [0, 1, 2, 3, 4, 5]),))

    def test_requires_degree_ge_1(self):
        with pytest.raises(ValueError):
            TensorSplineSpace((KnotVector(0, [0, 0.5, 1]),))

    def test_subnormal_knot_spacing_names_axis(self):
        # a 1e-310 wide axis has subnormal spans, and the basis recurrence
        # divides by them: inf and NaN values
        with pytest.raises(DomainError, match="axis 1: knot spacing .* is subnormal"):
            TensorSplineSpace.from_bounds([0, 0], [1, 1e-310], [6, 6], [2, 2])
        narrow = TensorSplineSpace.from_bounds([0], [1e-300], [6], [2])  # normal spans
        f = SplineFunction(narrow, np.arange(6.0))
        assert np.all(np.isfinite(spline_eval(f, np.linspace(0, 1e-300, 101))))

    def test_from_bounds_names_the_axis(self):
        with pytest.raises(DomainError, match=r"^axis 1: need a < b, got a=0.5, b=0.5$"):
            TensorSplineSpace.from_bounds([0, 0.5], [1, 0.5], [6], [2])
        with pytest.raises(ValueError, match=r"^axis 0: need n >= p\+1 = 3 basis functions, got 2$"):
            TensorSplineSpace.from_bounds([0, 0], [1, 1], [2, 6], [2])

    def test_shape_dim_domain(self):
        # a numpy integer degree is kept as an int, which model.json can write
        space = TensorSplineSpace((make_uniform_regular(0, 1, 4, 2),
                                   make_uniform_regular(-1, 1, 6, np.int64(1))))
        assert space.degrees == (2, 1) and {type(p) for p in space.degrees} == {int}
        assert space.shape == (4, 6)
        assert space.dim == 24
        lo, hi = space.domain
        assert np.array_equal(lo, [0, -1]) and np.array_equal(hi, [1, 1])

    def test_coefficient_shape_checked(self):
        space = TensorSplineSpace((make_uniform_regular(0, 1, 4, 2),))
        with pytest.raises(ValueError):
            SplineFunction(space, np.zeros(5))


@pytest.mark.parametrize("call, match", [
    (lambda: KnotVector(-1, np.array([0.0, 1.0])), "degree must be >= 1, got -1"),
    (lambda: KnotVector(0, np.array([0.0, 1.0])), "degree must be >= 1, got 0"),
    (lambda: KnotVector(2, np.array([0.0, 0.0, 1.0])), r"at least degree\+2 = 4 knots, got \(3,\)"),
    (lambda: make_uniform_regular(0, 1, 3, 0), "degree must be >= 1, got 0"),
    # a float degree once built a vector that the space failed on in numpy's
    # words, and true was read as degree 1
    (lambda: KnotVector(2.0, np.array([0.0] * 3 + [1.0] * 3)), "degree must be an integer, got 2.0"),
    (lambda: KnotVector(True, np.array([0.0, 0.0, 1.0, 1.0])), "degree must be an integer, got True"),
    (lambda: make_uniform_regular(0, 1, 3, -2), "degree must be >= 1, got -2"),
    (lambda: TensorSplineSpace.from_bounds([0], [1], [4], [2.0]),
     r"axis 0: degree must be an integer, got (np.float64\()?2.0"),
    # the basis count was once truncated to 5, or failed in numpy's words
    (lambda: TensorSplineSpace.from_bounds([0], [1], [5.7], [2]),
     r"^axis 0: n must be an integer, got 5.7$"),
    (lambda: make_uniform_regular(0, 1, 5.5, 1), r"^n must be an integer, got 5.5$"),
    (lambda: make_uniform_regular(0, 1, True, 1), r"^n must be an integer, got True$"),
    # a list's entries once took one type: 5 read as 5.0, and True as degree 1
    (lambda: TensorSplineSpace.from_bounds([0, 0], [1, 1], [5, 2.5], [2]),
     r"^axis 1: n must be an integer, got 2.5$"),
    (lambda: TensorSplineSpace.from_bounds([0, 0], [1, 1], [5], [2, True]),
     r"^axis 1: degree must be an integer, got True$"),
    (lambda: TensorSplineSpace(()), "need at least one axis"),
    (lambda: spline_eval(SplineFunction(TensorSplineSpace((make_uniform_regular(0, 1, 4, 2),)),
                                        np.zeros(4)), np.zeros((3, 2))),
     "point dimension 2 != expected dimension 1"),
    # a NaN coefficient once evaluated to NaN without an error
    *[(lambda bad=bad: SplineFunction(TensorSplineSpace((make_uniform_regular(0, 1, 5, 2),)),
                                      [0.0, 1.0, 2.0, bad, np.nan]),
       rf"^non-finite coefficient {bad} at \(3,\)$") for bad in (np.nan, np.inf, -np.inf)],
], ids=["negative-degree", "knot-vector-degree-0", "few-knots", "degree-0", "float-degree",
         "bool-degree", "degree-minus-2", "float-degree-list", "float-n-list",
         "float-n", "bool-n", "mixed-n-list", "mixed-degree-list", "no-axis", "2-d-block",
         "nan-coefficient", "inf-coefficient", "minus-inf-coefficient"])
def test_malformed_input_is_named(call, match):
    with pytest.raises(ValueError, match=match):
        call()
