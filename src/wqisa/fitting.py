"""Fitting spline height fields to scattered noisy data without linear solves.

Each coefficient of the tensor-product spline is a weighted mean of the
response values, anchored at the knot averages of its basis function. This
keeps every coefficient inside [min y, max y], which in turn traps the
whole spline between the data extremes; no system is assembled or solved,
and fitting cost is exactly one estimator call per coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, EmptySupportError
from .kdtree import KdTree, squared_distances
from .splines import SplineFunction, TensorSplineSpace, _stream, spline_eval
from .weights import WeightSpec, cloud_weights

# clouds above this size fall back to the bounding-box diagonal diameter
EXACT_DIAMETER_LIMIT = 5000
EMPTY_SUPPORT = ("error", "nearest")  # FitPolicy.empty_support values
LOCAL_FAMILIES = ("knn", "characteristic")  # weight rows found through the k-d tree


def gap_unit(points) -> float:
    """The power of two that brings the largest magnitude of points into
    [1, 2). Measured in it, squared gaps cannot overflow, as they do past
    ~1.3e154, and dividing by a power of two is exact: points scaled by one
    measure the same, bit for bit, while their values stay normal."""
    top = max(float(np.max(points, initial=0.0)), -float(np.min(points, initial=0.0)))
    return math.ldexp(1.0, math.frexp(top)[1] - 1)


def scaled_residuals(observed, predicted) -> tuple[np.ndarray, float]:
    """(observed - predicted) / unit, and unit: the larger gap_unit of the
    two arrays, by which each is divided before the difference, so no
    residual overflows."""
    unit = max(gap_unit(observed), gap_unit(predicted))
    res = observed / unit
    res -= predicted / unit
    return res, unit


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Immutable scattered data: predictors x (N, d) and responses y (N,)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        y = np.array(self.y, dtype=float).reshape(-1)
        if x.ndim != 2 or x.size == 0:
            raise ValueError(f"need a nonempty (N, d) predictor array, got shape {x.shape}")
        if len(y) != len(x):
            raise ValueError(f"got {len(x)} predictors but {len(y)} responses")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):  # the row only on failure
            bad_x = ~np.isfinite(x).all(axis=1)
            row = np.flatnonzero(bad_x | ~np.isfinite(y))[0]
            where = f"x {x[row].tolist()}" if bad_x[row] else f"y {y[row]}"
            raise ValueError(f"cloud contains non-finite values: {where} at row {row}")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @cached_property
    def records(self) -> np.ndarray:
        """Rows (x_1..x_d, y) as points in R^(d+1)."""
        out = np.hstack([self.x, self.y.reshape(-1, 1)])
        out.setflags(write=False)
        return out

    @cached_property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis min and max, column by column, since numpy reduces a short
        axis slowly; a zero extreme comes from the short-axis reduction, whose
        pick of 0.0 or -0.0 the column's need not repeat."""
        lo, hi = (np.array([f(c) for c in self.x.T]) for f in (np.min, np.max))
        return (self.x.min(axis=0) if (lo == 0).any() else lo,
                self.x.max(axis=0) if (hi == 0).any() else hi)

    def within(self, lo, hi) -> bool:
        """Whether every row lies in the box [lo, hi], whose width must be the cloud's."""
        if wrong := [len(bound) for bound in (lo, hi) if len(bound) != self.d]:
            raise ValueError(f"point dimension {wrong[0]} != expected dimension {self.d}")
        return bool(np.all(self.bbox[0] >= lo) and np.all(self.bbox[1] <= hi))

    def clipped(self, lo, hi) -> np.ndarray:
        """np.clip(x, lo, hi), bit for bit: x itself, not a copy, when it lies in
        the box and no bound is a zero, whose sign np.clip may give a zero x."""
        exact = self.within(lo, hi) and not (np.append(lo, hi) == 0).any()
        return self.x if exact else np.clip(self.x, lo, hi)

    @cached_property
    def rows(self) -> np.ndarray:
        """0..N-1, read-only: the columns of a weight row that lists every row."""
        return np.broadcast_to(np.arange(self.n), self.n)

    @cached_property
    def tree(self) -> KdTree:
        """Neighbour index over the predictors, built on first use."""
        return KdTree(self.x)

    @cached_property
    def _working(self) -> dict:
        """Working clouds by (domain, drop_outside); see _working_points."""
        return {}

    def drop_index(self) -> None:
        """Forget the neighbour index and the working clouds: a query builds them again."""
        vars(self).pop("tree", None)
        vars(self).pop("_working", None)

    @cached_property
    def diameter(self) -> float:
        """Max pairwise distance between full records; bbox diagonal above
        the exact-computation size limit."""
        rec = self.records
        unit = gap_unit(rec)
        rec = rec / unit
        if self.n > EXACT_DIAMETER_LIMIT:
            d2 = squared_distances(rec.max(axis=0), rec.min(axis=0))
            return float(np.sqrt(d2)) * unit
        best = max(float(squared_distances(rec[i : i + 256, None], rec).max())
                   for i in range(0, self.n, 256))
        return float(np.sqrt(best)) * unit

    def subset(self, indices) -> "PointCloud":
        return PointCloud(self.x[indices], self.y[indices])


@dataclass(frozen=True)
class FitPolicy:
    """What to do off the happy path.

    empty_support: "error" aborts the fit naming every starved coefficient,
    "nearest" falls back to the response of the single nearest point.
    drop_outside drops rows outside the space's domain box instead of
    clipping their predictors for weight computation.
    """

    empty_support: str = "error"
    drop_outside: bool = False

    def __post_init__(self):
        if self.empty_support not in EMPTY_SUPPORT:
            raise ValueError(f"empty_support must be one of {EMPTY_SUPPORT}, got {self.empty_support!r}")
        if not isinstance(self.drop_outside, bool):
            raise ValueError(f"drop_outside must be a bool, got {self.drop_outside!r}")


@dataclass
class FitDiagnostics:
    """Instrumentation collected during a fit."""

    estimator_calls: int = 0
    weight_lookups: int = 0
    support_sizes: np.ndarray | None = None  # grid-shaped, points per coefficient
    fallback_cells: dict = field(default_factory=dict)  # multi-index -> cloud row used


@dataclass(frozen=True, eq=False)
class WqisaModel:
    """A fitted spline plus everything needed to reason about it."""

    spline: SplineFunction
    weight: WeightSpec
    policy: FitPolicy
    effective_count: int
    diagnostics: FitDiagnostics

    @property
    def space(self) -> TensorSplineSpace:
        return self.spline.space


def _working_points(cloud: PointCloud, space: TensorSplineSpace, policy: FitPolicy):
    """The cloud aligned to the space's domain box.

    Returns (working_cloud, row_indices): rows outside the box are either
    dropped or clipped onto it, so weight windows anchored inside the box
    can see them. When every row lies in the box the working cloud is the
    cloud itself; otherwise it is built once per (domain, drop_outside) and
    kept on the cloud. Either way its neighbour index is built once and
    shared by every call. Row order is preserved; row_indices maps each
    working row back to its cloud row, or is None for the identity map.
    """
    lo, hi = space.domain
    if cloud.within(lo, hi):
        return cloud, None
    key = (tuple(lo), tuple(hi), policy.drop_outside)
    if key not in cloud._working:
        if policy.drop_outside:  # column by column, as in bbox
            inside = [(c >= a) & (c <= b) for c, a, b in zip(cloud.x.T, lo, hi)]
            keep = np.flatnonzero(np.logical_and.reduce(inside))
            if len(keep) == 0:
                raise DomainError("no cloud points inside the domain box")
            cloud._working[key] = cloud.subset(keep), keep
        else:
            cloud._working[key] = PointCloud(np.clip(cloud.x, lo, hi), cloud.y), None
    return cloud._working[key]


class WeightBlock(NamedTuple):
    """Rows flats of V in CSR form: row j is vals/cols[indptr[j]:indptr[j + 1]]."""

    flats: np.ndarray     # C-order coefficient indices of the rows
    indptr: np.ndarray    # row offsets into cols and vals
    cols: np.ndarray      # cloud rows with positive weight
    vals: np.ndarray      # their weights divided by their row's sum: convex
    lookups: int          # rows the weight family scored for the block
    fallback: np.ndarray  # per row: empty window answered by the nearest row


# Sites per neighbour-index call in weight_blocks: large enough to amortise
# the per-call numpy overhead, small enough that a block's candidate arrays
# stay near half a megabyte.
SITE_BLOCK = 128


def _row_sums(a: np.ndarray, indptr: np.ndarray, op=np.add) -> np.ndarray:
    """Sum (op's reduction) of a over each CSR row, 0 on an empty row. reduceat
    sees only the nonempty rows: it would give an empty one the next entry."""
    if len(indptr) == 2 and len(a):  # one nonempty row, a spanning row's block
        return op.reduceat(a, [0])
    live = indptr[:-1] < indptr[1:]
    sums = np.zeros(len(live))
    sums[live] = op.reduceat(a, indptr[:-1][live])
    return sums


def _normalise(w: np.ndarray, indptr: np.ndarray) -> None:
    """Divide each CSR row of w by its sum, in place."""
    sums = _row_sums(w, indptr)
    w /= sums if len(sums) == 1 else np.repeat(sums, indptr[1:] - indptr[:-1])


def _weighted_means(y: np.ndarray, indptr, cols, vals, cloud=None) -> np.ndarray:
    """Per CSR row, the sum of y[cols] * vals: its mean of y under normalised
    weights. cols that are the ``rows`` of y's cloud, made only for a row that
    lists every row, take y itself, with no gather. A partial sum overflows
    (to inf, never NaN) only when the weight still to come is ~0: callers
    clip to the range of the y they average."""
    every = cloud is not None and cols is vars(cloud).get("rows")  # not made here
    with np.errstate(over="ignore"):
        return _row_sums((y if every else y.take(cols)) * vals, indptr)


def weight_blocks(cloud: PointCloud, space: TensorSplineSpace, weight: WeightSpec,
                  policy: FitPolicy = FitPolicy(), flats=None):
    """Yield V, the normalised weight rows of every coefficient (or of the
    given flat indices, in order), as one WeightBlock per cloud_weights
    call: SITE_BLOCK sites for knn and characteristic windows, one for the
    unbounded families, whose rows span the whole cloud.

    Columns name cloud rows, also when policy.drop_outside works on a
    subset of it. A row that lists every row in order has the cloud's own
    ``rows`` as its cols, known by identity, not by value: ``rows`` is made
    only for such a row. Under empty_support="nearest" a starved window
    takes the single nearest row at weight 1; otherwise its row stays empty
    and the generator raises one EmptySupportError naming every starved cell
    after the last block.
    """
    work, kept = _working_points(cloud, space, policy)
    mesh = np.meshgrid(*space.knot_average_grids, indexing="ij")
    sites = np.stack(mesh, axis=-1).reshape(-1, space.d)
    flats = np.arange(space.dim) if flats is None else np.asarray(flats).reshape(-1)
    step = SITE_BLOCK if weight.family in LOCAL_FAMILIES else 1
    starved = []
    for first in range(0, len(flats), step):
        block = flats[first:first + step]
        indptr, cols, w = cloud_weights(weight, sites[block], work)
        lookups = len(cols) if step > 1 else work.n  # unbounded: every row scored
        fallback = np.zeros(len(block), dtype=bool)
        if step > 1 or not len(cols):  # a spanning row that weighs a row is whole
            empty = indptr[:-1] == indptr[1:]
            fallback = empty & (policy.empty_support == "nearest")
            if fallback.any():
                at = indptr[:-1][fallback]
                cols = np.insert(cols, at, work.tree.knn(sites[block[fallback]], 1).reshape(-1))
                w = np.insert(w, at, 1.0)
                indptr = indptr + np.concatenate(([0], np.cumsum(fallback)))
            elif empty.any():
                starved += [(_index_tuple(f, space.shape), sites[f]) for f in block[empty].tolist()]
        _normalise(w, indptr)
        cols = kept[cols] if kept is not None else cloud.rows if cols is vars(work).get("rows") else cols
        yield WeightBlock(block, indptr, cols, w, lookups, fallback)
    if starved:
        raise EmptySupportError(starved)


def estimate_control_point(cloud: PointCloud, weight: WeightSpec, u) -> np.ndarray:
    """(m,) weighted means of the responses under the weight windows anchored
    at an (m, d) block u, or (m,) when d == 1, from one cloud_weights call.

    Each is reduced and clipped to [min y, max y] as in fit: at a knot
    average of a space whose domain holds the cloud it is fit's coefficient,
    bit for bit. Raises EmptySupportError naming every anchor whose weights
    all vanish (tiny characteristic radii, or collapsing gaussian windows).
    """
    indptr, cols, w = cloud_weights(weight, u, cloud)
    empty = indptr[:-1] == indptr[1:]
    if empty.any():  # u has passed query_block: m rows of the cloud's width
        raise EmptySupportError([(None, a) for a in np.asarray(u, float).reshape(len(empty), -1)[empty]])
    _normalise(w, indptr)
    return np.clip(_weighted_means(cloud.y, indptr, cols, w, cloud), cloud.y.min(), cloud.y.max())


def _index_tuple(flat: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Unravel to plain-int indices so cell keys stay JSON serializable."""
    return tuple(int(i) for i in np.unravel_index(flat, shape))


def fit(cloud: PointCloud, space: TensorSplineSpace, weight: WeightSpec,
        policy: FitPolicy = FitPolicy(), *, _tap=None) -> WqisaModel:
    """Fit the spline whose coefficients are control-point estimates.

    One estimator call per coefficient, anchored at the tensor grid of knot
    averages; no linear algebra beyond weighted means. Memory stays
    O(N + coefficients) whatever the weight support. _tap, when given, is
    called with every WeightBlock the fit reduces, so a consumer of V (the
    covariance band) shares the fit's one neighbour pass.
    """
    coeffs = np.empty(space.dim)
    sizes = np.empty(space.dim, dtype=int)
    seen = np.zeros(cloud.n, dtype=bool)
    seen_all = False
    lookups = 0
    fallbacks = {}
    for block in weight_blocks(cloud, space, weight, policy):
        if _tap is not None:
            _tap(block)
        coeffs[block.flats] = _weighted_means(cloud.y, block.indptr, block.cols, block.vals, cloud)
        sizes[block.flats] = block.indptr[1:] - block.indptr[:-1]
        if not seen_all:  # a dense row lists every row: no scatter after it
            seen[block.cols] = True
            seen_all = seen.all()
        lookups += block.lookups
        for f, at in zip(block.flats[block.fallback], block.indptr[:-1][block.fallback]):
            fallbacks[_index_tuple(f, space.shape)] = int(block.cols[at])
    np.clip(coeffs, cloud.y.min(), cloud.y.max(), out=coeffs)
    diag = FitDiagnostics(
        estimator_calls=space.dim,
        weight_lookups=lookups,
        support_sizes=sizes.reshape(space.shape),
        fallback_cells=fallbacks,
    )
    return WqisaModel(
        spline=SplineFunction(space, coeffs.reshape(space.shape)),
        weight=weight,
        policy=policy,
        effective_count=int(seen.sum()),
        diagnostics=diag,
    )


def evaluate(model: WqisaModel, u):
    """Spline values at an (m, d) batch u, as spline_eval takes it."""
    return spline_eval(model.spline, u)


@dataclass(frozen=True)
class GlobalBounds:
    lo: float
    hi: float
    verified: bool  # every coefficient inside [lo, hi] (1e-12 slack)


def global_bounds(model: WqisaModel, cloud: PointCloud) -> GlobalBounds:
    """Data extremes that trap the whole spline.

    Coefficients are convex combinations of responses and basis rows are
    convex combinations of coefficients, so min y <= spline <= max y holds
    everywhere on the domain.
    """
    lo, hi = float(cloud.y.min()), float(cloud.y.max())
    c = model.spline.coefficients
    ok = bool(np.all(c >= lo - 1e-12) and np.all(c <= hi + 1e-12))
    return GlobalBounds(lo, hi, ok)


def local_bounds(model: WqisaModel, cloud: PointCloud, u) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), two (m,) arrays of the response extremes that trap the
    spline at each point of an (m, d) block u, as spline_eval takes it.

    In a point's knot-span cell the spline sees only the p_k+1 active
    coefficients per axis, so it lies between the min and max response over
    the union of their weight supports: the min of their support mins and
    the max of their maxes, all taken in one weight_blocks pass.
    """
    space = model.space
    lows, highs = np.empty(space.dim), np.empty(space.dim)
    for block in weight_blocks(cloud, space, model.weight, model.policy):
        y = cloud.y.take(block.cols)
        lows[block.flats] = _row_sums(y, block.indptr, np.minimum)
        highs[block.flats] = _row_sums(y, block.indptr, np.maximum)
    lo, hi = _stream(space, u, lambda flat, _: (lows[flat].min(axis=1),
                                                highs[flat].max(axis=1)), 2)
    return lo, hi


def _quartiles(values: np.ndarray) -> list[float]:
    """Q1 and Q3 by np.percentile's linear rule, bit for bit, from one
    np.partition (np.percentile imports numpy.ma): at virtual index
    (n - 1) q, between order statistics a and b, a + (b - a) t, or
    b - (b - a) (1 - t) where t >= 0.5, as numpy interpolates."""
    at = [(len(values) - 1) * q for q in (0.25, 0.75)]
    part = np.partition(values, [k for v in at for k in (int(v), int(v) + 1)])
    out = []
    for v in at:
        a, b, t = float(part[int(v)]), float(part[int(v) + 1]), v - int(v)
        out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return out


def iqr_outlier_mask(cloud: PointCloud, space: TensorSplineSpace, weight: WeightSpec,
                     factor: float = 1.5, policy: FitPolicy = FitPolicy()) -> np.ndarray:
    """Boolean mask of rows kept by the interquartile residual rule.

    Residuals come from a pilot fit on the raw cloud with the caller's
    space and weight, measured in the gap_unit of the responses and fitted
    values, so none overflows; rows are kept when the residual falls inside
    [Q1 - factor*IQR, Q3 + factor*IQR]. A zero IQR keeps everything.
    """
    if cloud.n < 4:
        raise ValueError(f"need at least 4 points for quartiles, got {cloud.n}")
    if factor < 0:
        raise ValueError(f"factor must be >= 0, got {factor}")
    pilot = fit(cloud, space, weight, policy)
    fitted = evaluate(pilot, cloud.clipped(*space.domain))
    res, _ = scaled_residuals(cloud.y, fitted)
    q1, q3 = _quartiles(res)
    iqr = q3 - q1
    if iqr == 0.0:
        return np.ones(cloud.n, dtype=bool)
    return (res >= q1 - factor * iqr) & (res <= q3 + factor * iqr)


def iqr_outlier_filter(cloud: PointCloud, space: TensorSplineSpace, weight: WeightSpec,
                       factor: float = 1.5, policy: FitPolicy = FitPolicy()) -> PointCloud:
    """Cloud with interquartile-rule outliers removed (order preserved)."""
    return cloud.subset(np.flatnonzero(iqr_outlier_mask(cloud, space, weight, factor, policy)))


@dataclass(frozen=True)
class MonotoneResult:
    direction: str  # "increasing" | "decreasing" | "neither"
    constant: bool


@dataclass(frozen=True)
class ConvexityResult:
    shape: str  # "convex" | "concave" | "neither"
    affine: bool


def classify_monotone(values: np.ndarray, axis: int = 0) -> MonotoneResult:
    """Classify a grid of estimator values along one axis.

    Increasing means every 1-d slice along the axis is nondecreasing up to
    a tolerance that absorbs summation-order noise only: 1e-12 times the
    largest magnitude of the values. A constant grid reports increasing
    with the constant flag set. Values and tolerance are measured in the
    values' gap_unit, so no difference overflows and the result does not
    depend on the scale of the values.
    """
    v = np.asarray(values, dtype=float)
    v = v / gap_unit(v)
    return _trend(np.diff(v, axis=axis), 1e-12 * float(np.abs(v).max(initial=0.0)))


def _trend(diffs: np.ndarray, tol: float) -> MonotoneResult:
    up, down = bool(np.all(diffs >= -tol)), bool(np.all(diffs <= tol))
    return MonotoneResult("increasing" if up else "decreasing" if down else "neither", up and down)


def coefficient_slopes(kv, coeffs: np.ndarray) -> np.ndarray:
    """Normalized consecutive coefficient differences.

    Entry i is (c[i] - c[i-1]) / (t[i+p] - t[i]); when the knot window is
    degenerate the previous slope is carried forward, matching the knot
    averages coinciding there.
    """
    p, t = kv.degree, kv.knots
    c = np.asarray(coeffs, dtype=float)
    j = np.arange(1, len(c))
    den = t[j + p] - t[j]
    live = den > 0.0
    slope = np.zeros(len(c))  # slope[0] is the 0.0 carried before the first live window
    np.divide(np.diff(c), den, out=slope[1:], where=live)
    return slope[np.maximum.accumulate(np.where(live, j, 0))]


def classify_convexity(kv, values: np.ndarray) -> ConvexityResult:
    """Classify estimator values at a knot vector's averages by slope trend.

    Nondecreasing normalized slopes mean convex, nonincreasing mean concave,
    all equal means affine (reported convex with the affine flag). The
    tolerance absorbs the summation-order noise of the values, as in
    classify_monotone, divided by the narrowest live knot window, the most
    that noise can grow in a slope. Values and slopes are measured in the
    values' gap_unit, so the slopes of values near the float limit stay
    finite and the result does not depend on the scale of the values.
    """
    v = np.asarray(values, dtype=float)
    v = v / gap_unit(v)
    j = np.arange(1, len(v))
    den = kv.knots[j + kv.degree] - kv.knots[j]
    tol = 1e-12 * float(np.abs(v).max(initial=0.0)) / float(np.min(den, where=den > 0.0, initial=np.inf))
    mono = _trend(np.diff(coefficient_slopes(kv, v)), tol)
    shape = {"increasing": "convex", "decreasing": "concave"}.get(mono.direction, "neither")
    return ConvexityResult(shape, mono.constant)
