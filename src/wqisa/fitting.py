"""Fitting spline height fields to scattered noisy data without linear solves.

Each coefficient of the tensor-product spline is a weighted mean of the
response values, anchored at the knot averages of its basis function. This
keeps every coefficient inside [min y, max y], which in turn traps the
whole spline between the data extremes; no system is assembled or solved,
and fitting cost is exactly one estimator call per coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .constants import EXACT_DIAMETER_LIMIT
from .errors import DomainError, EmptySupportError
from .kdtree import KdTree
from .splines import SplineFunction, TensorSplineSpace, spline_eval
from .weights import WeightSpec, cloud_weights


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
        if x.ndim != 2 or len(x) == 0:
            raise ValueError("need a nonempty (N, d) predictor array")
        if len(y) != len(x):
            raise ValueError(f"got {len(x)} predictors but {len(y)} responses")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("cloud contains non-finite values")
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
        return self.x.min(axis=0), self.x.max(axis=0)

    @cached_property
    def tree(self) -> KdTree:
        """Neighbour index over the predictors, built on first use."""
        return KdTree(self.x)

    @cached_property
    def _diameter_info(self) -> tuple[float, bool]:
        rec = self.records
        if self.n > EXACT_DIAMETER_LIMIT:
            span = rec.max(axis=0) - rec.min(axis=0)
            return float(np.sqrt((span**2).sum())), False
        best = 0.0
        for start in range(0, self.n, 256):
            chunk = rec[start : start + 256]
            d2 = ((chunk[:, None, :] - rec[None, :, :]) ** 2).sum(axis=2)
            best = max(best, float(d2.max()))
        return float(np.sqrt(best)), True

    @property
    def diameter(self) -> float:
        """Max pairwise distance between full records; bbox diagonal above
        the exact-computation size limit."""
        return self._diameter_info[0]

    @property
    def diameter_is_exact(self) -> bool:
        return self._diameter_info[1]

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
        if self.empty_support not in ("error", "nearest"):
            raise ValueError(f"empty_support must be 'error' or 'nearest', got {self.empty_support!r}")


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

    def __call__(self, u):
        return spline_eval(self.spline, u)


def _working_points(cloud: PointCloud, space: TensorSplineSpace, policy: FitPolicy):
    """The cloud aligned to the space's domain box.

    Returns (working_cloud, row_indices): rows outside the box are either
    dropped or clipped onto it, so weight windows anchored inside the box
    can see them. When every row lies in the box the working cloud is the
    cloud itself, so its neighbour index is built once and shared by every
    call. Row order is preserved; row_indices maps each working row back to
    its cloud row.
    """
    lo, hi = space.domain
    inside = np.all((cloud.x >= lo) & (cloud.x <= hi), axis=1)
    if inside.all():
        return cloud, np.arange(cloud.n)
    if policy.drop_outside:
        keep = np.flatnonzero(inside)
        if len(keep) == 0:
            raise DomainError("no cloud points inside the domain box")
        return cloud.subset(keep), keep
    return PointCloud(np.clip(cloud.x, lo, hi), cloud.y), np.arange(cloud.n)


class WeightRow(NamedTuple):
    """One row of the weight operator V, so that coefficient = y[rows] @ vals."""

    flat: int            # C-order index of the coefficient
    rows: np.ndarray     # cloud rows with positive weight
    vals: np.ndarray     # their weights divided by the weight sum: convex
    lookups: int         # rows the weight family scored
    fallback: bool       # empty window answered by the nearest row


def _convex_weights(weight: WeightSpec, u, cloud: PointCloud):
    """(indices, w / sum w, lookups) of the window at u over the cloud's rows;
    indices is empty when every weight vanishes."""
    idx, w = cloud_weights(weight, u, cloud)
    live = w > 0.0
    total = float(w.sum())
    if total <= 0.0:
        return idx[:0], w[:0], len(idx)
    return idx[live], w[live] / total, len(idx)


def weight_rows(cloud: PointCloud, space: TensorSplineSpace, weight: WeightSpec,
                policy: FitPolicy = FitPolicy(), flats=None):
    """Yield the normalised weight row of each coefficient (or of the given
    flat indices), in order.

    Row indices refer to the cloud, also when policy.drop_outside works on a
    subset of it. Under empty_support="nearest" a starved window takes the
    single nearest row; otherwise the generator raises one EmptySupportError
    naming every starved cell after yielding the others.
    """
    work, kept = _working_points(cloud, space, policy)
    mesh = np.meshgrid(*space.knot_average_grids, indexing="ij")
    sites = np.stack(mesh, axis=-1).reshape(-1, space.d)
    starved = []
    for flat in range(space.dim) if flats is None else flats:
        u = sites[flat]
        idx, vals, lookups = _convex_weights(weight, u, work)
        empty = len(idx) == 0
        if empty and policy.empty_support == "error":
            starved.append((_index_tuple(flat, space.shape), u))
            continue
        if empty:
            idx, vals = work.tree.knn(u, 1), np.ones(1)
        yield WeightRow(int(flat), kept[idx], vals, lookups, empty)
    if starved:
        raise EmptySupportError(starved)


def estimate_control_point(cloud: PointCloud, weight: WeightSpec, u) -> float:
    """Weighted mean of the responses under the weight window anchored at u.

    Always a convex combination of response values, hence never outside
    [min y, max y]. Raises EmptySupportError when every weight vanishes
    (tiny characteristic radii, or gaussian windows collapsing below the
    floating-point floor).
    """
    idx, vals, _ = _convex_weights(weight, u, cloud)
    if len(idx) == 0:
        raise EmptySupportError([(None, np.atleast_1d(np.asarray(u, dtype=float)))])
    return float(cloud.y[idx] @ vals)


def _index_tuple(flat: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Unravel to plain-int indices so cell keys stay JSON serializable."""
    return tuple(int(i) for i in np.unravel_index(flat, shape))


def fit(cloud: PointCloud, space: TensorSplineSpace, weight: WeightSpec,
        policy: FitPolicy = FitPolicy()) -> WqisaModel:
    """Fit the spline whose coefficients are control-point estimates.

    One estimator call per coefficient, anchored at the tensor grid of knot
    averages; no linear algebra beyond weighted means. Memory stays
    O(N + coefficients) whatever the weight support.
    """
    coeffs = np.empty(space.dim)
    sizes = np.empty(space.dim, dtype=int)
    seen = np.zeros(cloud.n, dtype=bool)
    lookups = 0
    fallbacks = {}
    for row in weight_rows(cloud, space, weight, policy):
        coeffs[row.flat] = cloud.y[row.rows] @ row.vals
        sizes[row.flat] = len(row.rows)
        seen[row.rows] = True
        lookups += row.lookups
        if row.fallback:
            fallbacks[_index_tuple(row.flat, space.shape)] = int(row.rows[0])
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
    """Spline value(s) at u; accepts single points or (m, d) batches."""
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


def local_bounds(model: WqisaModel, cloud: PointCloud, cell) -> tuple[float, float]:
    """Response extremes over the points feeding one knot-span cell.

    cell names one knot span per axis (0-based span index s_k with
    t[s_k] <= x < t[s_k+1], p_k <= s_k <= n_k-1). On that cell the spline
    only sees the p_k+1 active coefficients per axis, so it is trapped by
    the min/max response over the union of their weight supports.
    """
    space = model.space
    cell = tuple(int(c) for c in cell)
    if len(cell) != space.d:
        raise ValueError(f"cell must have {space.d} span indices")
    for k, (s, kv) in enumerate(zip(cell, space.axes)):
        if not kv.degree <= s <= kv.n - 1:
            raise IndexError(f"axis {k}: span {s} out of range [{kv.degree}, {kv.n - 1}]")
    active = np.ix_(*[np.arange(s - kv.degree, s + 1) for s, kv in zip(cell, space.axes)])
    flats = np.ravel_multi_index(active, space.shape).reshape(-1)
    vals = np.concatenate([cloud.y[row.rows] for row in
                           weight_rows(cloud, space, model.weight, model.policy, flats)])
    return float(vals.min()), float(vals.max())


def effective_points(model: WqisaModel, cloud: PointCloud) -> np.ndarray:
    """Sorted cloud rows that influence at least one coefficient.

    Everything outside this set could be deleted without changing the fit;
    it can be a proper subset of the cloud for bounded-support weights.
    """
    seen = np.zeros(cloud.n, dtype=bool)
    for row in weight_rows(cloud, model.space, model.weight, model.policy):
        seen[row.rows] = True
    return np.flatnonzero(seen)


def iqr_outlier_mask(cloud: PointCloud, space: TensorSplineSpace, weight: WeightSpec,
                     factor: float = 1.5, policy: FitPolicy = FitPolicy()) -> np.ndarray:
    """Boolean mask of rows kept by the interquartile residual rule.

    Residuals come from a pilot fit on the raw cloud with the caller's
    space and weight; rows are kept when the residual falls inside
    [Q1 - factor*IQR, Q3 + factor*IQR]. A zero IQR keeps everything.
    """
    if cloud.n < 4:
        raise ValueError(f"need at least 4 points for quartiles, got {cloud.n}")
    if factor < 0:
        raise ValueError(f"factor must be >= 0, got {factor}")
    pilot = fit(cloud, space, weight, policy)
    res = cloud.y - evaluate(pilot, np.clip(cloud.x, *space.domain))
    q1, q3 = np.percentile(res, [25.0, 75.0])
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


def classify_monotone(values: np.ndarray, axis: int = 0, atol: float | None = None) -> MonotoneResult:
    """Classify a grid of estimator values along one axis.

    Increasing means every 1-d slice along the axis is nondecreasing (up to
    atol); a constant grid reports increasing with the constant flag set.
    The default tolerance absorbs summation-order noise only: 1e-12 times
    the value scale. Pass atol=0 for exact comparisons.
    """
    v = np.asarray(values, dtype=float)
    if atol is None:
        atol = 1e-12 * max(1.0, float(np.abs(v).max()))
    diffs = np.diff(v, axis=axis)
    up = bool(np.all(diffs >= -atol))
    down = bool(np.all(diffs <= atol))
    if up and down:
        return MonotoneResult("increasing", True)
    if up:
        return MonotoneResult("increasing", False)
    if down:
        return MonotoneResult("decreasing", False)
    return MonotoneResult("neither", False)


def w_monotone_check(cloud: PointCloud, space: TensorSplineSpace, weight: WeightSpec,
                     axis: int = 0, policy: FitPolicy = FitPolicy(),
                     atol: float | None = None) -> MonotoneResult:
    """Classify the estimator values at the knot averages along one axis.

    A monotone estimator grid makes the fitted spline monotone the same way
    along that axis, because spline values are local convex combinations of
    consecutive coefficients.
    """
    model = fit(cloud, space, weight, policy)
    return classify_monotone(model.spline.coefficients, axis=axis, atol=atol)


def coefficient_slopes(kv, coeffs: np.ndarray) -> np.ndarray:
    """Normalized consecutive coefficient differences.

    Entry i is (c[i] - c[i-1]) / (t[i+p] - t[i]); when the knot window is
    degenerate the previous slope is carried forward, matching the knot
    averages coinciding there.
    """
    p, t = kv.degree, kv.knots
    c = np.asarray(coeffs, dtype=float)
    out = np.empty(len(c) - 1)
    prev = 0.0
    for j in range(1, len(c)):
        den = t[j + p] - t[j]
        prev = (c[j] - c[j - 1]) / den if den > 0.0 else prev
        out[j - 1] = prev
    return out


def classify_convexity(kv, values: np.ndarray, atol: float | None = None) -> ConvexityResult:
    """Classify estimator values at a knot vector's averages by slope trend.

    Nondecreasing normalized slopes mean convex, nonincreasing mean concave,
    all equal means affine (reported convex with the affine flag). The
    default tolerance absorbs summation-order noise only; pass atol=0 for
    exact comparisons.
    """
    slopes = coefficient_slopes(kv, values)
    if atol is None:
        atol = 1e-12 * max(1.0, float(np.abs(slopes).max()) if len(slopes) else 1.0)
    d = np.diff(slopes)
    up = bool(np.all(d >= -atol))
    down = bool(np.all(d <= atol))
    if up and down:
        return ConvexityResult("convex", True)
    if up:
        return ConvexityResult("convex", False)
    if down:
        return ConvexityResult("concave", False)
    return ConvexityResult("neither", False)


def w_convex_check(cloud: PointCloud, kv, weight: WeightSpec,
                   policy: FitPolicy = FitPolicy(), atol: float | None = None) -> ConvexityResult:
    """Convexity classification of a univariate cloud's estimator values."""
    if cloud.d != 1:
        raise ValueError("convexity check is univariate")
    space = TensorSplineSpace((kv,))
    model = fit(cloud, space, weight, policy)
    return classify_convexity(kv, model.spline.coefficients, atol=atol)
