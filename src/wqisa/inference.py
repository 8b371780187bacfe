"""Uncertainty quantification and model selection for fitted splines.

Under responses y_i = f(x_i) + eps_i with i.i.d. zero-mean noise of
variance sigma_eps^2, every coefficient is a fixed convex combination of
the responses, so coefficient covariances and pointwise predictor variance
have closed forms; no asymptotics involved. The same structure yields
computable bias envelopes when the true surface values at the data sites
are known, and k-fold cross validation selects space dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import WqisaError
from .fitting import FitPolicy, PointCloud, WqisaModel, evaluate, weight_rows
from .splines import TensorSplineSpace, _normalize_points, _windows
from .weights import WeightSpec


@dataclass(frozen=True)
class NoiseModel:
    """Homoscedastic additive noise with known (or plugged-in) sigma."""

    sigma_eps: float
    source: str = "user"  # or "residual-estimate"

    def __post_init__(self):
        if self.sigma_eps < 0:
            raise ValueError(f"sigma_eps must be >= 0, got {self.sigma_eps}")


class CoefficientCovariance:
    """Exact covariance of the coefficient estimators, sigma^2 * V V^T.

    V is the (dim, N) operator of normalised weight rows, c = V y, stored
    as CSR arrays: row i holds vals[indptr[i]:indptr[i+1]] at cloud rows
    cols[indptr[i]:indptr[i+1]].
    """

    def __init__(self, sigma_eps: float, grid_shape: tuple[int, ...],
                 indptr: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 n_points: int):
        self.sigma_eps = float(sigma_eps)
        self.grid_shape = tuple(grid_shape)
        self.dim = int(np.prod(grid_shape))
        self.indptr = indptr
        self.cols = cols
        self.vals = vals
        self.n_points = int(n_points)

    @property
    def matrix(self) -> np.ndarray:
        """Dense (dim, dim) covariance; O(dim * (dim + N)) memory, for checks only."""
        v = np.zeros((self.dim, self.n_points))
        v[np.repeat(np.arange(self.dim), np.diff(self.indptr)), self.cols] = self.vals
        return self.sigma_eps**2 * (v @ v.T)


def coefficient_covariance(cloud: PointCloud, space: TensorSplineSpace,
                           weight: WeightSpec, noise: NoiseModel,
                           policy: FitPolicy = FitPolicy()) -> CoefficientCovariance:
    """Covariance structure of the estimator grid under i.i.d. noise."""
    rows = list(weight_rows(cloud, space, weight, policy))
    indptr = np.zeros(len(rows) + 1, dtype=int)
    np.cumsum([len(r.rows) for r in rows], out=indptr[1:])
    cols = np.concatenate([r.rows for r in rows])
    vals = np.concatenate([r.vals for r in rows])
    return CoefficientCovariance(noise.sigma_eps, space.shape, indptr, cols, vals, cloud.n)


def variance_at(model: WqisaModel, covariance: CoefficientCovariance, u):
    """Exact variance of the fitted spline value at u.

    sigma^2 * ||sum_j b_j V_j||^2 over the active basis values b_j and
    weight rows V_j, accumulated per point in one O(N) scratch vector;
    never exceeds sigma_eps^2 because basis rows are convex weights over
    coefficients that are convex weights over the noise.
    """
    space = model.space
    if covariance.grid_shape != space.shape:
        raise ValueError(
            f"covariance grid {covariance.grid_shape} does not match space {space.shape}"
        )
    pts, single = _normalize_points(space.d, u)
    flats, bases = _windows(space, pts)
    indptr, cols, vals = covariance.indptr, covariance.cols, covariance.vals
    scratch = np.zeros(covariance.n_points)
    out = np.empty(len(pts))
    for m, (flat, b) in enumerate(zip(flats, bases)):
        starts, lens = indptr[flat], indptr[flat + 1] - indptr[flat]
        pos = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
        at, w = cols[pos], np.repeat(b, lens) * vals[pos]
        np.add.at(scratch, at, w)
        # sum_c s_c^2 == sum_e w_e s_{at_e}: no dedup of the touched columns
        out[m] = covariance.sigma_eps**2 * float(w @ scratch[at])
        scratch[at] = 0.0
    return float(out[0]) if single else out


# rational approximation of the standard normal quantile (Acklam's
# coefficients), sharpened by one Halley step against erfc; the result is
# accurate to well below 1e-8 over (0, 1)
_QA = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
       1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_QB = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
       6.680131188771972e+01, -1.328068155288572e+01)
_QC = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
       -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_QD = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
       3.754408661907416e+00)


def normal_quantile(q: float) -> float:
    """Inverse standard normal CDF on (0, 1)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {q}")
    a, b, c, d = _QA, _QB, _QC, _QD
    p_low = 0.02425
    if q < p_low:
        z = math.sqrt(-2.0 * math.log(q))
        x = (((((c[0] * z + c[1]) * z + c[2]) * z + c[3]) * z + c[4]) * z + c[5]) / \
            ((((d[0] * z + d[1]) * z + d[2]) * z + d[3]) * z + 1.0)
    elif q <= 1.0 - p_low:
        z = q - 0.5
        r = z * z
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * z / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        z = math.sqrt(-2.0 * math.log(1.0 - q))
        x = -(((((c[0] * z + c[1]) * z + c[2]) * z + c[3]) * z + c[4]) * z + c[5]) / \
            ((((d[0] * z + d[1]) * z + d[2]) * z + d[3]) * z + 1.0)
    # one Halley refinement
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - q
    g = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - g / (1.0 + x * g / 2.0)


def se_band(model: WqisaModel, covariance: CoefficientCovariance, u,
            alpha: float = 0.05):
    """Two-sided standard-error band around the fit at confidence 1-alpha.

    Returns (lo, hi) = fit -+ z * sqrt(variance) with z the 1-alpha/2
    normal quantile (about 1.96 for the 95 percent band).
    """
    return _band(evaluate(model, u), variance_at(model, covariance, u), alpha)


def _band(f, var, alpha: float = 0.05):
    """(lo, hi) = f -+ z * sqrt(var) for fit values and variances already
    computed, with z the 1-alpha/2 normal quantile."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    z = normal_quantile(1.0 - alpha / 2.0)
    sd = np.sqrt(var)
    return f - z * sd, f + z * sd


def estimate_noise_sigma(model: WqisaModel, cloud: PointCloud) -> NoiseModel:
    """Residual-based plug-in for sigma_eps, labeled as an estimate.

    Sample standard deviation of the fit residuals at the data sites; biased
    low when the spline tracks the noise, so prefer a known sigma when
    available.
    """
    res = cloud.y - evaluate(model, np.clip(cloud.x, *model.space.domain))
    return NoiseModel(float(np.std(res, ddof=1)), source="residual-estimate")


@dataclass(frozen=True)
class BiasBounds:
    lower: float            # smallest true value seen by the active window
    upper: float            # largest true value seen by the active window
    expected_fit: float     # exact mean of the fitted value at u
    squared_bias_bound: float


def bias_bounds_at(cloud: PointCloud, true_values: np.ndarray, space: TensorSplineSpace,
                   weight: WeightSpec, u, true_at_u: float,
                   policy: FitPolicy = FitPolicy()) -> BiasBounds:
    """Envelope on the systematic error of the fit at one point.

    The mean fitted value is a convex combination of true surface values at
    the cloud rows feeding the active coefficients, so it lies between their
    min and max; the squared bias is bounded by the distance from the true
    value at u to whichever side the mean falls on.
    """
    true_values = np.asarray(true_values, dtype=float).reshape(-1)
    if len(true_values) != cloud.n:
        raise ValueError(f"need {cloud.n} true values, got {len(true_values)}")
    flats, bases = _windows(space, _normalize_points(space.d, u)[0])
    if len(flats) != 1:
        raise ValueError("bias_bounds_at takes a single point")
    rows = list(weight_rows(cloud, space, weight, policy, flats[0]))
    means = np.array([true_values[r.rows] @ r.vals for r in rows])
    seen = true_values[np.concatenate([r.rows for r in rows])]
    lower, upper = float(seen.min()), float(seen.max())
    expected = float(means @ bases[0])
    f_u = float(true_at_u)
    if expected <= f_u:
        bound = (lower - f_u) ** 2
    else:
        bound = (upper - f_u) ** 2
    return BiasBounds(lower, upper, expected, bound)


@dataclass
class CvResult:
    """Cross-validation outcome over a candidate grid."""

    grid: list
    scores: np.ndarray       # mean held-out squared error per candidate
    best: object             # candidate with the smallest score (ties: smallest)
    folds: int
    repeats: int = 1
    failures: dict = field(default_factory=dict)  # candidate -> message
    fold_scores: np.ndarray | None = None  # (candidates, folds*repeats) per-fold MSE


def make_folds(n: int, folds: int, seed: int, repeats: int = 1) -> list[list[np.ndarray]]:
    """Seeded shuffled partitions: repeats x folds index arrays."""
    if not 2 <= folds <= n:
        raise ValueError(f"folds={folds} out of range [2, {n}]")
    rng = np.random.default_rng(seed)
    return [list(np.array_split(rng.permutation(n), folds)) for _ in range(repeats)]


def kfold_cv(cloud: PointCloud, candidates, fit_candidate, folds: int = 5,
             repeats: int = 1, seed: int = 0, assignments=None) -> CvResult:
    """Select a candidate by mean held-out squared error.

    fit_candidate(train_cloud, candidate) must return a fitted model (any
    callable mapping predictor batches to values works). The score of a
    candidate is the average over repeats of (1/N) * sum of squared
    held-out errors; a candidate whose fit fails anywhere scores +inf.
    Identical seeds give identical results.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate")
    if assignments is None:
        assignments = make_folds(cloud.n, folds, seed, repeats)
    n_splits = sum(len(rep) for rep in assignments)
    scores = np.empty(len(candidates))
    fold_scores = np.full((len(candidates), n_splits), math.inf)
    failures: dict = {}
    for ci, cand in enumerate(candidates):
        total = 0.0
        dead = False
        split = 0
        for rep in assignments:
            if dead:
                break
            for hold in rep:
                mask = np.ones(cloud.n, dtype=bool)
                mask[hold] = False
                train = cloud.subset(np.flatnonzero(mask))
                try:
                    model = fit_candidate(train, cand)
                    pred = np.asarray(model(cloud.x[hold]), dtype=float)
                    err = cloud.y[hold] - pred
                    if not np.all(np.isfinite(err)):
                        raise WqisaError("non-finite held-out prediction")
                except (WqisaError, ValueError, FloatingPointError) as exc:
                    failures[cand] = str(exc)
                    dead = True
                    break
                total += float(np.dot(err, err))
                fold_scores[ci, split] = float(np.mean(err**2))
                split += 1
        scores[ci] = math.inf if dead else total / (cloud.n * len(assignments))
    best_score = scores.min()
    tied = [candidates[i] for i in np.flatnonzero(scores == best_score)]
    try:
        best = min(tied)
    except TypeError:
        best = tied[0]
    return CvResult(grid=candidates, scores=scores, best=best,
                    folds=folds, repeats=len(assignments), failures=failures,
                    fold_scores=fold_scores)


def select_parsimonious(result: CvResult):
    """One-standard-error model selection on a CV result.

    Returns the first candidate, in grid order, whose mean score is within
    one standard error of the minimizer's score, where the standard error
    is the fold-score standard deviation of the minimizer divided by the
    square root of the number of folds. With a complexity-ordered grid this
    is the classic parsimony rule for flat CV curves: prefer the simplest
    model statistically indistinguishable from the best one.
    """
    if result.fold_scores is None:
        raise ValueError("result carries no per-fold scores")
    scores = result.scores
    best = int(np.argmin(scores))
    if not np.isfinite(scores[best]):
        raise ValueError("every candidate failed")
    folds = result.fold_scores.shape[1]
    se = float(result.fold_scores[best].std(ddof=1)) / math.sqrt(folds)
    for ci, cand in enumerate(result.grid):
        if scores[ci] <= scores[best] + se:
            return cand
    return result.grid[best]
