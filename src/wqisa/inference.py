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
from .fitting import FitPolicy, PointCloud, WqisaModel, _row_sums, evaluate, weight_blocks
from .kdtree import _positions
from .splines import TensorSplineSpace, _normalize_points, _windows
from .weights import WeightSpec


@dataclass(frozen=True)
class NoiseModel:
    """Homoscedastic additive noise with known (or plugged-in) sigma."""

    sigma_eps: float
    source: str = "user"  # or "residual-estimate"

    def __post_init__(self):
        if not (math.isfinite(self.sigma_eps) and self.sigma_eps >= 0):
            raise ValueError(f"sigma_eps must be finite and >= 0, got {self.sigma_eps}")


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
    blocks = list(weight_blocks(cloud, space, weight, policy))
    indptr = np.zeros(space.dim + 1, dtype=int)
    np.cumsum(np.concatenate([np.diff(b.indptr) for b in blocks]), out=indptr[1:])
    cols = np.concatenate([b.cols for b in blocks])
    vals = np.concatenate([b.vals for b in blocks])
    return CoefficientCovariance(noise.sigma_eps, space.shape, indptr, cols, vals, cloud.n)


CHUNK = 1024  # support entries per variance_at chunk
CHUNK_POINTS = 64  # points per variance_at chunk at most


def variance_at(model: WqisaModel, covariance: CoefficientCovariance, u):
    """Exact variance of the fitted spline value at u.

    sigma^2 * ||s||^2 with s = sum_j b_j V_j over the active basis values
    b_j and weight rows V_j; never exceeds sigma_eps^2 because basis rows
    are convex weights over coefficients that are convex weights over the
    noise. Points go in chunks of about CHUNK support entries (at most
    CHUNK_POINTS points): a chunk sums its weights per (point, cloud row)
    with one bincount, after one N-long slot array has given every cloud
    row of the chunk one of the chunk's entry positions. A point whose
    support reaches N, such as one of a dense weight family, bins its
    weights straight on cloud rows. Memory is O(CHUNK * CHUNK_POINTS + N)
    beyond the supports of single large points.
    """
    space = model.space
    if covariance.grid_shape != space.shape:
        raise ValueError(
            f"covariance grid {covariance.grid_shape} does not match space {space.shape}"
        )
    pts, single = _normalize_points(space.d, u)
    flats, bases = _windows(space, pts)
    indptr, cols, vals = covariance.indptr, covariance.cols, covariance.vals
    n, row_len = covariance.n_points, np.diff(indptr)
    support = row_len[flats].sum(axis=1)
    alone = support >= min(CHUNK, n)
    # a chunk starts at every point whose first entry opens a new CHUNK
    # window, every CHUNK_POINTS-th point, and around every point alone
    offset = np.cumsum(support) - support
    cut = np.ones(len(pts), dtype=bool)
    cut[1:] = (np.diff(offset // CHUNK) > 0) | alone[1:] | alone[:-1]
    cut[::CHUNK_POINTS] = True
    bounds = np.append(np.flatnonzero(cut), len(pts))
    # entry positions stay below N, and a chunk's keys below 2 * CHUNK * CHUNK_POINTS
    slot = np.zeros(n, dtype=np.int32 if n < 2**31 else np.intp)
    out = np.empty(len(pts))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        flat = flats[lo:hi].reshape(-1)
        count = row_len[flat]
        pos = _positions(indptr[flat], count)
        at = cols[pos]
        w = np.repeat(bases[lo:hi].reshape(-1), count)
        w *= vals[pos]
        if support[lo] >= n:  # alone: bin on cloud rows
            s = np.bincount(at, w)
            out[lo] = s @ s
            continue
        size = len(at)
        slot[at] = np.arange(size)  # one entry position per cloud row
        key = slot[at]
        key += np.repeat(np.arange(hi - lo) * size, support[lo:hi])
        s = np.bincount(key, w, minlength=(hi - lo) * size).reshape(hi - lo, size)
        out[lo:hi] = np.einsum("ij,ij->i", s, s)
    out *= covariance.sigma_eps**2
    return float(out[0]) if single else out


def normal_quantile(q: float) -> float:
    """Inverse standard normal CDF on (0, 1)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {q}")
    # imported on first use: statistics loads decimal, fractions and random
    # (about 4 ms and 0.5 MiB), which commands without a band never need
    from statistics import NormalDist
    return NormalDist().inv_cdf(q)


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
    available. Needs at least two rows.
    """
    if cloud.n < 2:
        raise ValueError(f"estimating sigma_eps needs at least 2 points, got {cloud.n}")
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
    blocks = list(weight_blocks(cloud, space, weight, policy, flats[0]))
    seen = true_values[np.concatenate([b.cols for b in blocks])]
    lower, upper = float(seen.min()), float(seen.max())
    # convex combinations, clipped as in fit; the means first, since an
    # inf mean times a zero basis value would be NaN
    with np.errstate(over="ignore"):
        means = [_row_sums(true_values[b.cols] * b.vals, b.indptr) for b in blocks]
        means = np.clip(np.concatenate(means), lower, upper)
        expected = float(np.clip(means @ bases[0], lower, upper))
    f_u = float(true_at_u)
    gap = (lower if expected <= f_u else upper) - f_u
    return BiasBounds(lower, upper, expected, gap * gap)


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
    callable mapping predictor batches to values works). Calls run fold by
    fold, each fold over the live candidates in grid order, and every
    candidate of a fold receives the same training cloud, so whatever that
    cloud builds lazily (its neighbour index) is built once per fold. The
    score of a candidate is the average over repeats of (1/N) * sum of
    squared held-out errors; a candidate whose fit fails anywhere scores
    +inf and is not called again. Identical seeds give identical results.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate")
    if assignments is None:
        assignments = make_folds(cloud.n, folds, seed, repeats)
    holds = [hold for rep in assignments for hold in rep]
    totals = [0.0] * len(candidates)
    fold_scores = np.full((len(candidates), len(holds)), math.inf)
    messages: dict = {}  # candidate index -> failure message
    for split, hold in enumerate(holds):
        mask = np.ones(cloud.n, dtype=bool)
        mask[hold] = False
        train = cloud.subset(np.flatnonzero(mask))
        for ci, cand in enumerate(candidates):
            if ci in messages:
                continue
            try:
                model = fit_candidate(train, cand)
                pred = np.asarray(model(cloud.x[hold]), dtype=float)
                err = cloud.y[hold] - pred
                if not np.all(np.isfinite(err)):
                    raise WqisaError("non-finite held-out prediction")
            except (WqisaError, ValueError, FloatingPointError) as exc:
                messages[ci] = str(exc)
                continue
            totals[ci] += float(np.dot(err, err))
            fold_scores[ci, split] = float(np.mean(err**2))
    scores = np.array([math.inf if ci in messages else total / (cloud.n * len(assignments))
                       for ci, total in enumerate(totals)])
    failures = {cand: messages[ci] for ci, cand in enumerate(candidates) if ci in messages}
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
