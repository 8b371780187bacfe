"""Uncertainty quantification and model selection for fitted splines.

Under responses y_i = f(x_i) + eps_i with i.i.d. zero-mean noise of
variance sigma_eps^2, every coefficient is a fixed convex combination of
the responses, so coefficient covariances and pointwise predictor variance
have closed forms; no asymptotics involved. k-fold cross validation
selects space dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from _statistics import _normal_dist_inv_cdf  # CPython's C function behind NormalDist.inv_cdf

import numpy as np

from .errors import WqisaError
from .fitting import (LOCAL_FAMILIES, FitPolicy, PointCloud, WqisaModel, _normalise,
                      _weighted_means, _working_points, evaluate, fit, gap_unit,
                      scaled_residuals, weight_blocks)
from .splines import TensorSplineSpace, _combine, _stream, _windows
from .weights import WeightSpec

# alpha's test and wording, FitConfig's too: z needs 1 - alpha/2 < 1 in floats
ALPHA_RANGE = (lambda alpha: alpha < 1.0 and 1.0 - alpha / 2.0 < 1.0, "in (2**-53, 1)")


@dataclass(frozen=True)
class NoiseModel:
    """Homoscedastic additive noise with known (or plugged-in) sigma."""

    sigma_eps: float
    source: str = "user"  # or "residual-estimate"

    def __post_init__(self):
        if not (math.isfinite(self.sigma_eps) and self.sigma_eps >= 0):
            raise ValueError(f"sigma_eps must be finite and >= 0, got {self.sigma_eps}")


def _c_strides(shape) -> np.ndarray:
    """Element strides of a C-order array of this shape."""
    return np.cumprod(np.append(1, np.asarray(shape)[:0:-1]))[::-1]


def half_band(space: TensorSplineSpace) -> np.ndarray:
    """(H, d) coefficient offsets of the covariance band: the second half of
    the C-order listing of every delta with |delta_k| <= p_k, i.e. the
    lexicographically nonnegative ones in lexicographic order, so slot 0 is
    the diagonal and of delta and -delta exactly one is listed. Since p_k <
    n_k these are the deltas of nonnegative flat offset. H = ((2p+1)^d + 1)
    / 2 for degree p on every axis: 13 for degree 2 in 2-D."""
    p = np.array(space.degrees)
    every = np.indices(2 * p + 1).reshape(space.d, -1).T - p
    return every[len(every) // 2:]


def _on_grid(space: TensorSplineSpace, sign: int) -> np.ndarray:
    """(dim, H): whether coefficient i + sign * half_band(space)[s] is on the grid."""
    offsets = half_band(space)
    inside = np.ones((1, len(offsets)), dtype=bool)
    for k, n in enumerate(space.shape):
        moved = np.arange(n)[:, None] + sign * offsets[:, k]
        inside = (inside[:, None] & ((moved >= 0) & (moved < n))).reshape(-1, len(offsets))
    return inside


def band_of_counts(counts: np.ndarray, space: TensorSplineSpace, sizes) -> np.ndarray:
    """The half band G_ij = |S_i & S_j| / (|S_i| * |S_j|) of uniform rows from
    its shared-row counts, divided once: the same bits whatever counted or kept
    them. ValueError names the first row whose diagonal is not its support size
    or whose count exceeds a size of its pair (0 past the grid, divided by 1)."""
    diag, sizes = counts[:, 0], np.reshape(sizes, -1)
    steps = half_band(space) @ _c_strides(space.shape)
    pair = diag.take(np.arange(len(diag))[:, None] + steps, mode="clip") * _on_grid(space, 1)
    bad = counts > np.minimum(diag[:, None], pair)
    bad[:, 0] = diag != sizes
    if bad.any():
        i = int(np.argmax(bad)) // bad.shape[1]
        raise ValueError(f"band row {i} is not shared-row counts of support size {sizes[i]} "
                         f"and its pairs' (0 past the grid): {counts[i].tolist()}")
    return counts / (diag[:, None].astype(float) * np.maximum(pair, 1))


def _window_table(space: TensorSplineSpace) -> tuple[np.ndarray, np.ndarray]:
    """(lower, slot), both (F, F) for the F = prod(p_k + 1) window positions
    of _windows: the band entry of positions a and b is
    band[flat of position lower[a, b], slot[a, b]]. Every point's window is
    the same box, so the table is fixed per space."""
    p = np.array(space.degrees)
    pos = np.indices(p + 1).reshape(space.d, -1).T
    code = (pos[None, :, :] - pos[:, None, :] + p) @ _c_strides(2 * p + 1)  # b - a
    half = int(np.prod(2 * p + 1)) // 2
    up = code >= half
    lower = np.where(up, np.arange(len(pos))[:, None], np.arange(len(pos))[None, :])
    return lower, np.where(up, code, 2 * half - code) - half


class CoefficientCovariance:
    """Exact covariance sigma^2 V V^T of the coefficient estimators, kept as
    the half band of the Gram matrix G = V V^T.

    V is the (dim, N) operator of normalised weight rows, c = V y. The
    variance at any point reads G only at coefficient pairs whose indices
    differ by at most p_k on every axis, so band[i, s] holds <V_i, V_j> for
    j = i + half_band(space)[s], and 0 where j leaves the grid: H floats per
    coefficient, whatever the weight family and N. means is V y of the
    cloud the band was built from, clipped as in fit; a band read from a
    model file has none.
    """

    def __init__(self, sigma_eps: float, space: TensorSplineSpace, band: np.ndarray,
                 means: np.ndarray | None = None, source: tuple | None = None):
        self.sigma_eps = float(sigma_eps)
        self.grid_shape = space.shape
        self.band = band
        self.means = means
        self._source = source  # (cloud, space, weight, policy) the band came from

    @property
    def matrix(self) -> np.ndarray:
        """Dense (dim, dim) covariance, rebuilt from the cloud; O(dim * (dim + N))
        memory, for checks only. sigma^2 is applied in its gap_unit, as in
        spread: entries past the float range read inf."""
        if self._source is None:
            raise ValueError("this covariance holds only its band, as read from a model "
                             "file; the dense matrix needs the cloud it was fitted on")
        cloud, space, weight, policy = self._source
        v = np.zeros((space.dim, cloud.n))
        for b in weight_blocks(cloud, space, weight, policy):
            v[np.repeat(b.flats, np.diff(b.indptr)), b.cols] = b.vals
        unit = gap_unit(self.sigma_eps)
        with np.errstate(over="ignore"):
            return (v @ v.T) * (self.sigma_eps / unit) ** 2 * unit * unit


class _BandBuilder:
    """The half band of G = V V^T from V's rows, fed by fit one weight block
    at a time in flat order, with the kernel chosen by the support observed
    (README, "The covariance band"). Uniform rows (knn and ball: 1/|S_i| over
    their support S_i, or 1 at the nearest row) enter both kernels as their
    support only, so result() is the half band of shared-row counts
    |S_i & S_j|, exact in any order and the same whichever kernel ran;
    band_of_counts divides them. Weighted rows give G itself. Pairing keeps
    uniform rows as CSR entries and pairs them at the end, as in Gustavson's
    sparse product: sorted by cloud row, each entry meets the entries after
    it on its cloud row while their coefficients lie less than reach = 1 +
    sum_k p_k * stride_k apart. Once the rows seen so far project V past
    reach * N / 8 entries, a dense ring of the last reach rows is the smaller
    store: the kept rows are replayed into it, and every later row is dotted
    with its band partners there. Weighted rows span the cloud, so they hold
    the ring from the first row on. Neither kernel holds dim * N floats.
    """

    def __init__(self, space: TensorSplineSpace, n: int, uniform: bool):
        self.space, self.n, self.uniform = space, n, uniform
        self.steps = half_band(space) @ _c_strides(space.shape)  # flat offset of each slot
        self.reach = int(self.steps[-1]) + 1
        self.band = np.zeros((space.dim, len(self.steps)))
        self.blocks, self.sites, self.entries = [], 0, 0
        self.ring = None if uniform else np.zeros((self.reach, n))
        self.inside = _on_grid(space, -1)

    def add(self, block) -> None:
        if self.ring is not None:
            self._dot(block)
            return
        self.blocks.append(block._replace(vals=None))  # only uniform rows pair: by support
        self.sites += len(block.flats)
        self.entries += len(block.cols)
        if 8 * self.entries * self.space.dim > self.reach * self.n * self.sites:
            self.ring = np.zeros((self.reach, self.n))
            blocks, self.blocks = self.blocks, []
            for kept in blocks:
                self._dot(kept)

    def _dot(self, block) -> None:
        ring, reach = self.ring, self.reach
        for j, lo, hi in zip(block.flats.tolist(), block.indptr[:-1].tolist(),
                             block.indptr[1:].tolist()):
            cols = block.cols[lo:hi]
            vals = np.ones(hi - lo) if self.uniform else block.vals[lo:hi]  # 1 on the support
            row = ring[j % reach]
            if hi - lo == self.n:  # every cloud row: weighted in order, uniform all 1
                row[:] = vals
            else:
                row[:] = 0.0
                row[cols] = vals
            slots = np.flatnonzero(self.inside[j])
            partners = j - self.steps[slots]
            # every partner's entries at the row's columns in one gather,
            # unless that would outgrow a ring row: then a dense dot each
            if len(slots) * len(cols) <= self.n:
                self.band[partners, slots] = ring[(partners % reach)[:, None], cols] @ vals
            else:
                for i, s in zip(partners.tolist(), slots.tolist()):
                    self.band[i, s] = ring[i % reach] @ row

    def result(self) -> np.ndarray:
        if self.ring is None:
            self._pair()
        return self.band

    def _pair(self) -> None:
        space, p = self.space, np.array(self.space.degrees)
        blocks = self.blocks
        rows = np.concatenate([np.repeat(b.flats, b.indptr[1:] - b.indptr[:-1]) for b in blocks])
        cols = np.concatenate([b.cols for b in blocks])
        self.blocks = blocks = []  # the entries live on only in the sorted copies
        order = np.argsort(cols * space.dim + rows)  # by cloud row, then coefficient
        rows, cols = rows[order], cols[order]
        index = np.unravel_index(rows, space.shape)
        weights = _c_strides(2 * p + 1)
        width = self.band.shape[1]
        flat = self.band.reshape(-1)
        a = np.arange(len(rows))  # entries that share their cloud row with the entry t on
        for t in range(len(rows)):
            b = a + t
            near = np.ones(len(a), dtype=bool)
            code = np.zeros(len(a), dtype=int)  # C-order code of the offset in the box
            for k in range(space.d):
                delta = index[k][b] - index[k][a]
                near &= np.abs(delta) <= p[k]
                code += (delta + p[k]) * weights[k]
            # b follows a in its cloud row, so its offset is in the band's half
            flat += np.bincount(rows[a[near]] * width + code[near] - (width - 1),
                                minlength=len(flat))
            a = a[b + 1 < len(rows)]
            b = a + t + 1
            a = a[(cols[b] == cols[a]) & (rows[b] - rows[a] < self.reach)]
            if not len(a):
                break


def _banded_fit(cloud: PointCloud, space: TensorSplineSpace, weight: WeightSpec,
                policy: FitPolicy) -> tuple[WqisaModel, np.ndarray]:
    """The fit and _BandBuilder.result() of its V, from the fit's one pass over V."""
    builder = _BandBuilder(space, cloud.n, weight.family in LOCAL_FAMILIES)
    model = fit(cloud, space, weight, policy, _tap=builder.add)
    return model, builder.result()


def fit_with_band(cloud: PointCloud, space: TensorSplineSpace, weight: WeightSpec,
                  policy: FitPolicy = FitPolicy()) -> tuple[WqisaModel, np.ndarray | None]:
    """(model, half band of shared-row counts or None): what a model file keeps.
    knn and ball get the counts from the fit's own pass over V, in O(min(nnz(V),
    reach * N) + dim * H) memory beyond the fit's (see _BandBuilder); gaussian,
    exponential and idw get None: their band costs more than their fit."""
    if weight.family not in LOCAL_FAMILIES:
        return fit(cloud, space, weight, policy), None
    return _banded_fit(cloud, space, weight, policy)


def coefficient_covariance(cloud: PointCloud, space: TensorSplineSpace,
                           weight: WeightSpec, noise: NoiseModel,
                           policy: FitPolicy = FitPolicy()) -> CoefficientCovariance:
    """Covariance structure of the estimator grid under i.i.d. noise: the
    band of V V^T, built in one pass over V with the fit that gives V y."""
    model, band = _banded_fit(cloud, space, weight, policy)
    if weight.family in LOCAL_FAMILIES:
        band = band_of_counts(band, space, model.diagnostics.support_sizes)
    return CoefficientCovariance(noise.sigma_eps, space, band,
                                 model.spline.coefficients.reshape(-1),
                                 (cloud, space, weight, policy))


def spread(model: WqisaModel, covariance: CoefficientCovariance, u, alpha: float = 0.05):
    """(f, var, lo, hi) at u from one blocked pass of _windows (see _stream):
    the fit values, evaluate's bit for bit; their exact variances; and the
    standard-error band lo, hi = f -+ z * sd at confidence 1 - alpha, z the
    1 - alpha/2 normal quantile (1.96 at 95 %). Four (m,) arrays for the
    batch u, which _stream checks with query_block.

    The variance is sigma^2 * b^T G b over the window of active basis values
    b, with every entry of G read from the band through the fixed table of
    _window_table: one gather per window position, O(EVAL_BLOCK * F) memory
    for windows of F entries. It never exceeds sigma_eps^2, because basis
    rows are convex weights over coefficients that are convex weights over
    the noise. sigma is taken in its gap_unit s: for q = b^T G b, var = q
    (sigma/s)^2 s^2 reads inf only past the float range while the band's sd
    = sqrt(q (sigma/s)^2) s stays finite. Scaling by s is exact, so both
    keep the bits of sigma^2 q and its root, the same bits in any batch.
    """
    if not ALPHA_RANGE[0](alpha):
        raise ValueError(f"alpha must be {ALPHA_RANGE[1]}, got {alpha}")
    z = normal_quantile(1.0 - alpha / 2.0)
    space = model.space
    band = covariance.band
    if covariance.grid_shape != space.shape or band.shape[1] != len(half_band(space)):
        raise ValueError(f"covariance grid {covariance.grid_shape} with {band.shape[1]} band "
                         f"slots does not match space {space.shape} of degrees {space.degrees}")
    lower, slot = _window_table(space)
    unit = gap_unit(covariance.sigma_eps)

    def step(flats, bases):
        q = np.zeros(len(flats))
        for a in range(flats.shape[1]):
            # a C-order product sums each row as that row alone would; *
            # keeps the gather's F order where numpy reuses it in place
            gram = np.multiply(band[flats[:, lower[a]], slot[a]], bases, order="C")
            q += bases[:, a] * gram.sum(axis=1)
        q *= (covariance.sigma_eps / unit) ** 2
        with np.errstate(over="ignore"):
            f = _combine(model.spline.coefficients.reshape(-1), flats, bases)
            var, sd = q * unit * unit, np.sqrt(q) * unit
        return f, var, f - z * sd, f + z * sd

    return tuple(_stream(space, u, step, 4))


def variance_at(model: WqisaModel, covariance: CoefficientCovariance, u):
    """Exact variance of the fitted spline value at u: the var of spread,
    which also forms f and the 95 % band in the same pass and drops them."""
    return spread(model, covariance, u)[1]


def normal_quantile(q: float) -> float:
    """Inverse standard normal CDF on (0, 1): NormalDist().inv_cdf(q), bit
    for bit, from the C function it calls, without importing statistics
    (which loads decimal, fractions and random, 4-7 ms)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {q}")
    return _normal_dist_inv_cdf(q, 0.0, 1.0)


def se_band(model: WqisaModel, covariance: CoefficientCovariance, u,
            alpha: float = 0.05):
    """Two-sided standard-error band (lo, hi) around the fit at confidence
    1 - alpha: the lo and hi of spread."""
    return spread(model, covariance, u, alpha)[2:]


def estimate_noise_sigma(model: WqisaModel, cloud: PointCloud) -> NoiseModel:
    """Residual-based plug-in for sigma_eps, labeled as an estimate.

    Sample standard deviation of the fit residuals at the data sites,
    measured in the gap_unit of the responses and fitted values, so it is
    finite whenever its true value is; biased low when the spline tracks
    the noise, so prefer a known sigma when available. Needs at least two
    rows.
    """
    if cloud.n < 2:
        raise ValueError(f"estimating sigma_eps needs at least 2 points, got {cloud.n}")
    fitted = evaluate(model, cloud.clipped(*model.space.domain))
    res, unit = scaled_residuals(cloud.y, fitted)
    return NoiseModel(float(np.std(res, ddof=1)) * unit, source="residual-estimate")


@dataclass
class CvResult:
    """Cross-validation outcome over a candidate grid."""

    grid: list
    scores: np.ndarray       # mean held-out squared error per candidate
    best: object             # candidate with the smallest score (ties: smallest)
    folds: int
    fold_scores: np.ndarray  # (candidates, folds*repeats) per-fold MSE
    repeats: int = 1
    failures: dict = field(default_factory=dict)  # candidate -> message


def make_folds(n: int, folds: int, seed: int, repeats: int = 1) -> list[list[np.ndarray]]:
    """Seeded shuffled partitions: repeats x folds index arrays."""
    if not 2 <= folds <= n:
        raise ValueError(f"folds={folds} out of range [2, {n}]")
    if repeats < 1:
        raise ValueError(f"repeats={repeats} must be >= 1")
    rng = np.random.default_rng(seed)
    return [list(np.array_split(rng.permutation(n), folds)) for _ in range(repeats)]


def _fold_ids(assignments, n: int) -> np.ndarray:
    """(repeats, n): the fold that holds out each row, once every repeat is
    checked to partition range(n) into folds of 1 to n - 1 rows, as many as repeat 0."""
    ids = np.full((len(assignments), n), -1)
    for r, rep in enumerate(assignments):
        if len(rep) != len(assignments[0]):
            raise ValueError(f"repeat {r} has {len(rep)} folds, repeat 0 has {len(assignments[0])}")
        for f, hold in enumerate(rep):
            hold, where = np.asarray(hold), f"repeat {r} fold {f}"
            if hold.ndim != 1 or hold.dtype.kind not in "iu" or not 0 < len(hold) < n:
                raise ValueError(f"{where} must be 1 to {n - 1} integer row indices")
            bad = hold[(hold < 0) | (hold >= n)]
            if len(bad):
                raise ValueError(f"{where} holds out row {bad[0]}, outside [0, {n})")
            rows, counts = np.unique(hold, return_counts=True)
            twice = rows[(counts > 1) | (ids[r, rows] >= 0)]
            if len(twice):
                raise ValueError(f"{where} holds out row {twice[0]} a second time")
            ids[r, hold] = f
        if (ids[r] < 0).any():
            raise ValueError(f"repeat {r} holds out row {np.argmin(ids[r])} in no fold")
    if not len(ids):
        raise ValueError("assignments need at least one repeat")
    return ids


def _fold_coefficients(cloud: PointCloud, space: TensorSplineSpace, weight: WeightSpec,
                       policy: FitPolicy, ids: np.ndarray):
    """Yield split by split the coefficients, bit for bit, that fit gives
    without the split's fold, or raise what that fit raises. Rows that span
    the cloud take the split's own fit. Knn and ball rows take one pass over
    the cloud that never raises: a fold keeps a row's entries off its rows,
    in list order, weighs them 1/k or 1 and divides them by their sum as fit
    does; of a knn row's min(2k, N) nearest it keeps the first k. A knn row
    left short of k, a window the mask empties and one the pass filled from
    its nearest row are refitted on the fold's own cloud instead."""
    splits = [(r, f) for r, rep in enumerate(ids) for f in range(rep.max() + 1)]
    k = weight.k if weight.family == "knn" else 0
    wide = WeightSpec.knn(min(2 * k, _working_points(cloud, space, policy)[0].n)) if k else weight
    coeffs = np.empty((len(splits), space.dim))
    local = weight.family in LOCAL_FAMILIES
    # per split, the flats its own cloud answers: all of them for spanning rows
    redo = [[] if local else [np.arange(space.dim)] for _ in splits]
    whole = replace(policy, empty_support="nearest")  # the pass never raises
    for block in weight_blocks(cloud, space, wide, whole) if local else ():
        sizes = block.indptr[1:] - block.indptr[:-1]
        row = np.repeat(np.arange(len(sizes)), sizes)
        for s, (r, f) in enumerate(splits):
            keep = ids[r].take(block.cols) != f
            if k:
                keep &= (np.cumsum(keep.reshape(len(sizes), -1), axis=1) <= k).reshape(-1)
            count = np.bincount(row[keep], minlength=len(sizes))
            short = (count != k if k else count == 0) | block.fallback
            redo[s].append(block.flats[short])
            indptr = np.concatenate(([0], np.cumsum(count)))
            w = np.full(indptr[-1], 1.0 / k if k else 1.0)
            _normalise(w, indptr)
            coeffs[s, block.flats] = _weighted_means(cloud.y, indptr, block.cols[keep], w)
    for s, (r, f) in enumerate(splits):
        rows, flats = np.flatnonzero(ids[r] != f), np.concatenate(redo[s])
        if len(flats):  # the training cloud, built only for these
            train = cloud.subset(rows)
            for block in weight_blocks(train, space, weight, policy, flats):
                coeffs[s, block.flats] = _weighted_means(train.y, block.indptr, block.cols,
                                                         block.vals, train)
        y = cloud.y[rows]
        yield np.clip(coeffs[s], y.min(), y.max(), out=coeffs[s])


def kfold_cv(cloud: PointCloud, candidates, space_of, weight: WeightSpec,
             policy: FitPolicy = FitPolicy(), *, assignments) -> CvResult:
    """Select a candidate by mean held-out squared error.

    space_of(candidate) builds the candidate's space; assignments, the fold
    table of make_folds, partitions the rows into the same number of folds
    in every repeat. Each fold scores fit(train, space, weight, policy)
    without its rows, bit for bit (see _fold_coefficients), at their
    coordinates clipped to the domain. A score is the mean over repeats of
    (1/N) * sum of squared held-out errors; a candidate whose space or fit
    fails, or whose squared errors overflow, scores +inf with its first
    failure's message.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate")
    ids = _fold_ids(assignments, cloud.n)
    holds = [np.asarray(hold) for rep in assignments for hold in rep]
    scores = np.full(len(candidates), math.inf)
    fold_scores = np.full((len(candidates), len(holds)), math.inf)
    failures: dict = {}
    for ci, cand in enumerate(candidates):
        total = 0.0
        try:
            space = space_of(cand)
            for split, coeffs in enumerate(_fold_coefficients(cloud, space, weight, policy, ids)):
                if split == 0:  # after the first fit has checked the space against the cloud
                    flat, basis = _windows(space, cloud.clipped(*space.domain))
                hold = holds[split]
                with np.errstate(over="ignore"):  # an overflow fails the candidate below
                    err = cloud.y[hold] - _combine(coeffs, flat[hold], basis[hold])
                    total += float(np.dot(err, err))
                    fold_scores[ci, split] = float(np.mean(err**2))
            if math.isinf(max(total, fold_scores[ci].max())):
                raise WqisaError("held-out squared error overflows")
        except (WqisaError, ValueError, FloatingPointError) as exc:
            failures[cand] = str(exc)
            continue
        scores[ci] = total / (cloud.n * len(assignments))
    best_score = scores.min()
    tied = [candidates[i] for i in np.flatnonzero(scores == best_score)]
    try:
        best = min(tied)
    except TypeError:
        best = tied[0]
    return CvResult(grid=candidates, scores=scores, best=best,
                    folds=len(assignments[0]), repeats=len(assignments), failures=failures,
                    fold_scores=fold_scores)


def select_parsimonious(result: CvResult):
    """One-standard-error model selection on a CV result.

    Returns the first candidate, in grid order, whose mean score is within
    one standard error of the minimizer's score, where the standard error
    is the fold-score standard deviation of the minimizer, taken in the
    fold scores' gap_unit so it is finite, divided by sqrt(folds x
    repeats). A failed candidate (score inf) is never picked. With a
    complexity-ordered grid this is the classic parsimony rule for flat CV
    curves: prefer the simplest model statistically indistinguishable from
    the best one.
    """
    scores = result.scores.tolist()  # Python floats: a sum past the float range reads inf
    best = int(np.argmin(scores))
    if not np.isfinite(scores[best]):
        first = next(iter(result.failures.items()), None)
        raise ValueError("every candidate failed" + (f"; {first[0]!r}: {first[1]}" if first else ""))
    folds = result.fold_scores.shape[1]
    unit = gap_unit(result.fold_scores[best])
    se = float((result.fold_scores[best] / unit).std(ddof=1)) / math.sqrt(folds) * unit
    for ci, cand in enumerate(result.grid):  # by the minimizer at the latest
        if math.isfinite(scores[ci]) and scores[ci] <= scores[best] + se:
            return cand
