"""Independent brute-force reference implementations.

Deliberately naive: plain recursions and full scans, no shared code with
the library paths they check.
"""

import itertools
import math

import numpy as np


def naive_bspline(knots, p, i, x, closed_right=None):
    """Two-term recursion on local knots t[i..i+p+1], 0/0 treated as 0.

    closed_right, when given, closes base intervals ending at that value so
    evaluation at a clamped right boundary returns the left limit.
    """
    t = [float(v) for v in knots[i : i + p + 2]]

    def base(j, q):
        if q == 0:
            hi_closed = closed_right is not None and t[j + 1] == closed_right
            inside = t[j] <= x < t[j + 1] or (hi_closed and x == t[j + 1])
            return 1.0 if inside else 0.0
        acc = 0.0
        if t[j + q] > t[j]:
            acc += (x - t[j]) / (t[j + q] - t[j]) * base(j, q - 1)
        if t[j + q + 1] > t[j + 1]:
            acc += (t[j + q + 1] - x) / (t[j + q + 1] - t[j + 1]) * base(j + 1, q - 1)
        return acc

    return base(0, p)


def full_sum_eval(axes_knots, degrees, coeffs, pt):
    """Tensor spline by summing every basis product over the whole grid."""
    coeffs = np.asarray(coeffs, dtype=float)
    d = len(axes_knots)
    rows = []
    for k in range(d):
        t, p = np.asarray(axes_knots[k], dtype=float), degrees[k]
        n = len(t) - p - 1
        b = t[n]
        rows.append(np.array([
            naive_bspline(t, p, i, float(pt[k]), closed_right=b) for i in range(n)
        ]))
    acc = coeffs
    for k in range(d):
        acc = np.tensordot(rows[k], acc, axes=(0, 0))
    return float(acc)


def _squared_distances(X, u):
    """((X - u) ** 2).sum(axis=1); inf past ~1.3e154 apart, without a warning."""
    with np.errstate(over="ignore"):
        return ((X - u) ** 2).sum(axis=1)


def brute_weight_vector(family, params, u, X):
    """Weights of every cloud row against u, resolved by full scan."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    u = np.asarray(u, dtype=float).reshape(-1)
    dist = np.sqrt(_squared_distances(X, u))
    n = len(X)
    w = np.zeros(n)
    if family == "knn":
        k = min(int(params["k"]), n)
        order = sorted(range(n), key=lambda i: (dist[i], i))
        w[order[:k]] = 1.0 / k
    elif family == "characteristic":
        w[dist <= params["r"]] = 1.0
    elif family == "gaussian":
        arg = dist**2 if params.get("squared_norm") else dist
        w = np.exp(-arg / (2.0 * params["sigma"] ** 2))
    elif family == "exponential":
        w = np.exp(-dist / (math.sqrt(2.0) * params["sigma"]))
    elif family == "idw":
        coincident = np.flatnonzero(dist == 0.0)
        if len(coincident):
            w[coincident] = 1.0 / len(coincident)
        else:
            w = 1.0 / dist
    else:
        raise ValueError(family)
    return w


def brute_estimate(family, params, u, X, y):
    """Weighted mean with math.fsum accumulation; None if all weights vanish."""
    w = brute_weight_vector(family, params, u, X)
    num = math.fsum(float(a) * float(b) for a, b in zip(np.asarray(y, float), w))
    den = math.fsum(float(b) for b in w)
    if den <= 0.0:
        return None
    return num / den


def brute_knn(X, u, k):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    u = np.asarray(u, dtype=float).reshape(-1)
    d2 = _squared_distances(X, u)
    order = sorted(range(len(X)), key=lambda i: (d2[i], i))
    return np.array(order[:k], dtype=int)


def brute_radius(X, u, r):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    u = np.asarray(u, dtype=float).reshape(-1)
    d2 = _squared_distances(X, u)
    return np.flatnonzero(d2 <= r * r)


def brute_local_bounds(X, y, axes, family, params, nearest, drop_outside, point):
    """(min, max) of y over the union of the weight supports of the
    coefficients active in the knot-span cell that holds point.

    axes lists (knots, degree) per axis. The cloud is first aligned to the
    domain box: rows outside it are dropped (drop_outside) or clipped onto
    it. Coefficient (i_1..i_d) is anchored at its knot averages, the plain
    means of t[i+1..i+p]. Its support is the k nearest rows by (d2, index)
    for knn, the closed ball d2 <= r^2 for characteristic, else the rows of
    positive weight; an empty one, when nearest is set, is the nearest row.
    On each axis the cell is the last span [t[s], t[s+1]), p <= s <= n-1,
    with t[s] <= the coordinate, and its active coefficients are s-p..s."""
    X = np.asarray(X, dtype=float).reshape(len(y), -1)
    y = np.asarray(y, dtype=float)
    lo = np.array([t[p] for t, p in axes], dtype=float)
    hi = np.array([t[len(t) - p - 1] for t, p in axes], dtype=float)
    if drop_outside:
        inside = np.array([all(a <= v <= b for v, a, b in zip(row, lo, hi)) for row in X], bool)
        X, y = X[inside], y[inside]
    else:
        X = np.clip(X, lo, hi)
    ranges = []
    for (t, p), v in zip(axes, point):
        s = max(i for i in range(p, len(t) - p - 1) if t[i] <= v)
        ranges.append(range(s - p, s + 1))
    union = set()
    for index in itertools.product(*ranges):
        u = np.array([np.asarray(t[i + 1:i + p + 1], dtype=float).mean()
                      for i, (t, p) in zip(index, axes)])
        if family == "knn":
            rows = brute_knn(X, u, min(int(params["k"]), len(X)))
        elif family == "characteristic":
            rows = brute_radius(X, u, params["r"])
        else:
            rows = np.flatnonzero(brute_weight_vector(family, params, u, X) > 0.0)
        if len(rows) == 0 and nearest:
            rows = brute_knn(X, u, 1)
        union.update(rows.tolist())
    vals = [float(y[i]) for i in sorted(union)]
    return min(vals), max(vals)


def brute_covariance(family, params, sites, X, sigma):
    """Coefficient covariance by the direct shared-row double sum."""
    rows = [brute_weight_vector(family, params, u, X) for u in sites]
    m = len(rows)
    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            num = math.fsum(float(a * b) for a, b in zip(rows[i], rows[j]))
            den = math.fsum(map(float, rows[i])) * math.fsum(map(float, rows[j]))
            out[i, j] = sigma**2 * num / den
    return out


def half_band(matrix, shape, degrees):
    """The covariance band read off a dense (dim, dim) matrix over a C-order
    coefficient grid: column s holds matrix[i, i + delta_s] for the offsets
    delta_s with |delta_k| <= p_k that are lexicographically >= 0, in
    lexicographic order, and 0 where i + delta_s leaves the grid."""
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]

    def flat(index):
        return sum(a * s for a, s in zip(index, strides))

    zero = (0,) * len(shape)
    offsets = [delta for delta in itertools.product(*[range(-p, p + 1) for p in degrees])
               if delta >= zero]
    out = np.zeros((len(matrix), len(offsets)))
    for i, index in enumerate(itertools.product(*map(range, shape))):
        for s, delta in enumerate(offsets):
            j = [a + b for a, b in zip(index, delta)]
            if all(0 <= a < n for a, n in zip(j, shape)):
                out[i, s] = matrix[i, flat(j)]
    return out


def shared_row_band(blocks, shape, degrees):
    """The half band of G = V V^T for rows uniform over their supports
    (knn, ball and the nearest-row fallback), by brute force: G_ij =
    |S_i & S_j| / (|S_i| * |S_j|), with S_i the set of cloud rows among
    row i's columns in the given weight blocks, taken in flat order."""
    supports = [set(b.cols[lo:hi].tolist()) for b in blocks
                for lo, hi in zip(b.indptr[:-1].tolist(), b.indptr[1:].tolist())]
    counts = [[len(a & b) / (len(a) * len(b)) for b in supports] for a in supports]
    return half_band(np.array(counts), shape, degrees)


def line_parse_cloud(path):
    """The line-by-line cloud reader: the separator chosen per line (',' if
    the line has one), float() per token, the column count
    checked line by line, and non-finite values named by their line.
    Returns the (N, d+1) record array or raises ParseError."""
    from wqisa import ParseError

    rows, width = [], None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if "," in text:
                parts = [p.strip() for p in text.split(",")]
            else:
                parts = text.split()
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                raise ParseError(f"cannot parse {text!r} as numbers", line=lineno) from None
            if len(vals) < 2:
                raise ParseError(f"need at least 2 columns, got {len(vals)}", line=lineno)
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise ParseError(f"expected {width} columns, got {len(vals)}", line=lineno)
            if not all(map(math.isfinite, vals)):
                raise ParseError(f"non-finite value in {text!r}", line=lineno)
            rows.append(vals)
    if not rows:
        raise ParseError(f"no data rows in {path}")
    return np.array(rows)


def kfold_cv(cloud, candidates, fit_candidate, assignments):
    """Cross-validation by refitting fold by fold: fit_candidate(train,
    candidate) is called on the cloud without each fold's rows, in fold
    order over the live candidates, and must return a fitted model, which
    predicts the held-out rows at their coordinates clipped to its domain.
    Returns (scores, fold_scores, failures) as wqisa.kfold_cv reports them:
    a candidate that fails scores inf and keeps its first message."""
    from wqisa import WqisaError, evaluate

    holds = [hold for rep in assignments for hold in rep]
    totals = [0.0] * len(candidates)
    fold_scores = np.full((len(candidates), len(holds)), math.inf)
    messages = {}
    for split, hold in enumerate(holds):
        mask = np.ones(cloud.n, dtype=bool)
        mask[hold] = False
        train = type(cloud)(cloud.x[mask], cloud.y[mask])
        for ci, cand in enumerate(candidates):
            if ci in messages:
                continue
            try:
                model = fit_candidate(train, cand)
                pred = np.asarray(evaluate(model, np.clip(cloud.x[hold], *model.space.domain)), dtype=float)
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
    return scores, fold_scores, failures


def dense_blend_insert(knots, p, coeffs, axis, z):
    """One knot z inserted into the axis by a dense (n+1, n) blend matrix,
    filled row by row and contracted with the coefficient grid along that
    axis. Returns (new knots, new coefficients)."""
    t = np.asarray(knots, dtype=float)
    n = len(t) - p - 1
    span = int(np.searchsorted(t, z, side="right") - 1)
    blend = np.zeros((n + 1, n))
    for i in range(n + 1):
        if i <= span - p:
            blend[i, i] = 1.0
        elif i >= span + 1:
            blend[i, i - 1] = 1.0
        else:
            alpha = (z - t[i]) / (t[i + p] - t[i])
            blend[i, i] = alpha
            blend[i, i - 1] = 1.0 - alpha
    out = np.tensordot(blend, np.moveaxis(np.asarray(coeffs, dtype=float), axis, 0),
                       axes=(1, 0))
    return np.insert(t, span + 1, z), np.moveaxis(out, 0, axis)


def slope_loop(knots, p, coeffs):
    """Normalized coefficient differences one by one: entry j-1 is
    (c[j] - c[j-1]) / (t[j+p] - t[j]), or the previous entry (0.0 before the
    first) where that knot window is empty."""
    out, prev = [], 0.0
    for j in range(1, len(coeffs)):
        den = knots[j + p] - knots[j]
        prev = (coeffs[j] - coeffs[j - 1]) / den if den > 0.0 else prev
        out.append(prev)
    return np.array(out)
