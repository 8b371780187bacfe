"""Independent brute-force reference implementations.

Deliberately naive: plain recursions and full scans, no shared code with
the library paths they check.
"""

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


def line_parse_cloud(path, format="auto"):
    """The line-by-line cloud reader: the separator chosen per line (',' if
    the line has one, under auto), float() per token, the column count
    checked line by line, and non-finite values named by their line.
    Returns the (N, d+1) record array or raises ParseError."""
    from wqisa import ParseError

    rows, width = [], None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if format == "csv" or (format == "auto" and "," in text):
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
