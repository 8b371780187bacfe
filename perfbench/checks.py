"""Brute-force references and checks of the files a CLI command writes.

Nothing here imports the code under test. The references follow the
semantics of ``tests/_oracles.py`` (k nearest rows ordered by (distance,
index), the closed ball, the gaussian kernel on the plain euclidean norm)
but scan the cloud in vectorised chunks of sites, which keeps them fast at
N = 10^5. Grids are checked with this module's own B-spline basis and the
exact variance law of the coefficients. Every check returns a list of
problems; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from statistics import NormalDist

import numpy as np

# same value as the library's ESTIMATOR_ORACLE_TOL and bounds slack
ORACLE_TOL = 1e-12
CHUNK_CELLS = 2_000_000  # sites x points per distance block
VAR_SAMPLE = 8  # grid rows per variance reference
ROW_CHUNK = 128  # grid rows per tensor basis block
BAND_Z = NormalDist().inv_cdf(0.975)  # the CLI's default alpha = 0.05


def uniform_knots(a: float, b: float, n: int, p: int) -> np.ndarray:
    """Clamped knot vector with n - p - 1 uniform interior knots."""
    interior = np.linspace(a, b, n - p + 1)[1:-1]
    return np.concatenate([np.full(p + 1, float(a)), interior, np.full(p + 1, float(b))])


def knot_averages(knots: np.ndarray, p: int) -> np.ndarray:
    """Means of t[i+1..i+p], the sites the coefficients are anchored at."""
    return np.array([knots[i + 1:i + p + 1].mean() for i in range(len(knots) - p - 1)])


def site_grid(knot_vectors, degrees) -> np.ndarray:
    """(dim, d) sites in the C order of the coefficient grid."""
    axes = [knot_averages(np.asarray(t, dtype=float), p)
            for t, p in zip(knot_vectors, degrees)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _sq_dist_blocks(x: np.ndarray, sites: np.ndarray):
    """(slice, squared distances) per chunk of sites, summed axis by axis."""
    step = max(1, CHUNK_CELLS // len(x))
    for lo in range(0, len(sites), step):
        s = sites[lo:lo + step]
        d2 = (x[None, :, 0] - s[:, None, 0]) ** 2
        for k in range(1, x.shape[1]):
            d2 += (x[None, :, k] - s[:, None, k]) ** 2
        yield slice(lo, lo + len(s)), d2


def _knn_mask(d2: np.ndarray, k: int) -> np.ndarray:
    """The k nearest rows of each site, ties broken by lower index."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    take = d2 < kth
    need = k - take.sum(axis=1)
    tied = d2 == kth
    for r in np.flatnonzero(tied.sum(axis=1) != need):
        tied[r, np.flatnonzero(tied[r])[need[r]:]] = False
    return take | tied


def weight_blocks(weight: str, x, sites):
    """(slice, normalized weight rows) per chunk of sites, for a CLI flag
    such as 'knn:k=10'. Row i holds the convex weights of coefficient i
    over the cloud; a characteristic ball with no row in it gives NaN."""
    family, _, param = weight.partition(":")
    value = float(param.partition("=")[2])
    if family not in ("knn", "characteristic", "gaussian"):
        raise ValueError(f"no reference for weight {weight!r}")
    for sl, d2 in _sq_dist_blocks(x, sites):
        if family == "knn":
            w = _knn_mask(d2, int(value)).astype(float)
        elif family == "characteristic":
            w = (d2 <= value * value).astype(float)
        else:
            w = np.exp(-np.sqrt(d2) / (2.0 * value**2))
        with np.errstate(invalid="ignore", divide="ignore"):
            w /= w.sum(axis=1, keepdims=True)
        yield sl, w


def reference_means(weight: str, x, y, sites) -> np.ndarray:
    """Brute-force coefficient estimates at the sites."""
    out = np.empty(len(sites))
    for sl, v in weight_blocks(weight, x, sites):
        out[sl] = v @ y
    return out


def basis_matrix(knots, p: int, u) -> np.ndarray:
    """(len(u), n) B-spline values by the Cox-de Boor recursion.

    Spans are half-open; the right end of the domain belongs to the last
    non-empty span, as in the library's closed domain.
    """
    t = np.asarray(knots, dtype=float)
    u = np.asarray(u, dtype=float)[:, None]
    b = ((t[:-1] <= u) & (u < t[1:])).astype(float)
    end = u[:, 0] == t[-1]
    b[end] = 0.0
    b[end, np.flatnonzero(t[:-1] < t[1:])[-1]] = 1.0
    m = len(t) - 1
    for q in range(1, p + 1):
        left, right = t[q:m] - t[:m - q], t[q + 1:] - t[1:m - q + 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            a = np.where(left > 0, (u - t[:m - q]) / left, 0.0)
            c = np.where(right > 0, (t[q + 1:] - u) / right, 0.0)
        b = a * b[:, :-1] + c * b[:, 1:]
    return b


def tensor_rows(bases) -> np.ndarray:
    """(M, dim) tensor-product basis rows in the C order of the grid."""
    rows = bases[0]
    for b in bases[1:]:
        rows = (rows[:, :, None] * b[:, None, :]).reshape(len(rows), -1)
    return rows


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_model(model_path, x, y, weight: str, counts, degree: int,
                cache: dict | None = None) -> list[str]:
    """model.json against the brute-force coefficients of its own sites.

    The knots must be the clamped uniform vectors on the cloud's bounding
    box; the sites are then taken from the written knots, so a last-bit
    difference in knot arithmetic cannot flip a neighbour set.
    """
    try:
        model = _load_json(model_path)
    except (OSError, ValueError) as exc:
        return [f"{model_path}: unreadable ({exc})"]
    problems = []
    if model.get("weight") != weight:
        problems.append(f"weight {model.get('weight')!r} != {weight!r}")
    if list(model.get("degrees", [])) != [degree] * x.shape[1]:
        problems.append(f"degrees {model.get('degrees')} != {[degree] * x.shape[1]}")
        return problems
    knots = [np.asarray(t, dtype=float) for t in model["knots"]]
    for k, (t, n) in enumerate(zip(knots, counts)):
        want = uniform_knots(x[:, k].min(), x[:, k].max(), n, degree)
        if t.shape != want.shape or not np.allclose(t, want, rtol=0, atol=ORACLE_TOL):
            problems.append(f"axis {k}: knots differ from the uniform vector on the bbox")
    if problems:
        return problems
    coeffs = np.asarray(model["coefficients"], dtype=float)
    if coeffs.shape != tuple(counts):
        return [f"coefficient grid {coeffs.shape} != {tuple(counts)}"]
    cache = {} if cache is None else cache
    key = (weight, tuple(tuple(t) for t in knots))
    if key not in cache:
        cache[key] = reference_means(weight, x, y, site_grid(knots, model["degrees"]))
    ref = cache[key]
    err = np.abs(coeffs.reshape(-1) - ref)
    tol = ORACLE_TOL * max(1.0, float(np.abs(y).max()))
    if not np.all(err <= tol):
        worst = int(np.nanargmax(np.where(np.isnan(err), np.inf, err)))
        problems.append(f"coefficient {worst}: {coeffs.reshape(-1)[worst]!r} vs "
                        f"reference {ref[worst]!r}")
    lo, hi = float(y.min()), float(y.max())
    if not (np.all(coeffs >= lo - ORACLE_TOL) and np.all(coeffs <= hi + ORACLE_TOL)):
        problems.append("a coefficient lies outside [min y, max y]")
    return problems


def check_report(report_path, y) -> list[str]:
    """report.json bounds: the data extremes, verified."""
    try:
        bounds = _load_json(report_path)["bounds"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{report_path}: no bounds ({exc})"]
    problems = []
    if bounds.get("lo") != float(y.min()) or bounds.get("hi") != float(y.max()):
        problems.append(f"bounds {bounds.get('lo')}..{bounds.get('hi')} are not the data extremes")
    if bounds.get("verified") is not True:
        problems.append("report bounds not verified")
    return problems


def check_fit_dir(outdir, x, y, weight: str, counts, degree: int,
                  cache: dict | None = None) -> list[str]:
    return (check_model(os.path.join(outdir, "model.json"), x, y, weight, counts,
                        degree, cache)
            + check_report(os.path.join(outdir, "report.json"), y))


def grid_reference(model: dict, x, sigma: float, density: int) -> dict:
    """What `wqisa eval --density D` must write for this model.

    The mesh of the model's domain, the model evaluated there with this
    module's own basis, and at every VAR_SAMPLE-th row (and the last) the
    exact variance sigma^2 ||V^T b||^2, where b is the row's basis and V
    holds the brute-force normalized weight rows of the coefficients.
    """
    knots = [np.asarray(t, dtype=float) for t in model["knots"]]
    degrees = model["degrees"]
    mesh = np.meshgrid(*[np.linspace(t[0], t[-1], density) for t in knots], indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    bases = [basis_matrix(t, p, pts[:, k]) for k, (t, p) in enumerate(zip(knots, degrees))]
    coeffs = np.asarray(model["coefficients"], dtype=float).reshape(-1)
    f = np.concatenate([tensor_rows([b[lo:lo + ROW_CHUNK] for b in bases]) @ coeffs
                        for lo in range(0, len(pts), ROW_CHUNK)])
    sample = np.unique(np.r_[np.arange(0, len(pts), VAR_SAMPLE), len(pts) - 1])
    rows = tensor_rows([b[sample] for b in bases])
    active = np.flatnonzero(np.any(rows != 0.0, axis=0))
    # the library clips predictors onto the domain box before weighting
    box = np.clip(x, [t[0] for t in knots], [t[-1] for t in knots])
    proj = np.zeros((len(sample), len(x)))
    for sl, v in weight_blocks(model["weight"], box, site_grid(knots, degrees)[active]):
        proj += rows[:, active[sl]] @ v
    var = sigma**2 * np.einsum("ij,ij->i", proj, proj)
    return {"pts": pts, "f": f, "sample": sample, "var": var}


def check_grid(path, model_path, x, sigma: float, density: int,
               cache: dict | None = None) -> list[str]:
    """Grid CSV against grid_reference: mesh, fit, variance and band.

    Every row must also have 0 <= var <= sigma^2 and lo, hi = f -+ z sqrt(var)
    with z the 0.975 normal quantile.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        raw = Path(model_path).read_bytes()
        model = json.loads(raw)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable ({exc})"]
    d = len(model["degrees"])
    want = ",".join([f"u_{k + 1}" for k in range(d)] + ["f", "var", "lo", "hi"])
    if header != want:
        return [f"header {header!r} != {want!r}"]
    if data.shape != (density**d, d + 4):
        return [f"grid shape {data.shape} != {(density**d, d + 4)}"]
    if not np.all(np.isfinite(data)):
        return ["non-finite grid values"]
    cache = {} if cache is None else cache
    key = ("grid", hashlib.sha256(raw).hexdigest(), sigma, density)
    if key not in cache:
        cache[key] = grid_reference(model, x, sigma, density)
    ref = cache[key]
    pts, f, var, lo, hi = (data[:, :d], data[:, d], data[:, d + 1], data[:, d + 2],
                           data[:, d + 3])
    scale = max(1.0, float(np.abs(ref["f"]).max()))
    problems = []
    if not np.allclose(pts, ref["pts"], rtol=0, atol=ORACLE_TOL):
        problems.append("grid points are not the mesh of the model's domain")
    err = np.abs(f - ref["f"])
    if not np.all(err <= ORACLE_TOL * scale):
        m = int(np.argmax(err))
        problems.append(f"row {m}: f {float(f[m])!r} vs reference {float(ref['f'][m])!r}")
    err = np.abs(var[ref["sample"]] - ref["var"])
    if not np.all(err <= ORACLE_TOL * sigma**2):
        m = int(np.argmax(err))
        row = int(ref["sample"][m])
        problems.append(f"row {row}: var {float(var[row])!r} vs "
                        f"reference {float(ref['var'][m])!r}")
    if np.any(var < 0.0) or np.any(var > sigma**2 + ORACLE_TOL):
        problems.append(f"variance outside [0, sigma^2]: max {var.max()!r}")
    half = BAND_Z * np.sqrt(np.maximum(var, 0.0))
    if not (np.all(np.abs(hi - f - half) <= ORACLE_TOL * scale)
            and np.all(np.abs(f - lo - half) <= ORACLE_TOL * scale)):
        problems.append("band is not f -+ z sqrt(var)")
    return problems


def check_cv(outdir, grid: range) -> tuple[list[str], int | None]:
    """cv.csv covers the grid and best.json names its first minimiser."""
    try:
        scores = np.loadtxt(os.path.join(outdir, "cv.csv"), delimiter=",",
                            skiprows=1, ndmin=2)
        best = int(_load_json(os.path.join(outdir, "best.json"))["best"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"cv output unreadable ({exc})"], None
    if scores.shape != (len(grid), 2) or list(scores[:, 0]) != list(grid):
        return [f"cv.csv does not list the grid {grid.start}..{grid.stop - 1}"], None
    if not np.all(np.isfinite(scores[:, 1])):
        return ["a cv candidate failed"], None
    want = int(scores[int(np.argmin(scores[:, 1])), 0])
    if best != want:
        return [f"best {best} is not the first cv minimiser {want}"], None
    return [], best
