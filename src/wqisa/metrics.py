"""Error reports and set-based comparison metrics."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .fitting import PointCloud, WqisaModel, gap_unit, scaled_residuals
from .inference import CoefficientCovariance, spread
from .kdtree import KdTree, query_block, squared_distances

# Query points per k-d tree call in directed_hausdorff_normalized: a call
# holds about 4 KB of candidate arrays per 3-D query, and larger blocks
# were no faster.
HAUSDORFF_BLOCK = 1024


@dataclass(frozen=True)
class ErrorReport:
    """Dispersion summary of residuals observed - predicted."""

    mse: float
    mae: float
    rmse: float
    min: float
    max: float
    mean: float
    median: float
    std: float

    def to_dict(self) -> dict:
        return asdict(self)


def dispersion(observed, predicted) -> ErrorReport:
    """Residual statistics of two equal-length value sequences.

    Both are measured in their gap_unit, where no residual or square
    overflows, and each statistic is scaled back by it: a power of two, so
    the statistics are finite whenever their true value is, and keep their
    bits while the scaled values stay normal floats. Only mse reads inf,
    and only when the true mean square is past the float range.
    """
    obs = np.asarray(observed, dtype=float).reshape(-1)
    pred = np.asarray(predicted, dtype=float).reshape(-1)
    if len(obs) != len(pred):
        raise ValueError(f"length mismatch: {len(obs)} observed vs {len(pred)} predicted")
    if len(obs) == 0:
        raise ValueError("need at least one value")
    res, unit = scaled_residuals(obs, pred)
    mse = float(np.mean(res**2))
    lo, hi = (len(res) - 1) // 2, len(res) // 2  # np.median's middle: it imports numpy.ma
    part = np.partition(res, (lo, hi, -1))  # a nan sorts last
    mid = part[-1] if np.isnan(part[-1]) else part[hi] if lo == hi else (part[lo] + part[hi]) / 2
    return ErrorReport(
        mse=mse * unit * unit,  # a float product: inf past the range, without a warning
        mae=float(np.mean(np.abs(res))) * unit,
        rmse=float(np.sqrt(mse)) * unit,
        min=float(res.min()) * unit,
        max=float(res.max()) * unit,
        mean=float(res.mean()) * unit,
        median=float(mid) * unit,
        std=float(res.std()) * unit,
    )


def _as_points(a) -> np.ndarray:
    a = query_block(a)
    if len(a) == 0:
        raise ValueError("need a nonempty (m, t) point array")
    return a


def directed_hausdorff_normalized(a_points, b_points, ref: PointCloud) -> float:
    """max over a of the distance to b, in units of the reference diameter.

    Asymmetric by construction; 0 when every point of a sits on one of b.
    Each point of a finds its nearest point of b through a k-d tree over b,
    which is exact, so the value is bit for bit that of a full scan. Both
    sets are measured in their gap_unit, so no squared gap overflows.
    """
    a = _as_points(a_points)
    b = _as_points(b_points)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    diam = ref.diameter
    if diam == 0.0:
        raise ValueError("reference cloud has zero diameter")
    unit = max(gap_unit(a), gap_unit(b))
    a, b = a / unit, b / unit
    tree = KdTree(b)
    worst = 0.0
    for start in range(0, len(a), HAUSDORFF_BLOCK):
        chunk = a[start : start + HAUSDORFF_BLOCK]
        nearest = tree.knn(chunk, 1)[:, 0]
        worst = max(worst, float(squared_distances(chunk, b[nearest]).max()))
    return float(np.sqrt(worst)) / diam * unit  # the distance alone may overflow


def snap_points(points, cell: float) -> np.ndarray:
    """The distinct cells of points quantized onto a grid of the given cell
    size, as sorted int64 rows."""
    if not 0.0 < cell < np.inf:  # NaN too
        raise ValueError(f"cell size must be finite and > 0, got {cell}")
    rows = np.round(_as_points(points) / cell).astype(np.int64)
    rows = rows[np.lexsort(rows.T[::-1])]  # np.unique of rows would import numpy.ma
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def jaccard(a_points, b_points, cell: float | None = None) -> float:
    """Intersection-over-union of two point sets after grid snapping.

    Default cell size is 1/512 of the diagonal of the joint bounding box,
    measured in the sets' gap_unit; identical sets score 1 regardless of
    the cell. |A | B| is |A| + |B| less the cells the sets share.
    """
    a = _as_points(a_points)
    b = _as_points(b_points)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if cell is None:
        both = np.vstack([a, b])
        unit = gap_unit(both)
        diag = float(np.sqrt(squared_distances(both.max(axis=0) / unit, both.min(axis=0) / unit)))
        cell = diag / 512.0 * unit if diag > 0.0 else 1.0
    row = np.dtype((np.void, 8 * a.shape[1]))  # a cell's int64 row as one sortable item
    sa, sb = (snap_points(p, cell).view(row).reshape(-1) for p in (a, b))
    shared = len(np.intersect1d(sa, sb, assume_unique=True))
    return shared / (len(sa) + len(sb) - shared)


def band_coverage(cloud: PointCloud, model: WqisaModel,
                  covariance: CoefficientCovariance, alpha: float = 0.05) -> float:
    """Fraction of cloud responses inside the standard-error band of spread
    at their coordinates, clipped to the domain."""
    x = cloud.clipped(*model.space.domain)
    return coverage(cloud.y, *spread(model, covariance, x, alpha)[2:])


def coverage(y, lo, hi) -> float:
    """Fraction of y inside [lo, hi]."""
    return float(np.mean((y >= lo) & (y <= hi)))
