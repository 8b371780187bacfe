"""Weight families that drive the control-point estimator.

A weight w_u(x) scores cloud point x against an anchor u. Families:

* ``knn``            1/k on the k nearest cloud points of u, else 0
* ``characteristic`` 1 on the closed ball of radius r around u, else 0
* ``gaussian``       exp(-||x-u|| / (2 sigma^2)); an optional switch uses
                     the squared norm in the numerator instead
* ``exponential``    exp(-||x-u|| / (sqrt(2) sigma))
* ``idw``            1/||x-u|| when no cloud point coincides with u,
                     otherwise uniform mass on the coincident points

k-nearest membership is resolved on cloud row indices with ties at the k-th
distance broken by ascending index, so exactly k rows carry weight even
when coordinates repeat.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

FAMILIES = ("knn", "characteristic", "gaussian", "exponential", "idw")


@dataclass(frozen=True)
class WeightSpec:
    """Declarative choice of weight family plus its parameter."""

    family: str
    k: int | None = None
    r: float | None = None
    sigma: float | None = None
    gaussian_squared_norm: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown weight family {self.family!r}; pick one of {FAMILIES}")
        need = {"knn": "k", "characteristic": "r", "gaussian": "sigma",
                "exponential": "sigma", "idw": None}[self.family]
        if need is not None:
            val = getattr(self, need)
            if val is None or val <= 0:
                raise ValueError(f"{self.family} weights need {need} > 0, got {val}")
        if self.family == "knn" and int(self.k) != self.k:
            raise ValueError(f"k must be an integer, got {self.k}")

    @classmethod
    def knn(cls, k: int) -> "WeightSpec":
        return cls("knn", k=k)

    @classmethod
    def characteristic(cls, r: float) -> "WeightSpec":
        return cls("characteristic", r=r)

    @classmethod
    def gaussian(cls, sigma: float, squared_norm: bool = False) -> "WeightSpec":
        return cls("gaussian", sigma=sigma, gaussian_squared_norm=squared_norm)

    @classmethod
    def exponential(cls, sigma: float) -> "WeightSpec":
        return cls("exponential", sigma=sigma)

    @classmethod
    def idw(cls) -> "WeightSpec":
        return cls("idw")

    def label(self) -> str:
        if self.family == "knn":
            return f"knn:k={self.k}"
        if self.family == "characteristic":
            return f"characteristic:r={self.r!r}"
        if self.family in ("gaussian", "exponential"):
            extra = ",squared_norm=1" if self.family == "gaussian" and self.gaussian_squared_norm else ""
            return f"{self.family}:sigma={self.sigma!r}{extra}"
        return "idw"


def _scan_weights(spec: WeightSpec, u: np.ndarray, x: np.ndarray):
    """(indices, weights) of an unbounded family at one anchor u, scoring
    every row of x."""
    with np.errstate(over="ignore"):  # inf past ~1.3e154 apart: weight 0
        dist = np.sqrt(((x - u) ** 2).sum(axis=1))
    if spec.family == "idw":
        coincident = np.flatnonzero(dist == 0.0)
        if len(coincident):
            return coincident, np.full(len(coincident), 1.0 / len(coincident))
        return np.arange(len(x)), 1.0 / dist
    if spec.family == "gaussian":
        arg = dist * dist if spec.gaussian_squared_norm else dist
        return np.arange(len(x)), np.exp(-arg / (2.0 * spec.sigma**2))
    return np.arange(len(x)), np.exp(-dist / (math.sqrt(2.0) * spec.sigma))


def cloud_weights(spec: WeightSpec, u, cloud):
    """Per-row weights of a PointCloud against anchor u.

    For one anchor (a 1-D u) returns (indices, weights), where rows not
    listed carry weight 0. For a block of anchors (an (m, d) u) returns CSR
    arrays (indptr, indices, weights): anchor j's row is
    indices/weights[indptr[j]:indptr[j + 1]]. For bounded families the
    listed rows are the support, found through the cloud's neighbour index
    in one call for the whole block, so downstream work is O(k) for knn and
    O(|ball|) for characteristic windows; the unbounded families score
    every row, anchor by anchor, and never build the index. idw decides
    coincidence on the same distances its weights use, so a gap that
    underflows to distance 0 counts as coincident instead of weighing inf.
    """
    anchors = np.asarray(u, dtype=float)
    single = anchors.ndim <= 1
    if single:
        anchors = anchors.reshape(1, -1)
    if anchors.ndim != 2 or anchors.shape[1] != cloud.d:
        raise ValueError(f"query dimension {anchors.shape[-1]} != tree dimension {cloud.d}")
    if spec.family == "knn":
        k = min(int(spec.k), cloud.n)
        if k < spec.k:
            warnings.warn(
                f"k={spec.k} exceeds cloud size N={cloud.n}; clamped to {cloud.n}",
                UserWarning, stacklevel=2,
            )
        idx = cloud.tree.knn(anchors, k).reshape(-1)
        indptr, w = np.arange(len(anchors) + 1) * k, np.full(len(idx), 1.0 / k)
    elif spec.family == "characteristic":
        indptr, idx = cloud.tree.radius_query(anchors, spec.r)
        w = np.ones(len(idx))
    else:
        rows = [_scan_weights(spec, a, cloud.x) for a in anchors]
        if single:
            return rows[0]
        indptr = np.cumsum([0] + [len(i) for i, _ in rows])
        idx = np.concatenate([np.empty(0, dtype=int)] + [i for i, _ in rows])
        w = np.concatenate([np.empty(0)] + [v for _, v in rows])
    return (idx, w) if single else (indptr, idx, w)
