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


def cloud_weights(spec: WeightSpec, u, cloud) -> tuple[np.ndarray, np.ndarray]:
    """Per-row weights of a PointCloud against anchor u.

    Returns (indices, weights) where rows not listed carry weight 0. For
    bounded families the index list is the support, found through the
    cloud's neighbour index, so downstream work is O(k) for knn and
    O(|ball|) for characteristic windows; the unbounded families score
    every row and never build the index. idw decides coincidence on the
    same distances its weights use, so a gap that underflows to distance 0
    counts as coincident instead of weighing inf.
    """
    if spec.family == "knn":
        k = min(int(spec.k), cloud.n)
        if k < spec.k:
            warnings.warn(
                f"k={spec.k} exceeds cloud size N={cloud.n}; clamped to {cloud.n}",
                UserWarning, stacklevel=2,
            )
        idx = cloud.tree.knn(u, k)
        return idx, np.full(len(idx), 1.0 / k)
    if spec.family == "characteristic":
        idx = cloud.tree.radius_query(u, spec.r)
        return idx, np.ones(len(idx))
    u = np.asarray(u, dtype=float).reshape(-1)
    dist = np.sqrt(((cloud.x - u) ** 2).sum(axis=1))
    if spec.family == "idw":
        coincident = np.flatnonzero(dist == 0.0)
        if len(coincident):
            return coincident, np.full(len(coincident), 1.0 / len(coincident))
        return np.arange(cloud.n), 1.0 / dist
    if spec.family == "gaussian":
        arg = dist * dist if spec.gaussian_squared_norm else dist
        return np.arange(cloud.n), np.exp(-arg / (2.0 * spec.sigma**2))
    return np.arange(cloud.n), np.exp(-dist / (math.sqrt(2.0) * spec.sigma))
