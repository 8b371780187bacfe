"""Weight families that drive the control-point estimator.

A weight w_u(x) scores cloud point x against an anchor u; ``cloud_weights``
scores an (m, d) block of anchors at once, one CSR row each. Families:

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

Every family measures ||x-u|| as the square root of
``kdtree.squared_distances``, which sums the squared gaps over the axes in
order: the same d2 the neighbour index ranks and bounds by. The unbounded
families split that sum at the last axis and reuse the leading part across
a slab of anchors, with the same bits (``PointCloud.squared_distances_to``);
they take that row-length buffer through their kernel in place, and a gap
past about 1.3e154 reads inf and weighs 0 without a warning. A
one-anchor block, fit's block for them, returns the scan's own arrays; a
row that weighs every row lists ``cloud.rows`` itself, so callers know it
by identity and average y over it without a gather.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .kdtree import query_block


def _flag(text: str) -> bool:
    if text not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("use 1, true, yes, 0, false or no")
    return text in ("1", "true", "yes")


# The descriptor keys of each family and the type each parses to. The first
# key is the family's one parameter, a finite value > 0 that the spec field
# of the same name holds; gaussian's squared_norm flag sets
# gaussian_squared_norm.
PARAMETERS = {"knn": {"k": int}, "characteristic": {"r": float},
              "gaussian": {"sigma": float, "squared_norm": _flag},
              "exponential": {"sigma": float}, "idw": {}}
FAMILIES = tuple(PARAMETERS)


@dataclass(frozen=True)
class WeightSpec:
    """Declarative choice of weight family plus its parameter."""

    family: str
    k: int | None = None
    r: float | None = None
    sigma: float | None = None
    gaussian_squared_norm: bool = False

    def __post_init__(self):
        if self.family not in PARAMETERS:
            raise ValueError(f"unknown weight family {self.family!r}; pick one of {FAMILIES}")
        keys = PARAMETERS[self.family]
        extra = [f.name for f in fields(self)[1:] if getattr(self, f.name) is not f.default
                 and f.name.removeprefix("gaussian_") not in keys]  # squared_norm's field
        if extra:
            raise ValueError(f"unknown weight parameter {extra[0]!r}; {self.family} takes {list(keys)}")
        key = next(iter(keys), None)
        if key is not None:
            val, kind = getattr(self, key), keys[key]
            if val is None or not 0 < val < math.inf or kind(val) != val:
                raise ValueError(f"{self.family} weights need a finite {kind.__name__} "
                                 f"{key} > 0, got {val}")
            object.__setattr__(self, key, kind(val))  # label() prints a plain number
        if key == "sigma" and not 0 < self.kernel_scale < math.inf:
            scale = "2 sigma^2" if self.family == "gaussian" else "sqrt(2) sigma"
            raise ValueError(f"{self.family} weights need a sigma > 0 whose kernel scale "
                             f"{scale} is a positive finite float, got {self.sigma}")

    @property
    def kernel_scale(self) -> float:
        """What a gaussian or exponential kernel divides its norm by:
        2 sigma^2 or sqrt(2) sigma; 0 or inf where that leaves the floats."""
        try:
            return (2.0 * self.sigma**2 if self.family == "gaussian"
                    else math.sqrt(2.0) * self.sigma)
        except OverflowError:  # a Python float's power raises where numpy's reads inf
            return math.inf

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
        """The descriptor parse_weight reads back to an equal spec."""
        key = next(iter(PARAMETERS[self.family]), None)
        if key is None:
            return self.family
        squared = self.family == "gaussian" and self.gaussian_squared_norm
        flag = ",squared_norm=1" if squared else ""
        return f"{self.family}:{key}={getattr(self, key)!r}{flag}"


def parse_weight(text: str) -> WeightSpec:
    """Parse a compact descriptor like 'knn:k=9', 'gaussian:sigma=0.5' or
    'gaussian:sigma=0.5,squared_norm=1'. An unknown, repeated or malformed
    parameter raises ValueError naming it, as does a descriptor that is no str."""
    if not isinstance(text, str):
        raise ValueError(f"weight must be a descriptor string, got {text!r}")
    family, _, tail = text.strip().partition(":")
    family = family.strip()
    if family not in PARAMETERS:
        raise ValueError(f"unknown weight family {family!r}; pick one of {FAMILIES}")
    keys, params = PARAMETERS[family], {}
    for part in tail.split(",") if tail else ():
        key, eq, val = (s.strip() for s in part.partition("="))
        if not eq:
            raise ValueError(f"malformed weight parameter {part!r} in {text!r}")
        if key not in keys:
            raise ValueError(f"unknown weight parameter {key!r} in {text!r}; "
                             f"{family} takes {list(keys) or 'none'}")
        if key in params:
            raise ValueError(f"repeated weight parameter {key!r} in {text!r}")
        try:
            params[key] = keys[key](val)
        except ValueError as exc:
            raise ValueError(f"bad value {val!r} for weight parameter {key!r} "
                             f"in {text!r}: {exc}") from None
    squared = params.pop("squared_norm", False)
    return WeightSpec(family, gaussian_squared_norm=squared, **params)


def _scan_weights(spec: WeightSpec, u: np.ndarray, cloud):
    """(indices, weights) of an unbounded family at one anchor u, scoring
    every row of the cloud and listing the rows whose weight is positive:
    exp underflows to 0 far from u, and so does 1/dist once dist overflows.
    The kernel runs in place in the distance buffer."""
    w = cloud.squared_distances_to(u)  # inf past ~1.3e154 apart: weight 0
    np.sqrt(w, out=w)
    if spec.family == "idw":
        coincident = np.flatnonzero(w == 0.0)
        if len(coincident):
            return coincident, np.full(len(coincident), 1.0 / len(coincident))
        np.divide(1.0, w, out=w)
    else:
        with np.errstate(over="ignore"):  # an exponent past -max-float: weight 0
            if spec.gaussian_squared_norm:
                w *= w
            np.exp(np.divide(w, -spec.kernel_scale, out=w), out=w)
    live = cloud.rows if w.min() > 0.0 else np.flatnonzero(w)
    return live, w if live is cloud.rows else w[live]


def cloud_weights(spec: WeightSpec, u, cloud):
    """Per-row weights of a PointCloud against an (m, d) block u of anchors.

    Returns CSR arrays (indptr, indices, weights) listing only the rows
    with positive weight: anchor j's row is
    indices/weights[indptr[j]:indptr[j + 1]]. For bounded families the
    listed rows are the support, found through the cloud's neighbour index
    in one call for the whole block, so downstream work is O(k) for knn and
    O(|ball|) for characteristic windows; the unbounded families score
    every row, anchor by anchor, and never build the index. idw decides
    coincidence on the same distances its weights use, so a gap that
    underflows to distance 0 counts as coincident instead of weighing inf.
    Every block u passes query_block, fit's blocks too.
    """
    anchors = query_block(u, cloud.d)
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
    elif len(anchors) == 1:  # fit's one-site block: the scan's own arrays
        idx, w = _scan_weights(spec, anchors[0], cloud)
        indptr = np.array([0, len(idx)])
    else:
        rows = [_scan_weights(spec, a, cloud) for a in anchors]
        indptr = np.cumsum([0] + [len(i) for i, _ in rows])
        idx = np.concatenate([np.empty(0, dtype=int)] + [i for i, _ in rows])
        w = np.concatenate([np.empty(0)] + [v for _, v in rows])
    return indptr, idx, w
