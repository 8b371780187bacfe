"""Knot vectors, B-spline bases, tensor-product spaces and spline functions.

Everything is 0-indexed. A global knot sequence t[0..n+p] (length n+p+1) of
degree p carries n basis functions; basis i is supported on the closed
interval [t[i], t[i+p+1]]. Basis values follow the half-open interval
convention with the 0/0 := 0 rule, so a clamped basis evaluated naively at
the right end b of its domain would vanish there; the evaluation entry
points special-case x == b to the left limit so clamped bases interpolate
both boundary coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import DomainError
from .kdtree import query_block


def _readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _degree(p) -> int:
    """p as an int, or a ValueError naming it: knot averages need an integer degree >= 1."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        raise ValueError(f"degree must be an integer, got {p!r}")
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    return int(p)


@dataclass(frozen=True, eq=False)
class KnotVector:
    """A polynomial degree plus a nondecreasing global knot sequence.

    The degree is an integer of at least 1 and every knot finite; n =
    len(knots) - degree - 1 basis functions span the domain [knots[degree],
    knots[n]], and no knot value occurs more than degree+1 times. Validity
    here is weaker than clampedness: ``is_regular`` reports whether both
    domain endpoints carry full multiplicity degree+1 and every basis
    function has nonempty support.
    """

    degree: int
    knots: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "degree", _degree(self.degree))
        object.__setattr__(self, "knots", _readonly(self.knots))
        t = self.knots
        if t.ndim != 1 or len(t) < self.degree + 2:
            raise ValueError(
                f"need at least degree+2 = {self.degree + 2} knots, got {t.shape}"
            )
        if not np.isfinite(t).all():
            raise ValueError(f"knots must be finite, got {t[~np.isfinite(t)].tolist()}")
        if np.any(np.diff(t) < 0):
            raise ValueError("knots must be nondecreasing")
        _, counts = np.unique(t, return_counts=True)
        if np.any(counts > self.degree + 1):
            raise ValueError(
                f"knot multiplicity exceeds degree+1 = {self.degree + 1}"
            )

    @property
    def n(self) -> int:
        """Number of basis functions carried by this vector."""
        return len(self.knots) - self.degree - 1

    @property
    def domain(self) -> tuple[float, float]:
        """Parametric interval [t[p], t[n]]."""
        return float(self.knots[self.degree]), float(self.knots[self.n])

    @cached_property
    def is_regular(self) -> bool:
        """True when the vector is clamped with nonempty basis supports.

        Requires n >= degree+1, full multiplicity degree+1 at both domain
        endpoints, and t[j] < t[j+degree+1] for every basis index j.
        """
        p, t, n = self.degree, self.knots, self.n
        if n < p + 1:
            return False
        if t[0] != t[p] or t[n] != t[n + p]:
            return False
        return bool(np.all(t[: n] < t[p + 1:]))


def make_uniform_regular(a: float, b: float, n: int, p: int) -> KnotVector:
    """Clamped knot vector on [a, b] with n basis functions of degree p.

    Both endpoints get multiplicity p+1 and the n-p-1 interior knots are
    uniformly spaced.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    if not np.isfinite(b - a):  # also an infinite end: knots and spans must be finite
        raise DomainError(f"[{a!r}, {b!r}] has width b - a = {b - a!r}, not a finite float")
    p = _degree(p)  # before p sizes any array
    if n < p + 1:
        raise ValueError(f"need n >= p+1 = {p + 1} basis functions, got {n}")
    ends = np.linspace(a, b, n - p + 1)
    if np.any(ends[1:] <= ends[:-1]):  # spans below the spacing of floats near a
        raise DomainError(f"[{a!r}, {b!r}] is too narrow for {n - p} distinct knot spans")
    interior = ends[1:-1]
    knots = np.concatenate([np.full(p + 1, a), interior, np.full(p + 1, b)])
    return KnotVector(p, knots)


def _find_spans(kv: KnotVector, x: np.ndarray) -> np.ndarray:
    """Half-open span indices: t[s] <= x < t[s+1], x == b mapped to the last span."""
    s = np.searchsorted(kv.knots, x, side="right") - 1
    return np.clip(s, kv.degree, kv.n - 1)


def _check_in_domain(space: TensorSplineSpace, pts: np.ndarray) -> None:
    for k, (kv, x) in enumerate(zip(space.axes, pts.T)):
        a, b = kv.domain
        rows = np.flatnonzero((x < a) | (x > b))[:4]
        if len(rows):
            raise DomainError(f"axis {k}: point(s) {x[rows]} at rows {rows.tolist()} "
                              f"outside domain [{a}, {b}]")


def _basis_rows(kv: KnotVector, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero basis block at each point of x.

    Returns (spans, rows) where rows[m, r] is the value of basis function
    spans[m]-p+r at x[m]. Uses the triangular recurrence over the nonzero
    block, which never divides by zero on nonempty spans. Cost O(p^2) per
    point, vectorized across points.
    """
    p, t = kv.degree, kv.knots
    spans = _find_spans(kv, x)
    m = len(x)
    rows = np.zeros((m, p + 1))
    rows[:, 0] = 1.0
    left = np.empty((m, p))
    right = np.empty((m, p))
    for j in range(1, p + 1):
        left[:, j - 1] = x - t[spans + 1 - j]
        right[:, j - 1] = t[spans + j] - x
        saved = np.zeros(m)
        for r in range(j):
            temp = rows[:, r] / (right[:, r] + left[:, j - 1 - r])
            rows[:, r] = saved + right[:, r] * temp
            saved = left[:, j - 1 - r] * temp
        rows[:, j] = saved
    return spans, rows


def knot_averages(kv: KnotVector) -> np.ndarray:
    """Running means of degree-many consecutive interior knots.

    Entry i averages knots t[i+1..i+p]. For a regular vector the sequence is
    nondecreasing and starts/ends exactly at the domain endpoints. These are
    the abscissae at which control-point estimators are anchored.
    """
    p, t = kv.degree, kv.knots
    return np.lib.stride_tricks.sliding_window_view(t[1 : kv.n + p], p).mean(axis=1)


@dataclass(frozen=True, eq=False)
class TensorSplineSpace:
    """Tensor product of regular univariate spline spaces, one per axis."""

    axes: tuple[KnotVector, ...]

    def __post_init__(self):
        axes = tuple(self.axes)
        object.__setattr__(self, "axes", axes)
        if len(axes) < 1:
            raise ValueError("need at least one axis")
        for k, kv in enumerate(axes):
            if not kv.is_regular:
                raise ValueError(f"axis {k}: knot vector is not regular")
            gaps = np.diff(kv.knots)
            gap = float(gaps[gaps > 0.0].min())
            if gap < np.finfo(float).tiny:  # basis recurrences divide by spans
                raise DomainError(f"axis {k}: knot spacing {gap!r} is subnormal")

    @classmethod
    def from_bounds(cls, lo, hi, n, degrees) -> "TensorSplineSpace":
        lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
        n = np.broadcast_to(np.atleast_1d(n), lo.shape)
        degrees = np.broadcast_to(np.atleast_1d(degrees), lo.shape)
        axes = []
        for k in range(len(lo)):
            try:
                axes.append(make_uniform_regular(lo[k], hi[k], int(n[k]), degrees[k]))
            except (DomainError, ValueError) as exc:  # named by axis, as the space's checks are
                raise type(exc)(f"axis {k}: {exc}") from None
        return cls(tuple(axes))

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(kv.degree for kv in self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(kv.n for kv in self.axes)

    @property
    def dim(self) -> int:
        return int(np.prod(self.shape))

    @property
    def domain(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([kv.domain[0] for kv in self.axes])
        hi = np.array([kv.domain[1] for kv in self.axes])
        return lo, hi

    @cached_property
    def knot_average_grids(self) -> tuple[np.ndarray, ...]:
        return tuple(knot_averages(kv) for kv in self.axes)


@dataclass(frozen=True, eq=False)
class SplineFunction:
    """A tensor-product spline: a space plus its grid of finite coefficients."""

    space: TensorSplineSpace
    coefficients: np.ndarray

    def __post_init__(self):
        c = _readonly(self.coefficients)
        if c.shape != self.space.shape:
            raise ValueError(
                f"coefficient shape {c.shape} does not match space shape {self.space.shape}"
            )
        if not np.isfinite(c).all():  # the cell only on failure
            cell = tuple(int(i) for i in np.argwhere(~np.isfinite(c))[0])
            raise ValueError(f"non-finite coefficient {c[cell]} at {cell}")
        object.__setattr__(self, "coefficients", c)


def _windows(space: TensorSplineSpace, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Active coefficients and their basis values at a batch of points.

    Returns (flat, vals), both (m, prod(p_k + 1)): the flat C-order indices
    of the local coefficient block around each point's knot span (its first
    index plus fixed offsets) and the tensor basis values that weigh them
    (outer products, axis by axis), for points in the domain.
    """
    m = len(pts)
    base, offsets, vals = 0, np.zeros(1, dtype=np.intp), None
    for k, kv in enumerate(space.axes):
        spans, rows = _basis_rows(kv, pts[:, k])
        base = base * kv.n + (spans - kv.degree)
        offsets = (offsets[:, None] * kv.n + np.arange(kv.degree + 1)).reshape(-1)
        if vals is not None:  # -1 cannot size an empty batch
            rows = (vals[:, :, None] * rows[:, None, :]).reshape(m, len(offsets))
        vals = rows
    return base[:, None] + offsets, vals


# Rows per block of a batch evaluation. spline_eval of 10^5 2-D points at
# degree 2, median time and tracemalloc peak on a 2-vCPU host: 2048 rows 36 ms,
# 1.3 MiB; 4096 to 32768 rows 33-39 ms, 1.6 to 7.8 MiB; all in one 53 ms, 22 MiB.
EVAL_BLOCK = 8192


def _stream(space: TensorSplineSpace, u, step, width: int = 1) -> np.ndarray:
    """(width, m) array of step(*_windows(block)) over blocks of EVAL_BLOCK
    points, once the whole batch u has passed query_block and the domain
    check: O(EVAL_BLOCK * F) memory beyond the output, whatever m."""
    pts = query_block(u, space.d)
    _check_in_domain(space, pts)
    out = np.empty((width, len(pts)))
    for start in range(0, len(pts), EVAL_BLOCK):
        rows = slice(start, start + EVAL_BLOCK)
        out[:, rows] = step(*_windows(space, pts[rows]))
    return out


def spline_eval(f: SplineFunction, u):
    """Evaluate a spline at a batch of points, as an (m,) array.

    Accepts an (m, d) batch, or an (m,) batch when d == 1, as query_block
    does; a single point is a batch of one. Each evaluation touches only
    the local block of F = prod(p_k + 1) coefficients around the containing
    knot span, in blocks of rows: O(EVAL_BLOCK * F) memory per call. Values
    are convex combinations of coefficients, clipped to their range as in fit.
    """
    return _stream(f.space, u, partial(_combine, f.coefficients.reshape(-1)))[0]


def _combine(c: np.ndarray, flat: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Spline values from flat coefficients c and the windows of _windows:
    the convex combinations, clipped to the range of c."""
    gathered = c[flat]
    with np.errstate(over="ignore"):
        out = np.multiply(gathered, vals, out=gathered).sum(axis=1)
    np.clip(out, c.min(), c.max(), out=out)
    return out


def insert_knot(f: SplineFunction, axis: int, z: float) -> SplineFunction:
    """Insert one knot into an axis without changing the spline's values.

    Boehm's algorithm: new slab i along the axis is alpha_i * P_i +
    (1 - alpha_i) * P_{i-1}, with alpha_i = 1 up to span - p, 0 from
    span + 1 on and (z - t_i) / (t_{i+p} - t_i) between, for t[span] <= z
    < t[span + 1]; all other axes are untouched. The knot must lie strictly
    inside the domain and its multiplicity after insertion may not exceed
    degree+1.
    """
    space = f.space
    if not 0 <= axis < space.d:
        raise IndexError(f"axis {axis} out of range [0, {space.d})")
    kv = space.axes[axis]
    p, t, n = kv.degree, kv.knots, kv.n
    a, b = kv.domain
    z = float(z)
    if not a < z < b:
        raise DomainError(f"knot {z} not strictly inside ({a}, {b})")
    if np.count_nonzero(t == z) >= p + 1:
        raise ValueError(f"knot {z} already has multiplicity {p + 1}")
    span = int(np.searchsorted(t, z, side="right") - 1)
    new_knots = np.insert(t, span + 1, z)
    alpha = np.zeros(n + 1)
    alpha[:span - p + 1] = 1.0
    mid = np.arange(span - p + 1, span + 1)
    alpha[mid] = (z - t[mid]) / (t[mid + p] - t[mid])
    alpha = alpha.reshape((n + 1,) + (1,) * (space.d - 1))
    c = np.moveaxis(f.coefficients, axis, 0)
    pad = np.zeros((1,) + c.shape[1:])
    c = np.concatenate([pad, c, pad])  # P_{-1} and P_n, each weighted 0
    coeffs = np.moveaxis(alpha * c[1:] + (1.0 - alpha) * c[:-1], 0, axis)
    new_axes = list(space.axes)
    new_axes[axis] = KnotVector(p, new_knots)
    return SplineFunction(TensorSplineSpace(tuple(new_axes)), coeffs)
