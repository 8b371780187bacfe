"""Reading, writing and generating point clouds.

Text clouds are one record per line, with the response in the last column
and '#' starting a comment. A file is either whitespace- or
comma-separated throughout. Floats are written with shortest round-trip
decimals and read with numpy's correctly rounded parser, so save followed
by load is bit-exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParseError
from .fitting import PointCloud

GENERATOR_KINDS = ("sine", "sine_outliers", "variable_noise")


def _data_part(line: str) -> str:
    """A line without its comment and surrounding whitespace; empty when
    the line holds no data."""
    return line.split("#", 1)[0].strip()


def load_cloud(path, format: str = "auto") -> PointCloud:
    """Parse a cloud file; raises ParseError with the offending line number.

    The separator is decided once, from the first data line: ',' for csv,
    whitespace for xyz, and for auto ',' if that line has one. That line
    and the rest of the file then go through numpy's C reader in one pass.
    Only a file the reader rejects, or one holding a non-finite value, is
    read a second time, line by line, to name its first bad line.
    """
    if format not in ("auto", "xyz", "csv"):
        raise ValueError(f"unknown format {format!r}")
    with open(path, "r", encoding="utf-8") as fh:
        first = next(filter(_data_part, fh), None)
        if first is None:
            raise ParseError(f"no data rows in {path}")
        comma = format == "csv" or (format == "auto" and "," in _data_part(first))
        sep = "," if comma else None
        lines = itertools.chain([first], fh)
        if comma:  # numpy reads a whitespace-only line as one empty field there
            lines = filter(_data_part, lines)
        try:
            data = np.loadtxt(lines, delimiter=sep, comments="#", ndmin=2)
        except ValueError:
            data = None
    if data is None or data.shape[1] < 2 or not np.isfinite(data).all():
        raise _first_bad_line(path, sep)
    return PointCloud(data[:, :-1], data[:, -1])


def _first_bad_line(path, sep) -> ParseError:
    """The error for a file that load_cloud rejected: each data line goes
    through the same reader on its own, so the first line that breaks a
    rule is the line the whole-file parse stumbled on."""
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = _data_part(line)
            if not text:
                continue
            try:
                row = np.loadtxt([line], delimiter=sep, comments="#", ndmin=1)
            except ValueError:
                return ParseError(f"cannot parse {text!r} as numbers", line=lineno)
            if len(row) < 2:
                return ParseError(f"need at least 2 columns, got {len(row)}", line=lineno)
            width = width or len(row)
            if len(row) != width:
                return ParseError(f"expected {width} columns, got {len(row)}", line=lineno)
            if not np.isfinite(row).all():
                return ParseError(f"non-finite value in {text!r}", line=lineno)
    return ParseError(f"cannot parse {path}")


def save_cloud(cloud: PointCloud, path, format: str = "xyz") -> None:
    """Write a cloud with shortest round-trip decimal serialization."""
    sep = "," if format == "csv" else " "
    with open(path, "w", encoding="utf-8") as fh:
        for row in cloud.records:
            fh.write(sep.join(repr(float(v)) for v in row) + "\n")


def variable_noise_scale(x) -> np.ndarray:
    """Smoothly varying noise scale used by the variable_noise generator."""
    x = np.asarray(x, dtype=float)
    return np.exp(-1.0 / (4.0 * (1.0 + np.exp(4.0 * x - 2.0))))


@dataclass(frozen=True)
class SyntheticData:
    """A generated cloud plus the ground truth that produced it."""

    cloud: PointCloud
    truth: Callable[[np.ndarray], np.ndarray]
    outlier_mask: np.ndarray | None = None


def gen_synthetic(kind: str, n: int, seed: int = 0, *, x_low: float = -2.0,
                  x_high: float = 2.0, sigma: float = 0.3,
                  outlier_fraction: float = 0.05,
                  outlier_magnitude: float = 10.0) -> SyntheticData:
    """Seeded benchmark clouds.

    sine            y = sin(pi x) + gaussian noise of scale sigma
    sine_outliers   same, then a fraction of rows replaced by values of
                    size outlier_magnitude with random sign
    variable_noise  y = sin(pi x / 2) + noise whose scale drifts with x

    Identical arguments give bit-identical clouds.
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown kind {kind!r}; pick one of {GENERATOR_KINDS}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not x_low < x_high:
        raise ValueError(f"need x_low < x_high, got {x_low}, {x_high}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(x_low, x_high, size=n)

    if kind == "variable_noise":
        def truth(t):
            return np.sin(math.pi / 2.0 * np.asarray(t, dtype=float))
        y = truth(x) + variable_noise_scale(x) * rng.standard_normal(n)
        return SyntheticData(PointCloud(x, y), truth)

    def truth(t):
        return np.sin(math.pi * np.asarray(t, dtype=float))

    y = truth(x) + sigma * rng.standard_normal(n)
    if kind == "sine":
        return SyntheticData(PointCloud(x, y), truth)

    if not 0.0 <= outlier_fraction <= 1.0:
        raise ValueError(f"outlier_fraction must be in [0, 1], got {outlier_fraction}")
    count = int(round(outlier_fraction * n))
    mask = np.zeros(n, dtype=bool)
    if count:
        chosen = rng.choice(n, size=count, replace=False)
        mask[chosen] = True
        y = y.copy()
        y[chosen] = rng.choice([-1.0, 1.0], size=count) * outlier_magnitude
    return SyntheticData(PointCloud(x, y), truth, outlier_mask=mask)
