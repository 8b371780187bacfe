"""Reading, writing and generating point clouds.

Text clouds are one record per line, with the response in the last column
and '#' starting a comment. A file is either whitespace- or
comma-separated throughout. Floats are written with shortest round-trip
decimals and read with numpy's correctly rounded parser, so save followed
by load is bit-exact.
"""

from __future__ import annotations

import io
import math
import os
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


def load_cloud(path) -> PointCloud:
    """Parse a cloud file; raises ParseError with the offending line number.

    The separator is decided once, from the first data line: ',' if that
    line has one, whitespace otherwise. The file then goes through numpy's
    C reader in one pass, a whitespace file by its path (read in chunks), a
    comma file as its data lines. A pipe is read once, as bytes, and then
    read like a comma file. Only a file the reader rejects, or one holding
    a non-finite value, is read a second time, line by line, to name its
    first bad line.
    """
    raw = data = None
    try:  # strict UTF-8, comments too: a bad byte fails the read, and its line is named
        with open(path, "r", encoding="utf-8") as fh:
            if not fh.seekable():  # a pipe cannot be read again: keep its bytes
                raw = fh.buffer.read()
                fh = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
            sep = _separator(next(filter(_data_part, fh)))  # StopIteration: no data rows
            if raw or sep or os.fsdecode(path).endswith((".gz", ".bz2", ".xz", ".lzma")):
                # as lines: numpy reads a whitespace-only comma line as one
                # empty field, and would decompress a file named so
                fh.seek(0)
                source = filter(_data_part, fh)
            else:  # by path, read in chunks; a relative one may pass for a URL
                source = os.fsdecode(os.path.abspath(path))
            data = np.loadtxt(source, delimiter=sep, comments="#", ndmin=2, encoding="utf-8")
    except (StopIteration, ValueError):
        pass
    if data is None or data.shape[1] < 2 or not np.isfinite(data).all():
        raise _first_bad_line(path, raw)
    return PointCloud(data[:, :-1], data[:, -1])


def _separator(line: str) -> str | None:
    """The separator of a file whose first data line this is: ',' if the
    line has one; None, any whitespace, otherwise."""
    return "," if "," in _data_part(line) else None


def _first_bad_line(path, raw: bytes | None) -> ParseError:
    """The error for a file that load_cloud rejected: each line goes through
    the same checks on its own, so the first line that breaks a rule is the
    line the whole-file read stumbled on. A pipe's bytes are given, since it
    cannot be opened again."""
    width = sep = None
    with io.TextIOWrapper(open(path, "rb") if raw is None else io.BytesIO(raw),
                          encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode()
            except UnicodeEncodeError:  # a byte escaped on reading
                return ParseError("holds bytes that are not UTF-8", line=lineno)
            text = _data_part(line)
            if not text:
                continue
            if width is None:
                sep = _separator(text)
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
    return ParseError(f"cannot parse {path}" if width else f"no data rows in {path}")


def save_cloud(cloud: PointCloud, path) -> None:
    """Write a cloud with shortest round-trip decimal serialization: comma
    separated when the name ends in .csv, whitespace separated otherwise."""
    write_rows(path, cloud.records, sep="," if os.fsdecode(path).endswith(".csv") else " ")


def write_rows(path, rows, sep: str = ",", header: str | None = None) -> None:
    """Write a 2-D array as lines of shortest round-trip decimals, after an optional header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in np.asarray(rows, dtype=float):
            fh.write(sep.join(map(repr, row.tolist())) + "\n")


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


def gen_synthetic(kind: str, n: int, seed: int = 0, *, sigma: float = 0.3,
                  outlier_fraction: float = 0.05,
                  outlier_magnitude: float = 10.0) -> SyntheticData:
    """Seeded benchmark clouds, x uniform on [-2, 2].

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
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=n)

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
