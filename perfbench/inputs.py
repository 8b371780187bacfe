"""Benchmark inputs, made without the code under test.

Clouds come from a seeded numpy generator and are written with Python's
shortest round-trip float repr, so the program parses back exactly the
values the reference computations use.
"""

from __future__ import annotations

import numpy as np

NOISE_SIGMA = 0.2


def cloud_2d(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform cloud on [-1, 1]^2 with y = sin(pi x1) cos(pi x2) + 0.2 eps."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    y = np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
    y = y + NOISE_SIGMA * rng.standard_normal(n)
    return x, y


def write_cloud(path, x: np.ndarray, y: np.ndarray) -> None:
    """One 'x_1 .. x_d y' record per line, floats in shortest round-trip form."""
    rows = np.column_stack([x.reshape(len(y), -1), y]).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(map(repr, row)) + "\n" for row in rows)


def read_cloud(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a whitespace-separated cloud; the last column is y."""
    with open(path, "r", encoding="utf-8") as fh:
        data = np.array([[float(v) for v in line.split()] for line in fh if line.strip()])
    return data[:, :-1], data[:, -1]
