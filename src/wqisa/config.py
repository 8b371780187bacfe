"""Run configuration shared by the CLI subcommands."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace


@dataclass
class FitConfig:
    """Everything a fit/eval/cv run needs, JSON-loadable with CLI overrides."""

    data: str | None = None
    degree: list[int] = field(default_factory=lambda: [2])
    n: list[int] = field(default_factory=lambda: [10])
    weight: str = "knn:k=10"
    policy: str = "error"
    drop_outside: bool = False
    domain: list[list[float]] | None = None  # [[lo, hi], ...] per axis
    seed: int = 0
    alpha: float = 0.05
    sigma_eps: float | None = None
    outlier_filter: bool = False
    outlier_factor: float = 1.5
    folds: int = 5
    repeats: int = 1
    cv_grid: list[int] | None = None
    grid_density: int | None = None
    normalize: str = "none"  # residual scaling in reports: none | max | range
    out: str | None = None

    @classmethod
    def load(cls, path) -> "FitConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        bad = set(raw) - known
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        return cls(**raw)

    def override(self, **kwargs) -> "FitConfig":
        """Copy with every non-None keyword replacing its field."""
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})
