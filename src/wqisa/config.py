"""Run configuration shared by the CLI subcommands."""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import dataclass, field, fields, replace

from .fitting import EMPTY_SUPPORT
from .inference import ALPHA_RANGE
from .weights import parse_weight

NORMALIZE = ("none", "max", "range")
_type_hints = functools.cache(typing.get_type_hints)  # once per class, not per config


def _int_list(text: str) -> list[int]:
    return [int(p) for p in str(text).split(",")]


def _int_range(text: str) -> list[int]:
    """lo:hi, both ends included, or a comma list."""
    lo, colon, hi = str(text).partition(":")
    return list(range(int(lo), int(hi) + 1)) if colon else _int_list(text)


def _flag(flag: str, text: str, default=None, valid=None, **kind):
    """A flagged field: text is its help, kind its argparse settings, choices its allowed
    values, valid an optional (test, wording) range check of its value."""
    return field(default_factory=lambda: list(default) if isinstance(default, list) else default,
                 metadata={"flag": flag, "kind": dict(help=text, **kind), "valid": valid})


def _fits(value, hint) -> bool:
    """Whether a value has an annotated type: exactly (a bool is no int), or an int for a float."""
    args = typing.get_args(hint)  # a list's item type or a union's members
    if typing.get_origin(hint) is list:
        return type(value) is list and all(_fits(v, *args) for v in value)
    return any(_fits(value, a) for a in args) or type(value) in (hint, int if hint is float else hint)


@dataclass
class FitConfig:
    """Everything a fit/eval/cv run needs, JSON-loadable with CLI overrides; checked on creation."""

    data: str | None = _flag("--data", "cloud file (last column is the response)")
    degree: list[int] = _flag("--degree", "degree per axis, e.g. 2 or 2,3", [2], type=_int_list)
    n: list[int] = _flag("--n", "basis count per axis, e.g. 15 or 12,8", [10], type=_int_list)
    weight: str = _flag("--weight", "weight spec, e.g. knn:k=9 or gaussian:sigma=0.4", "knn:k=10")
    policy: str = _flag("--policy", "empty-support policy", "error", choices=EMPTY_SUPPORT)
    drop_outside: bool = False
    domain: list[list[float]] | None = None  # [[lo, hi], ...] per axis
    seed: int = _flag("--seed", "RNG seed", 0, type=int)
    alpha: float = _flag("--alpha", "band miss probability (0.05 = 95%% band)", 0.05,
                         ALPHA_RANGE, type=float)
    sigma_eps: float | None = _flag("--sigma-eps", "known noise standard deviation", None,
                                    (lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0"),
                                    type=float)
    outlier_filter: bool = _flag("--outlier-filter", "drop interquartile-rule outliers before "
                                 "fitting", False, action="store_true")
    outlier_factor: float = _flag("--outlier-factor", "interquartile whisker factor", 1.5,
                                  (lambda v: v >= 0.0, ">= 0"), type=float)
    folds: int = _flag("--folds", "cross-validation folds", 5, (lambda v: v >= 2, ">= 2"), type=int)
    repeats: int = _flag("--repeats", "cross-validation repeats", 1, (lambda v: v >= 1, ">= 1"),
                         type=int)
    cv_grid: list[int] | None = _flag("--grid", "candidate n values, lo:hi or comma list", None,
                                      (len, "nonempty"), type=_int_range)
    grid_density: int | None = _flag("--density", "evaluation grid points per axis", None,
                                     (lambda v: v >= 1, ">= 1"), type=int)
    normalize: str = _flag("--normalize", "residual scaling in reports", "none", choices=NORMALIZE)
    out: str | None = _flag("--out", "output file or directory")

    def __post_init__(self):
        hints = _type_hints(type(self))
        for f in fields(self):
            value, allowed = getattr(self, f.name), f.metadata.get("kind", {}).get("choices")
            if not _fits(value, hints[f.name]) or allowed and value not in allowed:
                raise ValueError(f"{f.name} must be {allowed or f.type}, got {value!r}")
            test, wording = f.metadata.get("valid") or (None, None)
            if test and value is not None and not test(value):
                raise ValueError(f"{f.name} must be {wording}, got {value!r}")
        parse_weight(self.weight)

    @classmethod
    def load(cls, path) -> "FitConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ValueError("top level must be an object of config keys")
            bad = set(raw) - {f.name for f in fields(cls)}
            if bad:
                raise ValueError(f"unknown config keys: {sorted(bad)}")
            return cls(**raw)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def override(self, **kwargs) -> "FitConfig":
        """Copy with every non-None keyword replacing its field."""
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})
