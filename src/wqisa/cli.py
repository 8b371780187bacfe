"""Command-line interface.

Subcommands: gen, fit, eval, cv, metrics, demo. Every run takes an optional
--config JSON file whose values are overridden by explicit flags. Failures
print a machine-readable {"error": ...} object and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .config import FitConfig, parse_weight
from .errors import ParseError
from .fitting import (FitPolicy, PointCloud, classify_convexity,
                      classify_monotone, evaluate, fit, global_bounds,
                      iqr_outlier_filter)
from .inference import (NoiseModel, _band, coefficient_covariance,
                        estimate_noise_sigma, kfold_cv, select_parsimonious,
                        variance_at)
from .io import gen_synthetic, load_cloud, save_cloud
from .metrics import (band_coverage, directed_hausdorff_normalized, dispersion,
                      jaccard)
from .splines import KnotVector, SplineFunction, TensorSplineSpace
from .weights import WeightSpec


def _int_list(text: str) -> list[int]:
    return [int(p) for p in str(text).split(",")]


def _space_for(cloud: PointCloud, cfg: FitConfig, n=None) -> TensorSplineSpace:
    degrees = list(cfg.degree)
    counts = list(n if n is not None else cfg.n)
    if len(degrees) == 1:
        degrees = degrees * cloud.d
    if len(counts) == 1:
        counts = counts * cloud.d
    if cfg.domain is not None:
        lo = [float(pair[0]) for pair in cfg.domain]
        hi = [float(pair[1]) for pair in cfg.domain]
    else:
        lo, hi = cloud.bbox
    return TensorSplineSpace.from_bounds(lo, hi, counts, degrees)


def _policy(cfg: FitConfig) -> FitPolicy:
    return FitPolicy(empty_support=cfg.policy, drop_outside=cfg.drop_outside)


def _shape_flags(model, cloud) -> dict:
    coeffs = model.spline.coefficients
    flags = {}
    for axis in range(model.space.d):
        mono = classify_monotone(coeffs, axis=axis, atol=1e-12)
        entry = {"monotone": mono.direction, "constant": mono.constant}
        if model.space.d == 1:
            conv = classify_convexity(model.space.axes[0], coeffs, atol=1e-12)
            entry["convexity"] = conv.shape
            entry["affine"] = conv.affine
        flags[f"axis_{axis}"] = entry
    return flags


def _noise_model(cfg: FitConfig, model, cloud) -> NoiseModel:
    if cfg.sigma_eps is not None:
        return NoiseModel(float(cfg.sigma_eps))
    return estimate_noise_sigma(model, cloud)


def _normalized_pair(cloud, pred, mode: str):
    if mode == "max":
        scale = float(np.max(np.abs(cloud.y))) or 1.0
    elif mode == "range":
        scale = float(np.ptp(cloud.y)) or 1.0
    elif mode == "none":
        scale = 1.0
    else:
        raise ValueError(f"unknown normalize mode {mode!r}")
    return cloud.y / scale, np.asarray(pred) / scale


def _report(cfg: FitConfig, model, cloud, timings: dict) -> dict:
    t0 = time.perf_counter()
    pred = evaluate(model, np.clip(cloud.x, *model.space.domain))
    obs, prd = _normalized_pair(cloud, pred, cfg.normalize)
    err = dispersion(obs, prd).to_dict()
    err["normalize"] = cfg.normalize
    gb = global_bounds(model, cloud)
    report = {
        "config": cfg.to_dict(),
        "error_report": err,
        "bounds": {"lo": gb.lo, "hi": gb.hi, "verified": gb.verified},
        "shape_flags": _shape_flags(model, cloud),
        "timings": dict(timings),
        "effective_count": model.effective_count,
    }
    report["timings"]["report_s"] = time.perf_counter() - t0
    return report


def _save_model(model, path, sigma_eps=None) -> None:
    space = model.space
    payload = {
        "degrees": list(space.degrees),
        "knots": [list(map(float, kv.knots)) for kv in space.axes],
        "coefficients": model.spline.coefficients.tolist(),
        "weight": model.weight.label(),
        "policy": {"empty_support": model.policy.empty_support,
                   "drop_outside": model.policy.drop_outside},
        "effective_count": model.effective_count,
        "support_sizes": model.diagnostics.support_sizes.tolist(),
        "fallback_cells": [[list(k), int(v)]
                           for k, v in model.diagnostics.fallback_cells.items()],
        "sigma_eps": sigma_eps,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


_MODEL_FIELDS = ("degrees", "knots", "coefficients", "weight", "policy",
                 "effective_count", "support_sizes", "fallback_cells")


def load_model(path):
    """Read a model.json written by fit. A missing field, a non-finite
    coefficient or a value the model types reject raises ParseError naming
    the file."""
    from .fitting import FitDiagnostics, WqisaModel
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: not a model object")
    for key in _MODEL_FIELDS:
        if key not in raw:
            raise ParseError(f"{path}: missing model field {key!r}")
    try:
        if len(raw["degrees"]) != len(raw["knots"]):
            raise ParseError(f"{path}: {len(raw['degrees'])} degrees for "
                             f"{len(raw['knots'])} knot vectors")
        coefficients = np.array(raw["coefficients"], dtype=float)
        bad = np.argwhere(~np.isfinite(coefficients))
        if len(bad):
            cell = tuple(int(i) for i in bad[0])
            raise ParseError(f"{path}: non-finite coefficient {coefficients[cell]} at {cell}")
        axes = tuple(KnotVector(p, np.array(knots))
                     for p, knots in zip(raw["degrees"], raw["knots"]))
        space = TensorSplineSpace(axes)
        diag = FitDiagnostics(
            estimator_calls=space.dim,
            support_sizes=np.array(raw["support_sizes"]),
            fallback_cells={tuple(k): v for k, v in raw["fallback_cells"]},
        )
        model = WqisaModel(
            spline=SplineFunction(space, coefficients),
            weight=parse_weight(raw["weight"]),
            policy=FitPolicy(**raw["policy"]),
            effective_count=raw["effective_count"],
            diagnostics=diag,
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return model, raw.get("sigma_eps")


def _eval_grid(space: TensorSplineSpace, density: int | None) -> np.ndarray:
    if density is None:
        density = 256 if space.d == 1 else 64
    lo, hi = space.domain
    axes = [np.linspace(lo[k], hi[k], density) for k in range(space.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _write_grid_csv(path, pts, f, var, lo, hi) -> None:
    d = pts.shape[1]
    header = ",".join([f"u_{k + 1}" for k in range(d)] + ["f", "var", "lo", "hi"])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for m in range(len(pts)):
            cols = [repr(float(v)) for v in pts[m]]
            cols += [repr(float(f[m])), repr(float(var[m])),
                     repr(float(lo[m])), repr(float(hi[m]))]
            fh.write(",".join(cols) + "\n")


def _outdir(cfg: FitConfig) -> str:
    out = cfg.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _fit_pipeline(cfg: FitConfig, cloud: PointCloud, timings: dict):
    weight = cfg.weight_spec()
    policy = _policy(cfg)
    space = _space_for(cloud, cfg)
    if cfg.outlier_filter:
        t0 = time.perf_counter()
        cloud = iqr_outlier_filter(cloud, space, weight, cfg.outlier_factor, policy)
        timings["outlier_filter_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    model = fit(cloud, space, weight, policy)
    timings["fit_s"] = time.perf_counter() - t0
    return model, cloud


def cmd_gen(cfg: FitConfig, args) -> dict:
    data = gen_synthetic(args.kind, args.count, cfg.seed, sigma=args.sigma,
                         outlier_fraction=args.outlier_fraction,
                         outlier_magnitude=args.outlier_magnitude)
    out = cfg.out or "cloud.xyz"
    save_cloud(data.cloud, out, format="csv" if out.endswith(".csv") else "xyz")
    return {"written": out, "kind": args.kind, "n": data.cloud.n, "seed": cfg.seed}


def cmd_fit(cfg: FitConfig, args) -> dict:
    if not cfg.data:
        raise ValueError("fit needs --data (or a config with a data path)")
    timings = {}
    t_all = time.perf_counter()
    t0 = time.perf_counter()
    cloud = load_cloud(cfg.data)
    timings["load_s"] = time.perf_counter() - t0
    model, used = _fit_pipeline(cfg, cloud, timings)
    report = _report(cfg, model, used, timings)
    report["timings"]["total_s"] = time.perf_counter() - t_all
    out = _outdir(cfg)
    _save_model(model, os.path.join(out, "model.json"), sigma_eps=cfg.sigma_eps)
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def cmd_eval(cfg: FitConfig, args) -> dict:
    model, stored_sigma = load_model(args.model)
    if not cfg.data:
        raise ValueError("eval needs --data (the fitting cloud) for the bands")
    cloud = load_cloud(cfg.data)
    pts = _eval_grid(model.space, cfg.grid_density)
    f = evaluate(model, pts)
    sigma = cfg.sigma_eps if cfg.sigma_eps is not None else stored_sigma
    if sigma is not None:
        noise = NoiseModel(float(sigma))
    else:
        noise = estimate_noise_sigma(model, cloud)
    cov = coefficient_covariance(cloud, model.space, model.weight, noise,
                                 model.policy)
    var = variance_at(model, cov, pts)
    lo, hi = _band(f, var, cfg.alpha)
    out = cfg.out or "grid.csv"
    _write_grid_csv(out, pts, f, var, lo, hi)
    return {"written": out, "rows": len(pts), "sigma_eps": noise.sigma_eps,
            "sigma_source": noise.source, "alpha": cfg.alpha}


def cmd_cv(cfg: FitConfig, args) -> dict:
    if not cfg.data:
        raise ValueError("cv needs --data (or a config with a data path)")
    cloud = load_cloud(cfg.data)
    grid = cfg.cv_grid
    if args.grid:
        if ":" in args.grid:
            lo, hi = args.grid.split(":")
            grid = list(range(int(lo), int(hi) + 1))
        else:
            grid = _int_list(args.grid)
    if not grid:
        raise ValueError("cv needs --grid lo:hi or a cv_grid config entry")
    weight = cfg.weight_spec()
    policy = _policy(cfg)

    def fit_candidate(train, n):
        space = _space_for(cloud, cfg, n=[n])
        return fit(train, space, weight, policy)

    result = kfold_cv(cloud, grid, fit_candidate, folds=cfg.folds,
                      repeats=cfg.repeats, seed=cfg.seed)
    out = _outdir(cfg)
    curve = os.path.join(out, "cv.csv")
    with open(curve, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,score\n")
        for cand, score in zip(result.grid, result.scores):
            fh.write(f"{cand},{repr(float(score))}\n")
    best = {"best": result.best, "parsimonious": select_parsimonious(result),
            "folds": result.folds, "repeats": result.repeats,
            "seed": cfg.seed, "written": curve}
    with open(os.path.join(out, "best.json"), "w", encoding="utf-8") as fh:
        json.dump(best, fh)
    return best


def cmd_metrics(cfg: FitConfig, args) -> dict:
    if not cfg.data:
        raise ValueError("metrics needs --data")
    cloud = load_cloud(cfg.data)
    report: dict = {"normalize": cfg.normalize}
    if args.model:
        model, stored_sigma = load_model(args.model)
        pred = evaluate(model, np.clip(cloud.x, *model.space.domain))
        obs, prd = _normalized_pair(cloud, pred, cfg.normalize)
        report["error_report"] = dispersion(obs, prd).to_dict()
        grid = _eval_grid(model.space, cfg.grid_density)
        samples = np.hstack([grid, np.asarray(evaluate(model, grid)).reshape(-1, 1)])
        report["directed_hausdorff"] = directed_hausdorff_normalized(
            cloud.records, samples, cloud)
        report["jaccard"] = jaccard(cloud.records, samples)
        sigma = cfg.sigma_eps if cfg.sigma_eps is not None else stored_sigma
        if sigma is not None:
            cov = coefficient_covariance(cloud, model.space, model.weight,
                                         NoiseModel(float(sigma)), model.policy)
            report["band_coverage"] = band_coverage(cloud, model, cov, alpha=cfg.alpha)
    elif args.data2:
        other = load_cloud(args.data2)
        if other.n == cloud.n:
            obs, prd = _normalized_pair(cloud, other.y, cfg.normalize)
            report["error_report"] = dispersion(obs, prd).to_dict()
        report["directed_hausdorff"] = directed_hausdorff_normalized(
            cloud.records, other.records, cloud)
        report["jaccard"] = jaccard(cloud.records, other.records)
    else:
        raise ValueError("metrics needs --model or --data2")
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        report["written"] = cfg.out
    return report


def cmd_demo(cfg: FitConfig, args) -> dict:
    """End-to-end run: generate, cross-validate, fit, band, report."""
    out = _outdir(cfg)
    sigma = args.sigma
    data = gen_synthetic("sine", args.count, cfg.seed, sigma=sigma)
    cloud_path = os.path.join(out, "cloud.xyz")
    save_cloud(data.cloud, cloud_path)
    cfg = cfg.override(data=cloud_path, sigma_eps=sigma, out=out)
    cv_args = argparse.Namespace(grid=args.grid)
    best = cmd_cv(cfg, cv_args)
    cfg = cfg.override(n=[int(best["best"])])
    report = cmd_fit(cfg, args)
    eval_args = argparse.Namespace(model=os.path.join(out, "model.json"))
    grid_info = cmd_eval(cfg.override(out=os.path.join(out, "grid.csv")), eval_args)
    return {"best_n": best["best"], "report": report, "grid": grid_info,
            "outdir": out}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--data", help="cloud file (last column is the response)")
    sub.add_argument("--degree", type=_int_list, help="degree per axis, e.g. 2 or 2,3")
    sub.add_argument("--n", type=_int_list, help="basis count per axis, e.g. 15 or 12,8")
    sub.add_argument("--weight", help="weight spec, e.g. knn:k=9 or gaussian:sigma=0.4")
    sub.add_argument("--policy", choices=["error", "nearest"],
                     help="empty-support policy")
    sub.add_argument("--seed", type=int, help="RNG seed")
    sub.add_argument("--alpha", type=float, help="band miss probability (0.05 = 95%% band)")
    sub.add_argument("--sigma-eps", dest="sigma_eps", type=float,
                     help="known noise standard deviation")
    sub.add_argument("--out", help="output file or directory")
    sub.add_argument("--normalize", choices=["none", "max", "range"],
                     help="residual normalization in reports")
    sub.add_argument("--density", dest="grid_density", type=int,
                     help="evaluation grid points per axis")
    sub.add_argument("--folds", type=int, help="cross-validation folds")
    sub.add_argument("--repeats", type=int, help="cross-validation repeats")
    sub.add_argument("--outlier-filter", dest="outlier_filter", action="store_true",
                     default=None, help="drop interquartile-rule outliers before fitting")
    sub.add_argument("--outlier-factor", dest="outlier_factor", type=float,
                     help="interquartile whisker factor")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wqisa",
                                 description="Spline approximation of noisy point "
                                             "clouds by weighted local averaging")
    subs = ap.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="write a synthetic benchmark cloud")
    gen.add_argument("--kind", default="sine",
                     choices=["sine", "sine_outliers", "variable_noise"])
    gen.add_argument("--count", type=int, default=300, help="number of points")
    gen.add_argument("--sigma", type=float, default=0.3, help="noise scale")
    gen.add_argument("--outlier-fraction", dest="outlier_fraction", type=float, default=0.05)
    gen.add_argument("--outlier-magnitude", dest="outlier_magnitude", type=float, default=10.0)
    _add_common(gen)

    fit_p = subs.add_parser("fit", help="fit a spline and write model + report")
    _add_common(fit_p)

    ev = subs.add_parser("eval", help="sample a fitted model on a grid with bands")
    ev.add_argument("--model", required=True, help="model.json from fit")
    _add_common(ev)

    cv = subs.add_parser("cv", help="cross-validate the basis count")
    cv.add_argument("--grid", help="candidate n values, lo:hi or comma list")
    _add_common(cv)

    met = subs.add_parser("metrics", help="compare a cloud against a model or cloud")
    met.add_argument("--model", help="model.json from fit")
    met.add_argument("--data2", help="second cloud file")
    _add_common(met)

    demo = subs.add_parser("demo", help="generate, cross-validate, fit and report")
    demo.add_argument("--count", type=int, default=300)
    demo.add_argument("--sigma", type=float, default=0.3)
    demo.add_argument("--grid", default="5:50")
    _add_common(demo)
    return ap


_HANDLERS = {"gen": cmd_gen, "fit": cmd_fit, "eval": cmd_eval,
             "cv": cmd_cv, "metrics": cmd_metrics, "demo": cmd_demo}


def run(command: str, cfg: FitConfig, args=None) -> dict:
    """Programmatic entry point used by both the CLI and tests."""
    if command not in _HANDLERS:
        raise ValueError(f"unknown command {command!r}")
    return _HANDLERS[command](cfg, args if args is not None else argparse.Namespace())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = FitConfig.load(args.config) if args.config else FitConfig()
        overrides = {key: getattr(args, key, None) for key in (
            "data", "degree", "n", "weight", "policy", "seed", "alpha",
            "sigma_eps", "out", "normalize", "grid_density", "folds",
            "repeats", "outlier_filter", "outlier_factor")}
        cfg = cfg.override(**overrides)
        result = run(args.command, cfg, args)
        print(json.dumps(result, indent=1))
        return 0
    except Exception as exc:  # surface every failure as machine-readable JSON
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
