"""Command-line interface.

Subcommands: gen, fit, eval, cv, metrics, demo, each with flags for just the
FitConfig fields it reads and --config, a JSON file that explicit flags
override. Failures print a machine-readable {"error": ...} and exit nonzero.
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import json
import os
import sys
import time

import numpy as np

from .config import FitConfig
from .errors import DomainError, ParseError
from .fitting import (FitPolicy, PointCloud, classify_convexity, classify_monotone,
                      evaluate, gap_unit, global_bounds, iqr_outlier_mask)
from .inference import (CoefficientCovariance, NoiseModel, band_of_counts,
                        coefficient_covariance, estimate_noise_sigma, fit_with_band,
                        half_band, kfold_cv, make_folds, select_parsimonious, spread)
from .io import gen_synthetic, load_cloud, save_cloud, write_rows
from .metrics import coverage, directed_hausdorff_normalized, dispersion, jaccard
from .splines import KnotVector, SplineFunction, TensorSplineSpace
from .weights import parse_weight


def _load_data(cfg: FitConfig, command: str) -> PointCloud:
    if not cfg.data:
        raise ValueError(f"{command} needs --data (or a config with a data path)")
    return load_cloud(cfg.data)


def _domain(cloud: PointCloud, cfg: FitConfig, **per_axis) -> tuple:
    """The run's (lo, hi) box, once degree and the other per-axis lists fit the cloud."""
    for key, value in {"degree": cfg.degree, **per_axis}.items():
        if len(value) not in (1, cloud.d):
            raise ValueError(f"{key} needs 1 entry or one per axis of the {cloud.d}-D cloud, "
                             f"got {len(value)}: {value}")
    if cfg.domain is None:
        lo, hi = cloud.bbox
        flat = np.flatnonzero(lo == hi)
        if len(flat):
            raise DomainError(f"{cfg.data}: the cloud has no extent on axis {flat[0]}; "
                              'a "domain" in a config sets the box')
    elif len(cfg.domain) == cloud.d and all(len(pair) == 2 for pair in cfg.domain):
        lo, hi = np.array(cfg.domain, dtype=float).T
    else:
        raise ValueError(f"domain needs one [lo, hi] pair per axis of the {cloud.d}-D cloud, "
                         f"got {cfg.domain}")
    return lo, hi


def _policy(cfg: FitConfig) -> FitPolicy:
    return FitPolicy(empty_support=cfg.policy, drop_outside=cfg.drop_outside)


def _shape_flags(model) -> dict:
    coeffs = model.spline.coefficients
    flags = {}
    for axis in range(model.space.d):
        mono = classify_monotone(coeffs, axis=axis)
        entry = {"monotone": mono.direction, "constant": mono.constant}
        if model.space.d == 1:
            conv = classify_convexity(model.space.axes[0], coeffs)
            entry["convexity"] = conv.shape
            entry["affine"] = conv.affine
        flags[f"axis_{axis}"] = entry
    return flags


def _error_report(cloud: PointCloud, pred, mode: str) -> dict:
    """Dispersion of pred around the responses, both divided by the scale
    mode names, unless it is 0 or none. The scale is measured in the values'
    gap_unit, where the range of the responses cannot overflow."""
    if mode != "none":
        unit = max(gap_unit(cloud.y), gap_unit(pred))
        y = cloud.y / unit
        scale = float(np.max(np.abs(y))) if mode == "max" else float(np.ptp(y))
        if scale:
            return dispersion(y / scale, np.asarray(pred) / unit / scale).to_dict()
    return dispersion(cloud.y, pred).to_dict()


def _report(cfg: FitConfig, model, cloud, timings: dict) -> dict:
    t0 = time.perf_counter()
    pred = evaluate(model, cloud.clipped(*model.space.domain))
    gb = global_bounds(model, cloud)
    report = {
        "config": dataclasses.asdict(cfg),
        "error_report": {**_error_report(cloud, pred, cfg.normalize), "normalize": cfg.normalize},
        "bounds": {"lo": gb.lo, "hi": gb.hi, "verified": gb.verified},
        "shape_flags": _shape_flags(model),
        "timings": dict(timings),
        "effective_count": model.effective_count,
    }
    report["timings"]["report_s"] = time.perf_counter() - t0
    return report


MODEL_FORMAT = 3


def _digest(path) -> str | None:
    """Hex blake2b of a regular file's bytes, read through one reused 64 KiB
    buffer; None for anything else, such as a pipe, which cannot be read again."""
    if not os.path.isfile(path):
        return None
    from _blake2 import blake2b  # CPython's own; hashlib's would also load OpenSSL
    digest, buffer = blake2b(), memoryview(bytearray(1 << 16))
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(buffer[:size])
    return digest.hexdigest()


def _save_model(model, path, sigma_eps, dropped_rows: list, counts=None, data=None) -> None:
    """model.json; a band's shared-row counts, when given, go in as base64 of
    the narrowest little-endian unsigned type that holds the largest (uint8
    for knn:k=10), next to the _digest of their data file, when it has one."""
    space = model.space
    payload = {
        "format": MODEL_FORMAT,
        "degrees": list(space.degrees),
        "knots": [list(map(float, kv.knots)) for kv in space.axes],
        "coefficients": model.spline.coefficients.tolist(),
        "weight": model.weight.label(),
        "policy": dataclasses.asdict(model.policy),
        "effective_count": model.effective_count,
        "support_sizes": model.diagnostics.support_sizes.tolist(),
        "fallback_cells": [[list(k), int(v)]
                           for k, v in model.diagnostics.fallback_cells.items()],
        "sigma_eps": sigma_eps,
        "dropped_rows": dropped_rows,
    }
    if counts is not None:
        kind = f"<u{np.min_scalar_type(int(counts.max())).itemsize}"
        payload["band"] = base64.b64encode(counts.astype(kind).tobytes()).decode("ascii")
        if digest := _digest(data):
            payload["data_blake2b"] = digest
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))  # the C encoder; json.dump streams through Python's


_MODEL_FIELDS = ("degrees", "knots", "coefficients", "weight", "policy",
                 "effective_count", "support_sizes", "fallback_cells")


def _read_model(path):
    """Read a model.json written by fit: (model, sigma_eps, dropped rows,
    covariance band or None, _digest of the fitted data file or None). A field
    that fails its check (README, "model.json") raises ParseError naming the
    file, and the axis of a rejected knot vector or the row of rejected band
    counts. Format 1 (no "format") has no band; format 2 reads as format 1."""
    from .fitting import FitDiagnostics, WqisaModel
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: not a model object")
    for key in _MODEL_FIELDS:
        if key not in raw:
            raise ParseError(f"{path}: missing model field {key!r}")
    if raw.get("format", 1) not in (1, 2, MODEL_FORMAT):
        raise ParseError(f"{path}: unknown model format {raw['format']!r}")
    try:
        if len(raw["degrees"]) != len(raw["knots"]):
            raise ParseError(f"{path}: {len(raw['degrees'])} degrees for "
                             f"{len(raw['knots'])} knot vectors")
        if any(type(p) is not int for p in raw["degrees"]):
            raise ParseError(f"{path}: degrees must be integers, got {raw['degrees']}")
        if not isinstance(raw["weight"], str):
            raise ParseError(f"{path}: weight must be a descriptor string, got {raw['weight']!r}")
        coefficients = np.array(raw["coefficients"], dtype=float)
        bad = np.argwhere(~np.isfinite(coefficients))
        if len(bad):
            cell = tuple(int(i) for i in bad[0])
            raise ParseError(f"{path}: non-finite coefficient {coefficients[cell]} at {cell}")
        axes = []
        for k, (p, knots) in enumerate(zip(raw["degrees"], raw["knots"])):
            try:
                axes.append(KnotVector(p, np.array(knots)))
            except (TypeError, ValueError) as exc:  # named by axis, as from_bounds does
                raise ParseError(f"{path}: axis {k}: {exc}") from None
        space = TensorSplineSpace(tuple(axes))
        # as objects, a ragged list stays a list and true stays a bool, not a 1
        sizes = np.array(raw["support_sizes"], dtype=object)
        if (sizes.shape != space.shape or set(map(type, sizes.flat)) != {int}
                or not 1 <= sizes.min() <= sizes.max() < 2**63):
            raise ParseError(f"{path}: support_sizes must be integers >= 1 in a {space.shape} grid")
        if type(count := raw["effective_count"]) is not int or count < 0:
            raise ParseError(f"{path}: effective_count must be an integer >= 0, got {count!r}")
        for cell in cells if isinstance(cells := raw["fallback_cells"], list) else [cells]:
            index, row = cell if isinstance(cell, list) and len(cell) == 2 else (None, None)
            if not (isinstance(index, list) and len(index) == space.d and type(row) is int
                    and row >= 0 and all(type(i) is int and 0 <= i < n
                                         for i, n in zip(index, space.shape))):
                raise ParseError(f"{path}: fallback cell {cell!r} is not [grid index, row >= 0]")
        diag = FitDiagnostics(
            estimator_calls=space.dim,
            support_sizes=sizes.astype(np.int64),
            fallback_cells={tuple(k): v for k, v in cells},
        )
        model = WqisaModel(
            spline=SplineFunction(space, coefficients),
            weight=parse_weight(raw["weight"]),
            policy=FitPolicy(**raw["policy"]),
            effective_count=count,
            diagnostics=diag,
        )
        rows = raw.get("dropped_rows", [])
        dropped = np.array(rows, dtype=int)
        band = (_read_band(path, raw["band"], space, diag.support_sizes)
                if raw.get("format") == MODEL_FORMAT and "band" in raw else None)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(rows, list) or any(type(row) is not int or row < 0 for row in rows):
        raise ParseError(f"{path}: dropped_rows must be a flat list of integers >= 0")
    sigma = raw.get("sigma_eps")
    if sigma is not None and (type(sigma) not in (int, float)
                              or not 0 <= sigma <= sys.float_info.max):
        raise ParseError(f"{path}: sigma_eps must be null or a finite number >= 0, got {sigma!r}")
    return model, sigma, dropped, band, raw.get("data_blake2b")


def _read_band(path, text, space, sizes) -> np.ndarray:
    """band_of_counts of _save_model's counts, typed by byte length: dim * H * {1, 2, 4, 8}."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise ParseError(f"{path}: band is not valid base64") from None
    shape = (space.dim, len(half_band(space)))
    size = len(raw) // (shape[0] * shape[1])
    if size not in (1, 2, 4, 8) or len(raw) != size * shape[0] * shape[1]:
        raise ParseError(f"{path}: band holds {len(raw)} bytes, not {shape[0]} x {shape[1]} "
                         "counts of 1, 2, 4 or 8 bytes")
    return band_of_counts(np.frombuffer(raw, f"<u{size}").reshape(shape), space, sizes)


def _fitted(cfg: FitConfig, model_path, command: str):
    """(model, cloud, noise, covariance, "model" or "data") from a model file
    and the --data rows. sigma_eps is --sigma-eps, else the model's, else
    (eval) the residual estimate from the rows the fit kept, else noise and
    covariance are None. The covariance is the stored band when --data is
    the fitted file unchanged (a regular file of the same _digest), or absent
    with sigma_eps known; the cloud is then read only if sigma_eps is to be
    estimated or metrics needs its rows. Else it is built from the rows the
    fit kept, whose weighted means must be the stored coefficients."""
    model, stored_sigma, dropped, band, digest = _read_model(model_path)
    sigma = cfg.sigma_eps if cfg.sigma_eps is not None else stored_sigma
    stored = band is not None and (digest is not None and _digest(cfg.data) == digest
                                   if cfg.data else sigma is not None)
    cloud = used = None
    if not (stored and command == "eval" and sigma is not None):
        if command == "eval" and not cfg.data:
            raise ValueError("eval needs --data (or a config with a data path): " + (
                "the model stores no covariance band, so it is built from the fitted rows"
                if band is None else "no sigma_eps is given or stored, so it is estimated "
                "from the fitted rows"))
        cloud = _load_data(cfg, command)
        if len(dropped) and dropped.max() >= cloud.n:
            raise ParseError(f"{model_path}: dropped_rows holds row {dropped.max()}, past the "
                             f"{cloud.n} rows of {cfg.data}")
        used = cloud.subset(np.setdiff1d(np.arange(cloud.n), dropped)) if len(dropped) else cloud
    if sigma is not None:
        noise = NoiseModel(float(sigma))
    elif command == "eval":
        noise = estimate_noise_sigma(model, used)
    else:
        return model, cloud, None, None, None
    if stored:
        cov = CoefficientCovariance(noise.sigma_eps, model.space, band)
        return model, cloud, noise, cov, "model"
    cov = coefficient_covariance(used, model.space, model.weight, noise, model.policy)
    used.drop_index()
    if not np.array_equal(cov.means, model.spline.coefficients.reshape(-1)):
        raise ValueError(f"{model_path} was not fitted on {cfg.data}: the weighted means "
                         "of its rows differ from the stored coefficients")
    return model, cloud, noise, cov, "data"


def _eval_grid(space: TensorSplineSpace, density: int | None) -> np.ndarray:
    if density is None:
        density = 256 if space.d == 1 else 64
    lo, hi = space.domain
    axes = [np.linspace(lo[k], hi[k], density) for k in range(space.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _outdir(cfg: FitConfig) -> str:
    out = cfg.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _fit_pipeline(cfg: FitConfig, cloud: PointCloud, timings: dict):
    """(model, the rows it used, dropped rows, band counts or None), the
    counts as fit_with_band gives them."""
    weight = parse_weight(cfg.weight)
    policy = _policy(cfg)
    space = TensorSplineSpace.from_bounds(*_domain(cloud, cfg, n=cfg.n), cfg.n, cfg.degree)
    dropped = []
    if cfg.outlier_filter:
        t0 = time.perf_counter()
        keep = iqr_outlier_mask(cloud, space, weight, cfg.outlier_factor, policy)
        cloud.drop_index()
        dropped = np.flatnonzero(~keep).tolist()
        cloud = cloud.subset(np.flatnonzero(keep))
        timings["outlier_filter_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    model, counts = fit_with_band(cloud, space, weight, policy)
    cloud.drop_index()  # the report and the model file need no neighbour query
    timings["fit_s"] = time.perf_counter() - t0
    return model, cloud, dropped, counts


def cmd_gen(cfg: FitConfig, args) -> dict:
    data = gen_synthetic(args.kind, args.count, cfg.seed, sigma=args.sigma,
                         outlier_fraction=args.outlier_fraction,
                         outlier_magnitude=args.outlier_magnitude)
    out = cfg.out or "cloud.xyz"
    save_cloud(data.cloud, out)
    return {"written": out, "kind": args.kind, "n": data.cloud.n, "seed": cfg.seed}


def cmd_fit(cfg: FitConfig, args) -> dict:
    timings = {}
    t_all = time.perf_counter()
    t0 = time.perf_counter()
    cloud = _load_data(cfg, "fit")
    timings["load_s"] = time.perf_counter() - t0
    model, used, dropped, counts = _fit_pipeline(cfg, cloud, timings)
    report = _report(cfg, model, used, timings)
    report["timings"]["total_s"] = time.perf_counter() - t_all
    out = _outdir(cfg)
    _save_model(model, os.path.join(out, "model.json"), cfg.sigma_eps, dropped, counts, cfg.data)
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def cmd_eval(cfg: FitConfig, args) -> dict:
    model, _, noise, cov, source = _fitted(cfg, args.model, "eval")
    pts = _eval_grid(model.space, cfg.grid_density)
    f, var, lo, hi = spread(model, cov, pts, cfg.alpha)
    out = cfg.out or "grid.csv"
    header = ",".join([f"u_{k + 1}" for k in range(model.space.d)] + ["f", "var", "lo", "hi"])
    write_rows(out, np.column_stack([pts, f, var, lo, hi]), header=header)
    return {"written": out, "rows": len(pts), "sigma_eps": noise.sigma_eps,
            "sigma_source": noise.source, "alpha": cfg.alpha, "covariance": source}


def cmd_cv(cfg: FitConfig, args) -> dict:
    if cfg.cv_grid is None:
        raise ValueError("cv needs --grid lo:hi or a cv_grid config entry")
    cloud = _load_data(cfg, "cv")
    lo, hi = _domain(cloud, cfg)
    result = kfold_cv(cloud, cfg.cv_grid,
                      lambda n: TensorSplineSpace.from_bounds(lo, hi, [n], cfg.degree),
                      parse_weight(cfg.weight), _policy(cfg),
                      assignments=make_folds(cloud.n, cfg.folds, cfg.seed, cfg.repeats))
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
    report: dict = {"normalize": cfg.normalize}
    band = {}  # the model's band, reported after the set metrics
    if args.model:
        model, cloud, _, cov, source = _fitted(cfg, args.model, "metrics")
        x = cloud.clipped(*model.space.domain)
        if cov is None:
            pred = evaluate(model, x)
        else:  # one pass gives the fit values and their band
            pred, _, lo, hi = spread(model, cov, x, cfg.alpha)
            band = {"band_coverage": coverage(cloud.y, lo, hi), "covariance": source}
        report["error_report"] = _error_report(cloud, pred, cfg.normalize)
        grid = _eval_grid(model.space, cfg.grid_density)
        second = np.column_stack([grid, evaluate(model, grid)])
    elif args.data2:
        cloud = _load_data(cfg, "metrics")
        other = load_cloud(args.data2)
        if other.n == cloud.n:
            report["error_report"] = _error_report(cloud, other.y, cfg.normalize)
        second = other.records
    else:
        raise ValueError("metrics needs --model or --data2")
    report["directed_hausdorff"] = directed_hausdorff_normalized(cloud.records, second, cloud)
    report["jaccard"] = jaccard(cloud.records, second)
    report.update(band)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        report["written"] = cfg.out
    return report


def cmd_demo(cfg: FitConfig, args) -> dict:
    """End-to-end run: generate, cross-validate, fit, band, report."""
    out = _outdir(cfg)
    data = gen_synthetic("sine", args.count, cfg.seed, sigma=args.sigma)
    cloud_path = os.path.join(out, "cloud.xyz")
    save_cloud(data.cloud, cloud_path)
    cfg = cfg.override(data=cloud_path, sigma_eps=args.sigma, out=out)
    if cfg.cv_grid is None:
        cfg = cfg.override(cv_grid=list(range(5, 51)))
    best = cmd_cv(cfg, args)
    cfg = cfg.override(n=[int(best["best"])])
    report = cmd_fit(cfg, args)
    eval_args = argparse.Namespace(model=os.path.join(out, "model.json"))
    grid_info = cmd_eval(cfg.override(out=os.path.join(out, "grid.csv")), eval_args)
    return {"best_n": best["best"], "report": report, "grid": grid_info,
            "outdir": out}


def _add_options(sub: argparse.ArgumentParser, names: str) -> None:
    sub.add_argument("--config", help="JSON config file")
    for f in (FitConfig.__dataclass_fields__[name] for name in names.split()):
        sub.add_argument(f.metadata["flag"], dest=f.name, default=None, **f.metadata["kind"])


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The wqisa parser. Given the argv it is to parse, it builds only the
    subparser that argv[0] names, when it names one; the usage, help and
    error text read the same either way."""
    ap = argparse.ArgumentParser(prog="wqisa",
                                 description="Spline approximation of noisy point "
                                             "clouds by weighted local averaging")
    only = argv[0] if argv and argv[0] in _HANDLERS else None
    # a subparser built alone still lists every command in the usage line
    subs = ap.add_subparsers(dest="command", required=True,
                             metavar=only and "{" + ",".join(_HANDLERS) + "}")

    def sub(name, help):  # None for a command that argv does not name
        return subs.add_parser(name, help=help) if only in (None, name) else None

    if gen := sub("gen", "write a synthetic benchmark cloud"):
        gen.add_argument("--kind", default="sine",
                         choices=["sine", "sine_outliers", "variable_noise"])
        gen.add_argument("--count", type=int, default=300, help="number of points")
        gen.add_argument("--sigma", type=float, default=0.3, help="noise scale")
        gen.add_argument("--outlier-fraction", dest="outlier_fraction", type=float, default=0.05)
        gen.add_argument("--outlier-magnitude", dest="outlier_magnitude", type=float, default=10.0)
        _add_options(gen, "seed out")
    if fit_p := sub("fit", "fit a spline and write model + report"):
        _add_options(fit_p, "data degree n weight policy sigma_eps normalize outlier_filter "
                            "outlier_factor out")
    if ev := sub("eval", "sample a fitted model on a grid with bands"):
        ev.add_argument("--model", required=True, help="model.json from fit")
        _add_options(ev, "data sigma_eps alpha grid_density out")
    if cv := sub("cv", "cross-validate the basis count"):
        _add_options(cv, "data degree weight policy seed cv_grid folds repeats out")
    if met := sub("metrics", "compare a cloud against a model or cloud"):
        met.add_argument("--model", help="model.json from fit")
        met.add_argument("--data2", help="second cloud file")
        _add_options(met, "data sigma_eps alpha grid_density normalize out")
    if demo := sub("demo", "generate, cross-validate, fit and report"):
        demo.add_argument("--count", type=int, default=300)
        demo.add_argument("--sigma", type=float, default=0.3)
        _add_options(demo, "degree weight policy seed cv_grid alpha grid_density folds "
                           "repeats normalize outlier_filter outlier_factor out")
    return ap


_HANDLERS = {"gen": cmd_gen, "fit": cmd_fit, "eval": cmd_eval,
             "cv": cmd_cv, "metrics": cmd_metrics, "demo": cmd_demo}


def main(argv=None) -> int:
    args = build_parser(sys.argv[1:] if argv is None else argv).parse_args(argv)
    try:
        cfg = FitConfig.load(args.config) if args.config else FitConfig()
        cfg = cfg.override(**{f.name: getattr(args, f.name, None)
                              for f in dataclasses.fields(FitConfig)})
        text, code = json.dumps(_HANDLERS[args.command](cfg, args), indent=1), 0
    except Exception as exc:  # surface every failure as machine-readable JSON
        text, code = json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}), 1
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader left early; the command's files are written
        with open(os.devnull, "wb") as null:  # where the exit flush then writes
            os.dup2(null.fileno(), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
