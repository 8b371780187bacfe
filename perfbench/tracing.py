"""Layer spans for the wqisa library, recorded from outside it.

child.py wraps the public functions each layer exposes before it calls
``wqisa.cli.main``. A function imported by name into other modules
(``from .fitting import fit``) is bound in several places, so every
attribute of every loaded ``wqisa`` module that *is* the target gets the
wrapper. Methods are wrapped on their class.

A span is ``[op, name, start, end, parent, counts]``; ``parent`` is the
index of the enclosing span (-1 for the root) and ``counts`` holds what
crossed the boundary: lengths of returned index arrays, the fitted
model's diagnostics, file sizes. A layer's self time is its span's
duration minus the time covered by its child spans.

A target that no longer exists is skipped, and the metrics it feeds are
left out of the result instead of reading as zero.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

ROOT_SPAN = "cli"
ROOT_METRIC = "cli.self_s"


class Target(NamedTuple):
    module: str
    path: str                # attribute, or Class.attribute
    span: str
    self_metric: str
    counts: tuple = ()       # metric names the counter may fill
    counter: Callable | None = None  # (result, args, kwargs) -> {metric: n}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _load(result, args, kwargs):
    return {"io.load_calls": 1,
            "io.load_bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _build(result, args, kwargs):
    return {"kdtree.builds": 1, "kdtree.points_indexed": int(args[0].n)}


def _query(kind):
    def count(result, args, kwargs):
        return {f"kdtree.{kind}_queries": 1, "kdtree.rows_returned": len(result)}
    return count


def _weights(result, args, kwargs):
    return {"weights.calls": 1, "weights.rows_scored": len(result[0])}


def _fit(result, args, kwargs):
    diag = result.diagnostics
    return {"fitting.fits": 1,
            "fitting.estimator_calls": int(diag.estimator_calls),
            "fitting.weight_lookups": int(diag.weight_lookups),
            "fitting.support_max": int(diag.support_sizes.max())}


def _points(metric, pos):
    def count(result, args, kwargs):
        u = _arg(args, kwargs, pos, "u")
        return {metric: max(int(np.size(u)) // args[0].space.d, 1)}
    return count


def _variance(result, args, kwargs):
    counts = _points("inference.variance_points", 2)(result, args, kwargs)
    counts["inference.variance_calls"] = 1
    return counts


def _dense_counter():
    seen: set[int] = set()

    def count(result, args, kwargs):
        first = id(args[0]) not in seen
        seen.add(id(args[0]))
        return {"inference.covariance_dense": int(first)}
    return count


def targets() -> tuple[Target, ...]:
    """Every wrapped function, with the metrics it feeds."""
    q = ("kdtree.rows_returned",)
    return (
        Target("wqisa.io", "load_cloud", "io.load", "io.load_s",
               ("io.load_calls", "io.load_bytes"), _load),
        Target("wqisa.io", "save_cloud", "io.save", "io.save_s"),
        Target("wqisa.io", "gen_synthetic", "io.gen", "io.gen_s"),
        Target("wqisa.kdtree", "KdTree.__init__", "kdtree.build", "kdtree.build_s",
               ("kdtree.builds", "kdtree.points_indexed"), _build),
        Target("wqisa.kdtree", "KdTree.knn", "kdtree.knn", "kdtree.knn_s",
               ("kdtree.knn_queries",) + q, _query("knn")),
        Target("wqisa.kdtree", "KdTree.radius_query", "kdtree.radius", "kdtree.radius_s",
               ("kdtree.radius_queries",) + q, _query("radius")),
        Target("wqisa.weights", "cloud_weights", "weights.cloud_weights", "weights.self_s",
               ("weights.calls", "weights.rows_scored"), _weights),
        Target("wqisa.fitting", "fit", "fitting.fit", "fitting.self_s",
               ("fitting.fits", "fitting.estimator_calls", "fitting.weight_lookups",
                "fitting.support_max"), _fit),
        Target("wqisa.fitting", "evaluate", "fitting.evaluate", "fitting.self_s"),
        Target("wqisa.fitting", "global_bounds", "fitting.global_bounds", "fitting.self_s"),
        Target("wqisa.fitting", "iqr_outlier_filter", "fitting.outliers", "fitting.self_s"),
        Target("wqisa.fitting", "classify_monotone", "fitting.monotone", "fitting.self_s"),
        Target("wqisa.fitting", "classify_convexity", "fitting.convexity", "fitting.self_s"),
        Target("wqisa.splines", "spline_eval", "splines.eval", "splines.eval_s",
               ("splines.eval_points",), _points("splines.eval_points", 1)),
        Target("wqisa.inference", "coefficient_covariance", "inference.covariance",
               "inference.covariance_s", ("inference.covariance_calls",),
               lambda r, a, k: {"inference.covariance_calls": 1}),
        Target("wqisa.inference", "CoefficientCovariance.matrix", "inference.dense",
               "inference.covariance_s", ("inference.covariance_dense",), _dense_counter()),
        Target("wqisa.inference", "variance_at", "inference.variance", "inference.variance_s",
               ("inference.variance_calls", "inference.variance_points"), _variance),
        Target("wqisa.inference", "se_band", "inference.band", "inference.band_s"),
        Target("wqisa.inference", "kfold_cv", "inference.cv", "inference.cv_s",
               ("inference.cv_fits",)),
        Target("wqisa.inference", "select_parsimonious", "inference.select", "inference.cv_s"),
        Target("wqisa.metrics", "dispersion", "metrics.dispersion", "metrics.self_s"),
        Target("wqisa.metrics", "band_coverage", "metrics.coverage", "metrics.self_s"),
        Target("wqisa.metrics", "directed_hausdorff_normalized", "metrics.hausdorff",
               "metrics.self_s"),
        Target("wqisa.metrics", "jaccard", "metrics.jaccard", "metrics.self_s"),
    )


# fitting.fit spans nested in an inference.cv span, counted after the run
CV_FITS = ("inference.cv_fits", "inference.cv", "fitting.fit")
MAX_COUNTS = frozenset({"fitting.support_max"})


class Tracer:
    """In-memory span recorder for one op; spans are kept until the op ends."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [tracer.op, name, 0.0, 0.0,
                   tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                rec[5] = counter(result, args, kwargs)
            return result

        return traced


def rebind_everywhere(target, replacement, modules) -> int:
    """Point every module attribute that is `target` at `replacement`."""
    hits = 0
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, name, replacement)
                hits += 1
    return hits


def install(tracer: Tracer, prefix: str = "wqisa", table=None) -> list[str]:
    """Wrap every target that exists; returns the span names installed."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == prefix or n.startswith(prefix + "."))]
    installed = []
    for t in table if table is not None else targets():
        mod = sys.modules.get(t.module)
        cls_name, _, attr = t.path.rpartition(".")
        owner = getattr(mod, cls_name, None) if cls_name else mod
        if owner is None or attr not in vars(owner):
            continue
        raw = vars(owner)[attr]
        if isinstance(raw, property):
            setattr(owner, attr, property(tracer.wrap(t.span, raw.fget, t.counter)))
        elif cls_name:
            setattr(owner, attr, tracer.wrap(t.span, raw, t.counter))
        else:
            rebind_everywhere(raw, tracer.wrap(t.span, raw, t.counter), modules)
        installed.append(t.span)
    return installed


def self_times(spans) -> list[float]:
    """Per span: duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            covered[s[4]] += s[3] - s[2]
    return [s[3] - s[2] - c for s, c in zip(spans, covered)]


def layer_metrics(spans, installed) -> dict[str, float]:
    """Per-layer self times and counts of one op, keyed by metric name.

    Only metrics fed by an installed span appear. The self times, including
    cli.self_s, add up to trace.op_s, the root span's duration.
    """
    live = [t for t in targets() if t.span in installed]
    by_span = {t.span: t for t in live}
    out: dict[str, float] = {ROOT_METRIC: 0.0}
    for t in live:
        out.setdefault(t.self_metric, 0.0)
        for name in t.counts:
            out.setdefault(name, 0)
    for s, own in zip(spans, self_times(spans)):
        if s[1] == ROOT_SPAN:
            out[ROOT_METRIC] += own
            out["trace.op_s"] = s[3] - s[2]
            continue
        out[by_span[s[1]].self_metric] += own
        for name, n in (s[5] or {}).items():
            out[name] = max(out[name], n) if name in MAX_COUNTS else out[name] + n
    metric, outer, inner = CV_FITS
    if metric in out:
        out[metric] = sum(1 for s in spans if s[1] == inner and _inside(spans, s, outer))
    return out


def _inside(spans, span, name) -> bool:
    parent = span[4]
    while parent >= 0:
        if spans[parent][1] == name:
            return True
        parent = spans[parent][4]
    return False
