"""Weighted quasi-interpolant spline approximation of noisy point clouds.

Fits tensor-product spline height fields whose coefficients are local
weighted means of the responses: no linear systems, provable bounds by the
data extremes, exact estimator variance, and cross-validated selection of
the spline space.
"""

from .config import FitConfig
from .errors import DomainError, EmptySupportError, ParseError, WqisaError
from .fitting import (FitPolicy, GlobalBounds, PointCloud, WqisaModel,
                      classify_convexity, classify_monotone,
                      estimate_control_point, evaluate, fit, global_bounds,
                      iqr_outlier_filter, iqr_outlier_mask, local_bounds)
from .inference import (CoefficientCovariance, CvResult, NoiseModel,
                        coefficient_covariance, estimate_noise_sigma,
                        kfold_cv, make_folds, normal_quantile, se_band,
                        select_parsimonious, spread, variance_at)
from .io import (SyntheticData, gen_synthetic, load_cloud, save_cloud,
                 variable_noise_scale)
from .kdtree import KdTree
from .metrics import (ErrorReport, band_coverage, dispersion,
                      directed_hausdorff_normalized, jaccard, snap_points)
from .splines import (KnotVector, SplineFunction, TensorSplineSpace,
                      insert_knot, knot_averages, make_uniform_regular,
                      spline_eval)
from .weights import WeightSpec, cloud_weights, parse_weight

__version__ = "0.1.0"

__all__ = [
    "CoefficientCovariance", "CvResult", "DomainError",
    "EmptySupportError", "ErrorReport", "FitConfig", "FitPolicy",
    "GlobalBounds", "KdTree", "KnotVector", "NoiseModel",
    "ParseError", "PointCloud", "SplineFunction",
    "SyntheticData", "TensorSplineSpace", "WeightSpec", "WqisaError",
    "WqisaModel", "band_coverage", "classify_convexity", "classify_monotone",
    "cloud_weights", "coefficient_covariance", "directed_hausdorff_normalized",
    "dispersion", "estimate_control_point",
    "estimate_noise_sigma", "evaluate", "fit", "gen_synthetic",
    "global_bounds", "insert_knot", "iqr_outlier_filter", "iqr_outlier_mask",
    "jaccard", "kfold_cv", "knot_averages", "load_cloud", "local_bounds",
    "make_folds", "make_uniform_regular", "normal_quantile", "parse_weight",
    "save_cloud", "se_band", "select_parsimonious", "snap_points", "spline_eval",
    "spread", "variable_noise_scale", "variance_at",
]
