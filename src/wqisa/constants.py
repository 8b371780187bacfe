"""Numerical tolerances shared by the library and its test suite."""

# basis rows must sum to 1 at least this tightly
PARTITION_OF_UNITY_TOL = 1e-12

# pointwise drift allowed after a knot insertion
KNOT_INSERTION_TOL = 1e-10

# agreement between the fitted estimator and a brute-force weighted mean
ESTIMATOR_ORACLE_TOL = 1e-12

# one-sided limits at a knot of multiplicity <= degree
CONTINUITY_TOL = 1e-8

# sampled slope floor for a spline certified monotone
MONOTONE_SLOPE_TOL = 1e-10

# sampled second-difference floor for a spline certified convex
CONVEX_CURVATURE_TOL = 1e-8

# smallest admissible eigenvalue of a coefficient covariance matrix
PSD_TOL = 1e-10

# slack added to variance upper bounds
VARIANCE_BOUND_TOL = 1e-12

# clouds above this size fall back to the bounding-box diagonal diameter
EXACT_DIAMETER_LIMIT = 5000
