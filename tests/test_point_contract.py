"""One rule for a block of points: kdtree.query_block's.

Every entry that takes points rejects the same bad block with the same
ValueError, word for word, naming the row where one is at fault. The
evaluators, the tree queries and cloud_weights take blocks of a fixed width
(the space's, the tree's, the cloud's); the tree's own points and the metric
sets take any width, and read a 1-D array as points of one coordinate.
"""

import numpy as np
import pytest

from wqisa import (KdTree, NoiseModel, PointCloud, TensorSplineSpace, WeightSpec,
                   cloud_weights, coefficient_covariance, directed_hausdorff_normalized,
                   evaluate, fit, jaccard, se_band, snap_points, spline_eval, spread,
                   variance_at)

NOT_FINITE = "point coordinates must be finite, not NaN or inf, got "
BAD = {
    "nan-row": ([[0.5, 0.5], [0.25, np.nan], [0.5, 0.5]], NOT_FINITE + "[0.25, nan] at row 1"),
    "inf-row": ([[0.5, 0.5], [0.5, 0.5], [np.inf, 0.5]], NOT_FINITE + "[inf, 0.5] at row 2"),
    "3-d-array": (np.full((2, 2, 2), 0.5), "points must be an (m, d) block, got shape (2, 2, 2)"),
    "scalar": (0.5, "points must be an (m, d) block, got shape ()"),
    "wrong-width": (np.full((2, 3), 0.5), "point dimension 3 != expected dimension 2"),
    "single-point": ([0.5, 0.5], "points must be an (m, d) block, got shape (2,)"),
}
EVALUATORS = ["evaluate", "spline_eval", "spread", "variance_at", "se_band"]
FIXED_WIDTH = EVALUATORS + ["KdTree.knn", "KdTree.radius_query", "cloud_weights"]
ANY_WIDTH = ["KdTree", "directed_hausdorff_normalized", "directed_hausdorff_normalized[b]",
             "jaccard", "jaccard[b]", "snap_points"]
CASES = [(entry, bad) for entry in FIXED_WIDTH + ANY_WIDTH for bad in BAD
         if entry in EVALUATORS or bad != "single-point"
         if entry in FIXED_WIDTH or bad != "wrong-width"]


@pytest.fixture(scope="module")
def entries():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.uniform(0, 1, (80, 2)), rng.standard_normal(80))
    space = TensorSplineSpace.from_bounds([0, 0], [1, 1], [5, 5], [2, 2])
    spec = WeightSpec.knn(5)
    model = fit(cloud, space, spec)
    cov = coefficient_covariance(cloud, space, spec, NoiseModel(0.3))
    tree, good = KdTree(cloud.x), cloud.x[:10]
    return {
        "evaluate": lambda u: evaluate(model, u),
        "spline_eval": lambda u: spline_eval(model.spline, u),
        "spread": lambda u: spread(model, cov, u),
        "variance_at": lambda u: variance_at(model, cov, u),
        "se_band": lambda u: se_band(model, cov, u),
        "KdTree": KdTree,
        "KdTree.knn": lambda u: tree.knn(u, 1),
        "KdTree.radius_query": lambda u: tree.radius_query(u, 0.1),
        "cloud_weights": lambda u: cloud_weights(spec, u, cloud),
        "directed_hausdorff_normalized": lambda u: directed_hausdorff_normalized(u, good, cloud),
        "directed_hausdorff_normalized[b]": lambda u: directed_hausdorff_normalized(good, u, cloud),
        "jaccard": lambda u: jaccard(u, good),
        "jaccard[b]": lambda u: jaccard(good, u),
        "snap_points": lambda u: snap_points(u, 0.1),
    }


@pytest.mark.parametrize("entry, bad", CASES, ids=[f"{e}-{b}" for e, b in CASES])
def test_every_entry_rejects_a_bad_block_in_the_same_words(entries, entry, bad):
    u, want = BAD[bad]
    with pytest.raises(ValueError) as exc:
        entries[entry](u)
    assert exc.type is ValueError and str(exc.value) == want
