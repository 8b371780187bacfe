"""The weight operator V as CSR blocks, checked row by row against full scans."""

import math

import numpy as np
import pytest

from wqisa import (EmptySupportError, FitPolicy, PointCloud, TensorSplineSpace,
                   WeightSpec, fit, make_uniform_regular)
from wqisa.fitting import SITE_BLOCK, _row_sums, weight_blocks

from _oracles import brute_knn, brute_weight_vector

NEAREST = FitPolicy(empty_support="nearest")

SPECS = [WeightSpec.knn(7), WeightSpec.characteristic(0.35),
         WeightSpec.gaussian(0.3), WeightSpec.gaussian(0.3, squared_norm=True),
         WeightSpec.exponential(0.3), WeightSpec.idw()]


def params_of(spec):
    return {"k": spec.k, "r": spec.r, "sigma": spec.sigma,
            "squared_norm": spec.gaussian_squared_norm}


def brute_row(spec, site, X):
    """Normalised full-scan weights of every row of X against one site."""
    w = brute_weight_vector(spec.family, params_of(spec), site, X)
    return w / math.fsum(w)


def brute_row_mass(spec, site, X):
    return math.fsum(brute_weight_vector(spec.family, params_of(spec), site, X))


def sites_of(space):
    mesh = np.meshgrid(*space.knot_average_grids, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, space.d)


def dense_rows(blocks, n):
    """{flat: dense row of V over the cloud's n rows}, checking each block's
    CSR layout on the way."""
    rows = {}
    for b in blocks:
        assert len(b.indptr) == len(b.flats) + 1 == len(b.fallback) + 1
        assert b.indptr[0] == 0 and b.indptr[-1] == len(b.cols) == len(b.vals)
        assert np.all(b.vals > 0.0)
        for j, flat in enumerate(b.flats.tolist()):
            cols = b.cols[b.indptr[j]:b.indptr[j + 1]]
            assert len(np.unique(cols)) == len(cols)
            row = np.zeros(n)
            row[cols] = b.vals[b.indptr[j]:b.indptr[j + 1]]
            rows[flat] = row
    return rows


def cloud_2d(n=300, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 2))
    return PointCloud(x, np.sin(3 * x[:, 0]) + x[:, 1])


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_rows_equal_normalised_full_scan(spec):
    cloud = cloud_2d()
    # 13 x 11 = 143 sites: one full SITE_BLOCK and a partial one
    space = TensorSplineSpace.from_bounds([0, 0], [1, 1], [13, 11], [2, 2])
    blocks = list(weight_blocks(cloud, space, spec))
    sizes = [len(b.flats) for b in blocks]
    if spec.family in ("knn", "characteristic"):
        assert sizes == [SITE_BLOCK, space.dim - SITE_BLOCK]
    else:
        assert sizes == [1] * space.dim
    assert np.array_equal(np.concatenate([b.flats for b in blocks]), np.arange(space.dim))
    assert not any(b.fallback.any() for b in blocks)
    rows = dense_rows(blocks, cloud.n)
    for flat, site in enumerate(sites_of(space)):
        assert np.allclose(rows[flat], brute_row(spec, site, cloud.x), rtol=0, atol=1e-15)
    scored = sum(b.lookups for b in blocks)
    if spec.family == "knn":
        assert scored == space.dim * spec.k
    elif spec.family != "characteristic":
        assert scored == space.dim * cloud.n


def test_given_flats_keep_their_order():
    cloud = cloud_2d()
    space = TensorSplineSpace.from_bounds([0, 0], [1, 1], [13, 11], [2, 2])
    flats = np.array([140, 3, 77, 3])
    for spec in (WeightSpec.knn(5), WeightSpec.gaussian(0.3)):
        blocks = list(weight_blocks(cloud, space, spec, flats=flats))
        assert np.array_equal(np.concatenate([b.flats for b in blocks]), flats)


def ball_cloud():
    """Degree-1 sites at 0, 0.1, ..., 1.0 and points on [0, 0.85]: the ball
    of radius 0.11 around the last site, 1.0, is the only empty one."""
    x = np.linspace(0.0, 0.85, 35)
    return PointCloud(x, np.cos(4 * x)), TensorSplineSpace((make_uniform_regular(0, 1, 11, 1),))


def test_block_whose_last_row_is_empty():
    cloud, space = ball_cloud()
    spec = WeightSpec.characteristic(0.11)
    blocks = []
    with pytest.raises(EmptySupportError) as err:
        for b in weight_blocks(cloud, space, spec):
            blocks.append(b)
    [(cell, site)] = err.value.cells
    assert cell == (10,) and site[0] == 1.0
    [b] = blocks  # yielded before the error, last row empty
    assert b.indptr[-2] == b.indptr[-1] and not b.fallback.any()
    sums = _row_sums(b.vals, b.indptr)
    assert sums[-1] == 0.0
    assert np.allclose(sums[:-1], 1.0, rtol=0, atol=1e-15)
    rows = dense_rows(blocks, cloud.n)
    for flat, u in enumerate(sites_of(space)[:-1]):
        assert np.allclose(rows[flat], brute_row(spec, u, cloud.x), rtol=0, atol=1e-15)
    with pytest.raises(EmptySupportError, match=r"\(10,\)"):
        fit(cloud, space, spec)


def test_nearest_fallback_for_the_last_row():
    cloud, space = ball_cloud()
    [b] = list(weight_blocks(cloud, space, WeightSpec.characteristic(0.11), NEAREST))
    assert np.flatnonzero(b.fallback).tolist() == [10]
    assert b.cols[b.indptr[10]:].tolist() == [34] and b.vals[-1] == 1.0


def test_nearest_fallbacks_inside_a_block():
    # two clusters leave a run of empty balls in the middle of the block
    x = np.concatenate([np.linspace(0.0, 0.3, 20), np.linspace(0.75, 1.0, 20)])
    cloud = PointCloud(x, np.sin(5 * x))
    space = TensorSplineSpace((make_uniform_regular(0, 1, 11, 1),))
    spec = WeightSpec.characteristic(0.04)
    [b] = list(weight_blocks(cloud, space, spec, NEAREST))
    starved = [i for i, u in enumerate(sites_of(space)) if brute_row_mass(spec, u, x) == 0]
    assert np.flatnonzero(b.fallback).tolist() == starved == [4, 5, 6, 7]
    rows = dense_rows([b], cloud.n)
    for flat, u in enumerate(sites_of(space)):
        if flat in starved:
            want = np.zeros(cloud.n)
            want[brute_knn(x, u, 1)] = 1.0
        else:
            want = brute_row(spec, u, x)
        assert np.allclose(rows[flat], want, rtol=0, atol=1e-15)
    model = fit(cloud, space, spec, NEAREST)
    assert model.diagnostics.fallback_cells == {
        (i,): int(brute_knn(x, u, 1)[0]) for i, u in enumerate(sites_of(space)) if i in starved}


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
@pytest.mark.parametrize("drop_outside", [False, True])
def test_row_maps_name_cloud_rows(spec, drop_outside):
    # rows 0 and 7 lie outside [0, 1]^2: clipped onto the box, or dropped
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1, (40, 2))
    x[0], x[7] = [-0.5, 0.3], [0.2, 1.4]
    cloud = PointCloud(x, rng.standard_normal(40))
    space = TensorSplineSpace.from_bounds([0, 0], [1, 1], [5, 4], [2, 2])
    blocks = list(weight_blocks(cloud, space, spec, FitPolicy(drop_outside=drop_outside)))
    rows = dense_rows(blocks, cloud.n)
    keep = np.flatnonzero(np.all((x >= 0) & (x <= 1), axis=1)) if drop_outside else np.arange(40)
    work = x[keep] if drop_outside else np.clip(x, 0, 1)
    for flat, u in enumerate(sites_of(space)):
        want = np.zeros(cloud.n)
        want[keep] = brute_row(spec, u, work)
        assert np.allclose(rows[flat], want, rtol=0, atol=1e-15)


def test_underflowed_weights_are_not_listed():
    # gaussian weights 30 apart underflow to 0: each row lists its support
    # only, while every row still counts as scored
    x = np.array([0.0, 0.1, 29.9, 30.0])
    cloud = PointCloud(x, np.arange(4.0))
    space = TensorSplineSpace((make_uniform_regular(0, 30, 2, 1),))
    blocks = list(weight_blocks(cloud, space, WeightSpec.gaussian(0.01)))
    assert [b.cols.tolist() for b in blocks] == [[0, 1], [2, 3]]
    assert [b.lookups for b in blocks] == [4, 4]


DENSE_SPECS = [s for s in SPECS if s.family not in ("knn", "characteristic")]


def reference_coefficients(spec, sites, x, y, y_range):
    """Each site's coefficient from the oracle's full-scan weights: the
    positive ones divided by their reduceat sum, the mean of y under them
    reduced the same way, clipped to y_range; an empty window takes the y
    of its nearest row."""
    out = []
    for u in sites:
        w = brute_weight_vector(spec.family, params_of(spec), u, x)
        live = w > 0
        if not live.any():
            out.append(y[brute_knn(x, u, 1)[0]])
            continue
        v = w[live] / np.add.reduceat(w[live], [0])
        out.append(np.add.reduceat(y[live] * v, [0])[0])
    return np.clip(out, *y_range)


@pytest.mark.parametrize("spec", DENSE_SPECS, ids=lambda s: s.label())
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("outside", ["none", "clipped", "dropped"])
def test_dense_coefficients_are_the_reference_bit_for_bit(spec, d, outside):
    rng = np.random.default_rng(30 + d)
    x = rng.uniform(0, 1, (80, d))
    y = np.sin(3 * x).sum(axis=1) + 0.2 * rng.standard_normal(80)
    space = TensorSplineSpace.from_bounds([0] * d, [1] * d, [6, 5, 4][:d], [2, 1, 2][:d])
    sites = sites_of(space)
    x[4] = x[9] = sites[2]  # idw: two rows share a site, which weighs them alone
    if outside != "none":
        x[0, 0], x[7, -1] = -0.4, 1.3
    policy = FitPolicy(drop_outside=outside == "dropped")
    model = fit(PointCloud(x, y), space, spec, policy)
    keep = np.all((x >= 0) & (x <= 1), axis=1) if outside == "dropped" else np.ones(80, bool)
    want = reference_coefficients(spec, sites, np.clip(x[keep], 0, 1), y[keep],
                                  (y.min(), y.max()))
    assert np.array_equal(model.spline.coefficients.reshape(-1), want)


@pytest.mark.parametrize("spec", [WeightSpec.gaussian(0.01), WeightSpec.gaussian(0.01, True),
                                  WeightSpec.exponential(0.0005)], ids=lambda s: s.label())
def test_dense_windows_that_underflow_take_the_nearest_row(spec):
    # sites past ~0.5 from both clusters weigh every row 0
    x = np.concatenate([np.linspace(0.0, 0.2, 15), np.linspace(0.95, 1.0, 10)])
    y = np.cos(4 * x)
    space = TensorSplineSpace((make_uniform_regular(-1, 2, 13, 1),))
    sites = sites_of(space)
    starved = [i for i, u in enumerate(sites) if brute_row_mass(spec, u, x) == 0]
    assert 0 < len(starved) < len(sites) - 2
    model = fit(PointCloud(x, y), space, spec, NEAREST)
    assert sorted(model.diagnostics.fallback_cells) == [(i,) for i in starved]
    want = reference_coefficients(spec, sites, x.reshape(-1, 1), y, (y.min(), y.max()))
    assert np.array_equal(model.spline.coefficients.reshape(-1), want)
