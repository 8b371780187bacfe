"""Uncertainty quantification: covariance, variance bounds, bands, CV."""

import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import wqisa.splines
from wqisa import (CoefficientCovariance, CvResult, DomainError, FitPolicy,
                   NoiseModel, PointCloud, TensorSplineSpace, WeightSpec, iqr_outlier_filter,
                   coefficient_covariance, estimate_noise_sigma, evaluate, fit, gen_synthetic,
                   kfold_cv, make_folds, make_uniform_regular, normal_quantile,
                   se_band, select_parsimonious, spread, variance_at)
from wqisa.fitting import LOCAL_FAMILIES, weight_blocks
from wqisa.inference import _BandBuilder, band_of_counts, fit_with_band
from wqisa.splines import _windows

from _oracles import brute_covariance, half_band, kfold_cv as oracle_cv, shared_row_band
from test_weight_blocks import sites_of


def cloud_1d(n=80, seed=0, sigma=0.2, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, n)
    y = np.sin(np.pi * x) + sigma * rng.standard_normal(n)
    return PointCloud(x, y)


def space_1d(n=6, p=2, lo=-1.0, hi=1.0):
    return TensorSplineSpace((make_uniform_regular(lo, hi, n, p),))


class TestCovarianceMatrix:
    def test_matches_brute_force_knn(self):
        cloud = cloud_1d(60, seed=3)
        space = space_1d(5)
        cov = coefficient_covariance(cloud, space, WeightSpec.knn(7),
                                     NoiseModel(0.4))
        sites = sites_of(space)
        ref = brute_covariance("knn", {"k": 7}, sites, cloud.x, 0.4)
        assert np.allclose(cov.matrix, ref, rtol=0, atol=1e-12)

    def test_matches_brute_force_gaussian(self):
        cloud = cloud_1d(50, seed=4)
        space = space_1d(6)
        cov = coefficient_covariance(cloud, space, WeightSpec.gaussian(0.3),
                                     NoiseModel(1.0))
        sites = sites_of(space)
        ref = brute_covariance("gaussian", {"sigma": 0.3}, sites, cloud.x, 1.0)
        assert np.allclose(cov.matrix, ref, rtol=0, atol=1e-12)

    def test_matches_brute_force_bivariate(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, (70, 2))
        y = x[:, 0] + x[:, 1] + 0.1 * rng.standard_normal(70)
        cloud = PointCloud(x, y)
        kv = make_uniform_regular(0, 1, 4, 2)
        space = TensorSplineSpace((kv, kv))
        cov = coefficient_covariance(cloud, space, WeightSpec.knn(9),
                                     NoiseModel(0.5))
        sites = sites_of(space)
        ref = brute_covariance("knn", {"k": 9}, sites, cloud.x, 0.5)
        assert cov.matrix.shape == (16, 16)
        assert np.allclose(cov.matrix, ref, rtol=0, atol=1e-12)

    def test_disjoint_knn_supports_give_diagonal(self):
        # Two tight clusters far apart: each coefficient's k nearest rows
        # come entirely from its own cluster, so covariances vanish.
        x = np.concatenate([np.linspace(0.0, 0.05, 10), np.linspace(0.95, 1.0, 10)])
        cloud = PointCloud(x, np.zeros(20))
        kv = make_uniform_regular(0, 1, 2, 1)  # sites at 0 and 1
        space = TensorSplineSpace((kv,))
        cov = coefficient_covariance(cloud, space, WeightSpec.knn(10),
                                     NoiseModel(2.0))
        m = cov.matrix
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0
        # Uniform 1/k weights over k rows: Var = sigma^2 * k * (1/k)^2.
        assert m[0, 0] == pytest.approx(4.0 / 10, abs=1e-15)
        assert m[1, 1] == pytest.approx(4.0 / 10, abs=1e-15)

    def test_positive_semidefinite(self):
        for seed, family in [(0, WeightSpec.knn(5)), (1, WeightSpec.gaussian(0.25)),
                             (2, WeightSpec.exponential(0.3)),
                             (3, WeightSpec.characteristic(0.5))]:
            cloud = cloud_1d(60, seed=seed)
            cov = coefficient_covariance(cloud, space_1d(7), family, NoiseModel(0.7))
            eigs = np.linalg.eigvalsh(cov.matrix)
            assert eigs.min() >= -1e-10 * max(1.0, eigs.max())

    def test_matrix_past_the_float_range_reads_inf(self):
        # sigma^2 = 1e400 is past the float range: the shared entries read
        # inf, the others 0, with no OverflowError or RuntimeWarning
        cloud = cloud_1d(40, seed=6)
        space, spec = space_1d(6), WeightSpec.knn(5)
        gram = coefficient_covariance(cloud, space, spec, NoiseModel(1.0)).matrix
        huge = coefficient_covariance(cloud, space, spec, NoiseModel(1e200)).matrix
        assert np.array_equal(huge == np.inf, gram > 0)
        assert np.array_equal(huge == 0.0, gram == 0.0)
        large = coefficient_covariance(cloud, space, spec, NoiseModel(1e100)).matrix
        assert np.array_equal(large, 1e100**2 * gram)

    def test_csr_rows_agree_with_matrix(self):
        cloud = cloud_1d(40, seed=5)
        space, spec = space_1d(6), WeightSpec.knn(6)
        cov = coefficient_covariance(cloud, space, spec, NoiseModel(0.3))
        m = cov.matrix
        rows = [dict(zip(b.cols[lo:hi], b.vals[lo:hi]))
                for b in weight_blocks(cloud, space, spec)
                for lo, hi in zip(b.indptr[:-1], b.indptr[1:])]
        for i in range(6):
            for j in range(6):
                shared = sum(v * rows[j][c] for c, v in rows[i].items() if c in rows[j])
                assert 0.3**2 * shared == pytest.approx(m[i, j], abs=1e-15)


class TestCovarianceBand:
    @staticmethod
    def grid_space(shape, degrees, lo=-1.0, hi=1.0):
        return TensorSplineSpace(tuple(make_uniform_regular(lo, hi, n, p)
                                       for n, p in zip(shape, degrees)))

    @staticmethod
    def both_kernels(cloud, space, spec, policy=FitPolicy()):
        """The band from each kernel of the builder, whichever one the
        observed support would pick. Uniform rows (knn, ball) give two: the
        pairing of kept entries, and the dense ring from the first row on,
        each a band of counts that band_of_counts divides by the fit's
        support sizes. Weighted rows hold the ring from the start, so they
        give one."""
        blocks = list(weight_blocks(cloud, space, spec, policy))
        uniform = spec.family in LOCAL_FAMILIES
        ringed = _BandBuilder(space, cloud.n, uniform)
        ringed.ring = np.zeros((ringed.reach, cloud.n))
        for block in blocks:
            ringed.add(block)
        if not uniform:
            return (ringed.result(),)
        paired = _BandBuilder(space, cloud.n, uniform)
        paired.blocks = blocks
        sizes = fit(cloud, space, spec, policy).diagnostics.support_sizes
        return tuple(band_of_counts(b.result(), space, sizes) for b in (paired, ringed))

    @pytest.mark.parametrize("family, params, shape, degrees", [
        ("knn", {"k": 7}, (7,), (2,)),
        ("characteristic", {"r": 0.5}, (5, 4), (1, 3)),
        ("gaussian", {"sigma": 0.3}, (4, 5), (2, 2)),
        ("exponential", {"sigma": 0.4}, (3, 4, 3), (1, 2, 1)),
        ("idw", {}, (5, 5), (1, 3)),
    ])
    def test_band_is_the_brute_force_covariance_read_off(self, family, params, shape,
                                                         degrees):
        rng = np.random.default_rng(sum(shape))
        d = len(shape)
        cloud = PointCloud(rng.uniform(-1, 1, (120, d)), rng.standard_normal(120))
        space = self.grid_space(shape, degrees)
        spec = WeightSpec(family, **params)
        cov = coefficient_covariance(cloud, space, spec, NoiseModel(0.8))
        sites = sites_of(space)
        ref = half_band(brute_covariance(family, params, sites, cloud.x, 0.8), shape, degrees)
        assert cov.band.shape == ref.shape == (space.dim, (np.prod(np.multiply(2, degrees) + 1)
                                                           + 1) // 2)
        assert np.allclose(0.8**2 * cov.band, ref, rtol=0, atol=1e-15)
        bands = self.both_kernels(cloud, space, spec)
        assert len(bands) == (2 if family in LOCAL_FAMILIES else 1)
        for band in bands:
            if family in LOCAL_FAMILIES:  # counts over sizes: exact
                assert np.array_equal(band, cov.band)
            else:
                assert np.allclose(0.8**2 * band, ref, rtol=0, atol=1e-15)

    def test_band_follows_the_fit_policy(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.2, 1.2, (150, 2))
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(150)
        y[::25] += 6.0  # outliers for the filter
        cloud = PointCloud(x, y)
        space = self.grid_space((6, 5), (2, 1))
        cases = [(cloud, WeightSpec.characteristic(0.12), FitPolicy(empty_support="nearest")),
                 (cloud, WeightSpec.knn(6), FitPolicy(drop_outside=True)),
                 (cloud, WeightSpec.gaussian(0.4), FitPolicy(drop_outside=True)),
                 (iqr_outlier_filter(cloud, space, WeightSpec.knn(6)), WeightSpec.knn(6),
                  FitPolicy())]
        for data, spec, policy in cases:
            cov = coefficient_covariance(data, space, spec, NoiseModel(1.0), policy)
            local = spec.family in LOCAL_FAMILIES  # counts over sizes: exact
            ref = (shared_row_band(weight_blocks(data, space, spec, policy), space.shape,
                                   space.degrees) if local
                   else half_band(cov.matrix, space.shape, space.degrees))
            for band in (cov.band, *self.both_kernels(data, space, spec, policy)):
                assert (np.array_equal(band, ref) if local
                        else np.allclose(band, ref, rtol=0, atol=1e-15))
            assert np.array_equal(cov.means,
                                  fit(data, space, spec, policy).spline.coefficients.reshape(-1))
        assert fit(cloud, space, cases[0][1], cases[0][2]).diagnostics.fallback_cells
        assert cases[3][0].n < cloud.n

    @staticmethod
    def count_case(name):
        """(cloud, space, spec, policy) of one knn or ball case of the
        shared-row count test."""
        rng = np.random.default_rng(len(name))
        grid = TestCovarianceBand.grid_space
        d, shape, degrees = {1: (1, (9,), (2,)), 2: (2, (5, 4), (1, 3)),
                             3: (3, (3, 4, 3), (1, 2, 1))}[int(name[-1])]
        x = rng.uniform(-1, 1, (120, d))
        spec = WeightSpec.knn(7) if name.startswith("knn") else WeightSpec.characteristic(0.9)
        policy = FitPolicy()
        if "nearest" in name:  # windows left empty: fallback rows of size 1
            spec = WeightSpec.characteristic(0.001 if d == 1 else 0.1)
            policy = FitPolicy(empty_support="nearest")
        elif "outside" in name:
            x, policy = 1.2 * x, FitPolicy(drop_outside=True)
        elif "duplicated" in name:  # every point three times: ties in every knn row
            x = np.repeat(x[:40], 3, axis=0)
        elif "clamped" in name:  # k > N: every row is the whole cloud
            x, spec = x[:30], WeightSpec.knn(50)
        elif "ring" in name:  # wide enough that the builder takes the ring by itself
            spec = WeightSpec.characteristic(1.5)
        return PointCloud(x, rng.standard_normal(len(x))), grid(shape, degrees), spec, policy

    @pytest.mark.filterwarnings("ignore:k=50 exceeds cloud size:UserWarning")
    @pytest.mark.parametrize("name", [
        "knn-1", "knn-2", "knn-3", "ball-1", "ball-2", "ball-3",
        "ball-nearest-1", "ball-nearest-2", "knn-outside-2", "ball-outside-3",
        "knn-duplicated-1", "knn-duplicated-2", "ball-duplicated-2",
        "knn-clamped-1", "knn-clamped-2", "ball-ring-2",
    ])
    def test_uniform_band_is_shared_row_counts_over_sizes(self, name):
        # G_ij = |S_i & S_j| / (|S_i| |S_j|) bit for bit, from both public
        # entry points and from each kernel forced alone
        cloud, space, spec, policy = self.count_case(name)
        blocks = list(weight_blocks(cloud, space, spec, policy))
        ref = shared_row_band(blocks, space.shape, space.degrees)
        model, counts = fit_with_band(cloud, space, spec, policy)
        sizes = model.diagnostics.support_sizes
        cov = coefficient_covariance(cloud, space, spec, NoiseModel(0.5), policy)
        for got in (band_of_counts(counts, space, sizes), cov.band,
                    *self.both_kernels(cloud, space, spec, policy)):
            assert np.array_equal(got, ref)
        assert np.array_equal(counts, np.round(counts)) and (counts >= 0).all()
        assert np.array_equal(counts[:, 0], sizes.reshape(-1))
        if "nearest" in name:
            assert any(b.fallback.any() for b in blocks)
        if "clamped" in name:
            assert (model.diagnostics.support_sizes == cloud.n).all()

    def test_a_count_past_an_axis_is_rejected(self):
        # coefficient (0, 3) of a 5 x 4 grid with offset (0, 1) leaves axis 1,
        # though the flat index 3 + 1 is on the grid: their count must be 0
        cloud, space, spec, policy = self.count_case("knn-2")
        model, counts = fit_with_band(cloud, space, spec, policy)
        assert space.shape == (5, 4) and counts[3, 1] == 0 and counts[4, 0] == 7
        counts[3, 1] = 1
        with pytest.raises(ValueError, match=r"^band row 3 is not shared-row counts"):
            band_of_counts(counts, space, model.diagnostics.support_sizes)

    def test_weighted_rows_hold_the_ring_from_the_first_block(self, monkeypatch):
        seen, add = [], _BandBuilder.add

        def record(builder, block):
            seen.append(builder.ring is not None and not builder.blocks)
            add(builder, block)

        monkeypatch.setattr(_BandBuilder, "add", record)
        cloud = cloud_1d(60, seed=2)
        for spec in (WeightSpec.gaussian(0.3), WeightSpec.exponential(0.3), WeightSpec.idw()):
            seen.clear()
            coefficient_covariance(cloud, space_1d(7), spec, NoiseModel(1.0))
            assert seen == [True] * 7

    def test_band_only_covariance_gives_the_same_variance_and_no_matrix(self):
        cloud = cloud_1d(60, seed=8)
        space, spec = space_1d(7), WeightSpec.knn(6)
        model = fit(cloud, space, spec)
        built = coefficient_covariance(cloud, space, spec, NoiseModel(0.4))
        loaded = CoefficientCovariance(0.4, space, built.band.copy())
        us = np.linspace(-1, 1, 41)
        assert np.array_equal(variance_at(model, loaded, us), variance_at(model, built, us))
        with pytest.raises(ValueError, match="only its band"):
            loaded.matrix

    def test_local_band_memory_is_the_entries_and_the_band(self):
        # O(nnz(V) + dim * H): 10^4 coefficients of 4 entries each on
        # 2000 rows; a dense V would take dim * N * 8 = 160 MB
        rng = np.random.default_rng(12)
        n = 2000
        cloud = PointCloud(rng.uniform(0, 1, (n, 2)), rng.standard_normal(n))
        space = TensorSplineSpace.from_bounds([0, 0], [1, 1], [100, 100], [2, 2])
        spec = WeightSpec.knn(4)
        cloud.tree  # built outside the measurement
        tracemalloc.start()
        try:
            cov = coefficient_covariance(cloud, space, spec, NoiseModel(0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nnz = 4 * space.dim  # 96 bytes an entry: its pairing arrays
        assert peak < 96 * nnz + 3 * cov.band.nbytes + 64 * n

    def test_benchmark_shaped_fits_take_each_kernel(self, monkeypatch):
        # 44 balls of radius 0.1 over 2000 rows on [-2, 2] hold ~100 rows
        # each: ~4400 entries, past reach * N / 8 = 3 * 2000 / 8, so the
        # ring starts. 400 knn rows of k = 10 keep 4000 entries, under
        # 43 * 2000 / 8, so they pair.
        started, result = [], _BandBuilder.result

        def record(builder):
            if builder.ring is not None:
                started.append(builder.space.shape)
            return result(builder)

        monkeypatch.setattr(_BandBuilder, "result", record)
        cloud = gen_synthetic("sine", 2000, seed=5).cloud
        fit_with_band(cloud, space_1d(44, 2, -2.0, 2.0), WeightSpec.characteristic(0.1))
        assert started == [(44,)]
        rng = np.random.default_rng(15)
        cloud = PointCloud(rng.uniform(-1, 1, (2000, 2)), rng.standard_normal(2000))
        fit_with_band(cloud, self.grid_space((20, 20), (2, 2)), WeightSpec.knn(10))
        assert started == [(44,)]

    def test_dense_band_memory_is_the_ring_and_the_band(self):
        # O(reach * N + dim * H): a 20 x 20 gaussian model of degree 2 on
        # 2 * 10^4 rows reaches back 43 rows; its V would take 64 MB
        rng = np.random.default_rng(13)
        n = 20000
        cloud = PointCloud(rng.uniform(-1, 1, (n, 2)), rng.standard_normal(n))
        space = TensorSplineSpace.from_bounds([-1, -1], [1, 1], [20, 20], [2, 2])
        tracemalloc.start()
        try:
            cov = coefficient_covariance(cloud, space, WeightSpec.gaussian(0.1),
                                         NoiseModel(0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        reach = 1 + 2 * 20 + 2
        assert peak < 8 * (reach + 8) * n + 4 * cov.band.nbytes
        assert peak < 10 * 2**20

    def test_wide_ball_band_costs_the_ring_not_the_pairs(self):
        # a ball of radius 0.3 on the unit square holds ~1000 of 5000 rows:
        # V has 9 * 10^5 entries, and up to 63 coefficients within reach
        # of each other share a cloud row. Pairing every entry would take
        # ~90 MB and one pass per sharing coefficient; the builder sees
        # the support and dots each row with a ring of the last 63 instead
        rng = np.random.default_rng(14)
        n = 5000
        cloud = PointCloud(rng.uniform(0, 1, (n, 2)), rng.standard_normal(n))
        space = TensorSplineSpace.from_bounds([0, 0], [1, 1], [30, 30], [2, 2])
        spec = WeightSpec.characteristic(0.3)
        cloud.tree  # built outside the measurements

        def measured(run):
            seconds = []
            for _ in range(2):
                t0 = time.perf_counter()
                run()
                seconds.append(time.perf_counter() - t0)
            tracemalloc.start()
            try:
                out = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return out, min(seconds), peak

        model, fit_s, fit_peak = measured(lambda: fit(cloud, space, spec))
        (banded, band), band_s, band_peak = measured(lambda: fit_with_band(cloud, space, spec))
        assert np.array_equal(banded.spline.coefficients, model.spline.coefficients)
        assert model.diagnostics.support_sizes.sum() > 8 * 10**5
        reach = 1 + 2 * 30 + 2
        assert band_peak < fit_peak + 8 * (reach + 16) * n + 4 * band.nbytes
        assert band_s < 4 * fit_s + 0.25
        cov = coefficient_covariance(cloud, space, spec, NoiseModel(1.0))
        assert np.array_equal(band_of_counts(band, space, model.diagnostics.support_sizes),
                              cov.band)


class TestVarianceLaw:
    def test_variance_never_exceeds_noise_variance(self):
        for seed, spec in [(0, WeightSpec.knn(6)), (1, WeightSpec.gaussian(0.2)),
                           (2, WeightSpec.idw())]:
            cloud = cloud_1d(70, seed=seed)
            space = space_1d(6)
            model = fit(cloud, space, spec)
            cov = coefficient_covariance(cloud, space, spec, NoiseModel(0.9))
            us = np.linspace(-1, 1, 200)
            var = variance_at(model, cov, us)
            assert np.all(var <= 0.9**2 + 1e-12)
            assert np.all(var >= 0.0)

    def test_knn_variance_capped_by_sigma2_over_k(self):
        cloud = cloud_1d(100, seed=7)
        space = space_1d(8)
        spec = WeightSpec.knn(9)
        model = fit(cloud, space, spec)
        cov = coefficient_covariance(cloud, space, spec, NoiseModel(0.6))
        us = np.linspace(-1, 1, 300)
        assert np.all(variance_at(model, cov, us) <= 0.6**2 / 9 + 1e-12)

    def test_variance_is_quadratic_form_of_active_block(self):
        cloud = cloud_1d(60, seed=11)
        space = space_1d(7, p=3)
        spec = WeightSpec.knn(8)
        model = fit(cloud, space, spec)
        cov = coefficient_covariance(cloud, space, spec, NoiseModel(0.5))
        for u in [-0.83, -0.2, 0.0, 0.41, 1.0]:
            (flat,), (b,) = _windows(space, np.array([[u]]))
            assert np.array_equal(flat, np.arange(flat[0], flat[0] + 4))  # degree 3
            expect = float(b @ cov.matrix[np.ix_(flat, flat)] @ b)
            assert variance_at(model, cov, [u])[0] == pytest.approx(expect, abs=1e-15)

    def test_sparse_variance_past_old_dense_limit(self):
        # 4160 coefficients: a dense V would take dim * N * 8 = 13 MB and
        # the dense covariance dim^2 * 8 = 138 MB
        rng = np.random.default_rng(33)
        n = 400
        cloud = PointCloud(rng.uniform(0, 1, (n, 2)), rng.standard_normal(n))
        space = TensorSplineSpace.from_bounds([0, 0], [1, 1], [65, 64], [2, 2])
        spec = WeightSpec.knn(4)
        model = fit(cloud, space, spec)
        probes = rng.uniform(0, 1, (100, 2))
        tracemalloc.start()
        try:
            cov = coefficient_covariance(cloud, space, spec, NoiseModel(0.5))
            var = variance_at(model, cov, probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # O(nnz(V) + N): the bytes V takes as CSR arrays, the k-d tree, the
        # band and the per-row arrays V is assembled from (a few hundred
        # bytes per coefficient)
        csr = 8 * (space.dim + 1) + 16 * int(model.diagnostics.support_sizes.sum())
        assert peak < 4 * csr + 512 * space.dim + 256 * n
        m = cov.matrix
        for flat, b, got in list(zip(*_windows(space, probes), var))[::20]:
            expect = float(b @ m[np.ix_(flat, flat)] @ b)
            assert got == pytest.approx(expect, abs=1e-15)

    @staticmethod
    def quadratic_forms(space, cov, probes):
        """b . cov.matrix[F, F] . b over each probe's active block F."""
        m = cov.matrix
        flats, vals = _windows(space, np.reshape(probes, (len(probes), space.d)))
        return np.array([float(b @ m[np.ix_(flat, flat)] @ b) for flat, b in zip(flats, vals)])

    @pytest.mark.parametrize("spec, n, grid", [
        (WeightSpec.knn(1), 600, (12, 12)),  # 9 weight entries a point
        (WeightSpec.knn(3), 600, (12, 12)),  # 27
        (WeightSpec.knn(150), 3000, (6, 6)),  # 1350, overlapping rows
        (WeightSpec.gaussian(0.2), 1500, (5, 5)),  # dense: 9 * N
        (WeightSpec.characteristic(0.15), 600, (8, 8)),
    ], ids=["knn1", "knn3", "knn150", "gaussian", "ball"])
    def test_chunked_variance_is_the_quadratic_form(self, spec, n, grid):
        rng = np.random.default_rng(41)
        cloud = PointCloud(rng.uniform(0, 1, (n, 2)), rng.standard_normal(n))
        space = TensorSplineSpace.from_bounds([0, 0], [1, 1], list(grid), [2, 2])
        model = fit(cloud, space, spec, FitPolicy(empty_support="nearest"))
        cov = coefficient_covariance(cloud, space, spec, NoiseModel(0.7),
                                     FitPolicy(empty_support="nearest"))
        probes = rng.uniform(0, 1, (197, 2))
        probes[:4] = [[0, 0], [1, 1], [0, 1], [0.5, 0.5]]
        var = variance_at(model, cov, probes)
        assert np.allclose(var, self.quadratic_forms(space, cov, probes), rtol=0, atol=1e-15)
        one_by_one = [variance_at(model, cov, u[None])[0] for u in probes]
        assert np.allclose(var, one_by_one, rtol=0, atol=1e-15)
        shuffled = rng.permutation(len(probes))
        assert np.allclose(variance_at(model, cov, probes[shuffled]), var[shuffled],
                           rtol=0, atol=1e-15)

    def test_chunks_cut_at_the_support_budget(self):
        # a 1-D knn:k=40 model of degree 2: ~120 weight entries a point, the
        # rows of neighbouring coefficients overlapping in most of them
        cloud = cloud_1d(300, seed=13)
        space = space_1d(9)
        spec = WeightSpec.knn(40)
        model = fit(cloud, space, spec)
        cov = coefficient_covariance(cloud, space, spec, NoiseModel(0.3))
        probes = np.linspace(-1, 1, 400)
        var = variance_at(model, cov, probes)
        assert np.allclose(var, self.quadratic_forms(space, cov, probes), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d, p, k, n_basis", [(2, 2, 10, 30), (1, 1, 1, 200)],
                             ids=["90-entries", "2-entries"])
    def test_variance_memory_does_not_grow_with_the_support_of_all_points(
            self, d, p, k, n_basis):
        # peak memory is the window arrays of the points themselves (flat
        # indices, basis values) and one window-sized gather from the band,
        # whatever the weight entries behind each coefficient; all points'
        # entries at once would take m * entries * 24 bytes
        rng = np.random.default_rng(5)
        n = 4000
        cloud = PointCloud(rng.uniform(0, 1, (n, d)), rng.standard_normal(n))
        space = TensorSplineSpace.from_bounds([0] * d, [1] * d, [n_basis] * d, [p] * d)
        spec = WeightSpec.knn(k)
        model = fit(cloud, space, spec)
        cov = coefficient_covariance(cloud, space, spec, NoiseModel(0.5))
        window = (p + 1) ** d
        for m in (500, 20000):
            probes = rng.uniform(0, 1, (m, d))
            tracemalloc.start()
            try:
                variance_at(model, cov, probes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * n + m * (40 * window + 64)

    def test_grid_shape_mismatch_rejected(self):
        cloud = cloud_1d(40)
        spec = WeightSpec.knn(5)
        model = fit(cloud, space_1d(6), spec)
        for other in (space_1d(7), space_1d(6, p=3)):  # another grid, another band width
            cov = coefficient_covariance(cloud, other, spec, NoiseModel(0.5))
            with pytest.raises(ValueError, match="does not match"):
                variance_at(model, cov, 0.0)

    def test_out_of_domain_rejected(self):
        cloud = cloud_1d(40)
        spec = WeightSpec.knn(5)
        model = fit(cloud, space_1d(6), spec)
        cov = coefficient_covariance(cloud, space_1d(6), spec, NoiseModel(0.5))
        with pytest.raises(DomainError):
            variance_at(model, cov, [1.5])

    @pytest.mark.parametrize("d", [1, 2])
    def test_nan_point_rejected(self, d):
        # NaN compares false with both domain ends, so the point check
        # catches it before them and names its row, not passing it on as a
        # NaN value or variance
        rng = np.random.default_rng(8)
        cloud = PointCloud(rng.uniform(-1, 1, (60, d)), rng.standard_normal(60))
        space = TensorSplineSpace((space_1d(6).axes[0],) * d)
        spec = WeightSpec.knn(5)
        model = fit(cloud, space, spec)
        cov = coefficient_covariance(cloud, space, spec, NoiseModel(0.5))
        u = [0.5, np.nan] if d == 1 else [[0.5, 0.5], [0.5, np.nan]]
        want = r"must be finite, not NaN or inf, got \[(0.5, )?nan\] at row 1$"
        with pytest.raises(ValueError, match=want):
            evaluate(model, u)
        with pytest.raises(ValueError, match=want):
            variance_at(model, cov, u)

    @pytest.mark.parametrize("d, spec", [(2, WeightSpec.knn(9)), (2, WeightSpec.gaussian(0.3)),
                                         (1, WeightSpec.knn(5))])
    def test_empty_batch_gives_empty_results(self, d, spec):
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.uniform(-1, 1, (60, d)), rng.standard_normal(60))
        space = TensorSplineSpace((space_1d(6).axes[0],) * d)
        model = fit(cloud, space, spec)
        cov = coefficient_covariance(cloud, space, spec, NoiseModel(0.5))
        empty = np.empty((0, d))
        assert evaluate(model, empty).shape == (0,)
        assert variance_at(model, cov, empty).shape == (0,)
        assert [a.shape for a in se_band(model, cov, empty)] == [(0,), (0,)]

    def test_monte_carlo_agreement(self):
        # Empirical variance of the fitted value under refits with fresh
        # noise must sit within sampling error of the exact formula.
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, 90)
        truth = np.cos(x)
        sigma = 0.5
        space = space_1d(5)
        spec = WeightSpec.knn(10)
        probes = np.array([-0.7, 0.0, 0.55])
        m = 600
        vals = np.empty((m, len(probes)))
        for t in range(m):
            y = truth + sigma * rng.standard_normal(90)
            vals[t] = evaluate(fit(PointCloud(x, y), space, spec), probes)
        model = fit(PointCloud(x, truth), space, spec)
        cov = coefficient_covariance(PointCloud(x, truth), space, spec,
                                     NoiseModel(sigma))
        exact = variance_at(model, cov, probes)
        emp = vals.var(axis=0, ddof=1)
        # Relative sampling error of a variance estimate ~ sqrt(2/(m-1)).
        se = exact * math.sqrt(2.0 / (m - 1))
        assert np.all(np.abs(emp - exact) <= 4 * se)


class TestNormalQuantile:
    def test_pinned_95_percent_value(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_matches_scipy_across_range(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        qs = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 101),
                             [0.5, 0.025, 0.975, 1e-9, 1 - 1e-9]])
        for q in qs:
            assert normal_quantile(float(q)) == pytest.approx(
                float(scipy_stats.norm.ppf(q)), abs=1e-9)

    def test_symmetry_and_median(self):
        assert normal_quantile(0.5) == 0.0
        for q in [0.6, 0.9, 0.999]:
            assert normal_quantile(q) == pytest.approx(-normal_quantile(1 - q),
                                                       abs=1e-12)

    def test_rejects_out_of_range(self):
        for q in [0.0, 1.0, -0.3, 1.7]:
            with pytest.raises(ValueError):
                normal_quantile(q)

    def test_is_normal_dists_inv_cdf_bit_for_bit(self):
        from statistics import NormalDist
        qs = np.concatenate([np.linspace(0, 1, 2001)[1:-1], np.geomspace(1e-300, 0.5, 600),
                             [5e-324, 0.025, 0.975, 1 - 2**-53, np.nextafter(0.5, 1)]])
        for q in np.concatenate([qs, 1 - qs[qs > 2**-53]]).tolist():
            assert normal_quantile(q).hex() == NormalDist().inv_cdf(q).hex(), q


class TestSeBand:
    def setup_method(self):
        self.cloud = cloud_1d(80, seed=13)
        self.space = space_1d(6)
        self.spec = WeightSpec.knn(8)
        self.model = fit(self.cloud, self.space, self.spec)
        self.cov = coefficient_covariance(self.cloud, self.space, self.spec,
                                          NoiseModel(0.25))

    def test_band_symmetric_with_correct_width(self):
        us = np.linspace(-1, 1, 50)
        lo, hi = se_band(self.model, self.cov, us, alpha=0.05)
        f = evaluate(self.model, us)
        sd = np.sqrt(variance_at(self.model, self.cov, us))
        z = normal_quantile(0.975)
        assert np.allclose(hi - f, f - lo, atol=1e-12)
        assert np.allclose(hi - lo, 2 * z * sd, atol=1e-12)
        assert np.all(lo <= f) and np.all(f <= hi)

    def test_smaller_alpha_widens_band(self):
        (lo1,), (hi1,) = se_band(self.model, self.cov, [0.3], alpha=0.05)
        (lo2,), (hi2,) = se_band(self.model, self.cov, [0.3], alpha=0.01)
        assert hi2 - lo2 > hi1 - lo1

    def test_alpha_validation(self):
        for alpha in [0.0, 1.0, -0.1, 2.0, np.nan]:
            with pytest.raises(ValueError, match=r"alpha must be in \(2\*\*-53, 1\)"):
                se_band(self.model, self.cov, 0.0, alpha=alpha)

    def test_smallest_alphas(self):
        # 2**-53 leaves 1 - alpha/2 = 1.0; 2**-52 leaves 1 - 2**-53, the largest float below 1
        with pytest.raises(ValueError, match="alpha must be in"):
            spread(self.model, self.cov, [0.3], 2**-53)
        (f,), (var,), (lo,), (hi,) = spread(self.model, self.cov, [0.3], 2**-52)
        z = normal_quantile(1 - 2**-53)
        assert (lo, hi) == (f - z * np.sqrt(var), f + z * np.sqrt(var))


class TestSpread:
    """spread gives the fit with its variance and band from one windows pass."""

    @staticmethod
    def covariance(kind, d):
        rng = np.random.default_rng(40 + d)
        cloud = PointCloud(rng.uniform(0, 1, (300, d)), rng.standard_normal(300))
        space = TensorSplineSpace.from_bounds([0] * d, [1] * d, [5] * d, [2] * d)
        spec = {"knn": WeightSpec.knn(9), "ball": WeightSpec.characteristic(0.4),
                "gaussian": WeightSpec.gaussian(0.2)}[kind]
        if kind == "gaussian":  # rebuilt from the cloud, as eval --data does
            return fit(cloud, space, spec), coefficient_covariance(cloud, space, spec,
                                                                   NoiseModel(0.3))
        model, counts = fit_with_band(cloud, space, spec)  # stored, as a model file keeps it
        band = band_of_counts(counts, space, model.diagnostics.support_sizes)
        return model, CoefficientCovariance(0.3, space, band)

    @pytest.mark.parametrize("kind", ["knn", "ball", "gaussian"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fit_values_are_evaluates(self, kind, d):
        model, cov = self.covariance(kind, d)
        us = np.random.default_rng(d).uniform(0, 1, (257, d))
        f, var, lo, hi = spread(model, cov, us)
        assert np.array_equal(f, evaluate(model, us))
        assert np.array_equal(var, variance_at(model, cov, us))
        # sigma = 0.3 keeps var normal, where its root is the band's sd bit for bit
        z, sd = normal_quantile(0.975), np.sqrt(var)
        assert [a.tobytes() for a in (lo, hi)] == [a.tobytes() for a in (f - z * sd, f + z * sd)]
        assert [a.tobytes() for a in se_band(model, cov, us)] == [lo.tobytes(), hi.tobytes()]
        got = spread(model, cov, us[:1])  # a single point is a block of one
        assert all(v.shape == (1,) for v in got)
        assert [v[0] for v in got] == [f[0], var[0], lo[0], hi[0]]
        assert got[0].tobytes() == evaluate(model, us[:1]).tobytes() and got[2] < got[0] < got[3]
        single = us[0] if d > 1 else float(us[0, 0])  # a scalar or a (d,) point is no block
        with pytest.raises(ValueError, match=r"^points must be an \(m, d\) block, got shape"):
            spread(model, cov, single)

    @pytest.mark.parametrize("block", [40, None])  # None: EVAL_BLOCK itself
    @pytest.mark.parametrize("kind", ["knn", "gaussian"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_give_each_points_own_bits(self, kind, d, block, monkeypatch):
        # three blocks and a remainder, as one batch, one call per block and
        # one call per point: the same values, variances and sds, bit for bit.
        # Only blocks of EVAL_BLOCK rows are large enough for numpy to reuse
        # a temporary in place, where a product can keep the F order of a
        # gather and sum its rows in another order.
        block = block or wqisa.splines.EVAL_BLOCK
        monkeypatch.setattr(wqisa.splines, "EVAL_BLOCK", block)
        model, cov = self.covariance(kind, d)
        us = np.random.default_rng(d).uniform(0, 1, (3 * block + 17, d))
        whole = np.array(spread(model, cov, us))
        blocks = np.hstack([spread(model, cov, us[i:i + block])
                            for i in range(0, len(us), block)])
        assert whole.tobytes() == blocks.tobytes()
        edges = np.arange(0, len(us), block)
        rows = np.unique(np.r_[edges, edges - 1, np.arange(len(us) - 17, len(us)),
                               np.random.default_rng(0).integers(0, len(us), 40)])[1:]
        singles = np.array([spread(model, cov, u[None]) for u in us[rows]])[..., 0].T
        assert whole[:, rows].tobytes() == singles.tobytes()
        assert evaluate(model, us).tobytes() == whole[0].tobytes()
        assert variance_at(model, cov, us).tobytes() == whole[1].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.25])
    def test_a_bad_point_in_the_last_block_is_named_as_in_one_block(self, bad, monkeypatch):
        # the whole batch is checked before the first block: axis 0's bad
        # points, the first four of them and their rows, even where axis 1's
        # come sooner; a NaN fails the point check first, which names its row
        model, cov = self.covariance("knn", 2)
        us = np.random.default_rng(2).uniform(0, 1, (3 * 40 + 17, 2))
        us[[3, 50], 1] = 7.0
        us[[125, 126, 129, 130, 135], 0] = bad
        if np.isnan(bad):
            kind = ValueError
            want = (f"point coordinates must be finite, not NaN or inf, "
                    f"got {us[125].tolist()} at row 125")
        else:
            kind = DomainError
            want = (f"axis 0: point(s) {us[[125, 126, 129, 130], 0]} "
                    f"at rows [125, 126, 129, 130] outside domain [0.0, 1.0]")
        for block in (40, len(us)):
            monkeypatch.setattr(wqisa.splines, "EVAL_BLOCK", block)
            for call in (evaluate, lambda m, u: variance_at(m, cov, u)):
                with pytest.raises(kind) as exc:
                    call(model, us)
                assert str(exc.value) == want

    def test_memory_stays_at_the_block_whatever_the_batch(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(0, 1, (2000, 2)), rng.standard_normal(2000))
        space = TensorSplineSpace.from_bounds([0, 0], [1, 1], [20, 20], [2, 2])
        model, counts = fit_with_band(cloud, space, WeightSpec.knn(9))
        cov = CoefficientCovariance(0.3, space, band_of_counts(counts, space,
                                                               model.diagnostics.support_sizes))
        us = rng.uniform(0, 1, (200_000, 2))
        for call, outputs in ((evaluate, 1), (lambda m, u: spread(m, cov, u), 4)):
            tracemalloc.start()
            try:
                call(model, us)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the outputs, 1.5 MiB each, and about 2 MiB of block windows;
            # one block of all the rows peaked at 43 MiB and 56 MiB
            assert peak < outputs * 1.6 * 2**20 + 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("call", ["variance_at", "se_band", "band_coverage", "cmd_eval",
                                      "cmd_metrics"])
    def test_one_windows_pass_per_call(self, call, monkeypatch, tmp_path, capsys):
        import wqisa.inference
        import wqisa.splines
        from wqisa import band_coverage
        from wqisa.cli import main

        cloud = cloud_1d(120, seed=5)
        model, cov = fit(cloud, space_1d(8), WeightSpec.knn(7)), None
        if call.startswith("cmd_"):  # a model file that stores its band: no fit is rebuilt
            path = tmp_path / "c.xyz"
            path.write_text("".join(f"{a!r} {b!r}\n" for a, b in
                                    zip(cloud.x[:, 0].tolist(), cloud.y.tolist())))
            assert main(["fit", "--data", str(path), "--n", "8", "--weight", "knn:k=7",
                         "--out", str(tmp_path)]) == 0
        else:
            cov = coefficient_covariance(cloud, space_1d(8), WeightSpec.knn(7), NoiseModel(0.2))
        calls = []
        for module in (wqisa.splines, wqisa.inference):
            def counted(*args, _windows=module._windows):
                calls.append(1)
                return _windows(*args)
            monkeypatch.setattr(module, "_windows", counted)
        if call in ("variance_at", "se_band"):
            getattr(wqisa.inference, call)(model, cov, np.linspace(-1, 1, 33))
        elif call == "band_coverage":
            band_coverage(cloud, model, cov)
        else:
            assert main([call[4:], "--model", str(tmp_path / "model.json"), "--sigma-eps", "0.2",
                         "--data", str(tmp_path / "c.xyz"), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        # metrics windows the cloud's rows, with their band, and then its grid
        assert len(calls) == (2 if call == "cmd_metrics" else 1)


def cv_matches_oracle(cloud, cands, space_of, weight, policy, assignments):
    """kfold_cv's result, once its scores, fold scores and failures equal the
    fold-by-fold refits' bit for bit."""
    res = kfold_cv(cloud, cands, space_of, weight, policy, assignments=assignments)
    scores, fold_scores, failures = oracle_cv(
        cloud, cands, lambda train, c: fit(train, space_of(c), weight, policy), assignments)
    assert np.array_equal(res.scores, scores)
    assert np.array_equal(res.fold_scores, fold_scores)
    assert res.failures == failures
    return res


@pytest.fixture
def training_clouds(monkeypatch):
    """The row sets of every PointCloud.subset call: on clouds inside the
    domain, the training clouds kfold_cv builds for its exact per-fold
    fallback (the oracle builds its own without subset)."""
    built, subset = [], PointCloud.subset

    def record(cloud, indices):
        built.append(np.asarray(indices))
        return subset(cloud, indices)

    monkeypatch.setattr(PointCloud, "subset", record)
    return built


FAMILIES = [WeightSpec.knn(7), WeightSpec.characteristic(0.3), WeightSpec.gaussian(0.2),
            WeightSpec.exponential(0.2), WeightSpec.idw()]


class TestCrossValidation:
    @staticmethod
    def space_n(n):
        return TensorSplineSpace((make_uniform_regular(-1, 1, n, 2),))

    knn8 = WeightSpec.knn(8)
    nearest = FitPolicy(empty_support="nearest", drop_outside=False)

    def cv(self, cloud, cands, **kwargs):
        return kfold_cv(cloud, cands, self.space_n, self.knn8, self.nearest, **kwargs)

    def test_deterministic_under_seed(self):
        cloud = cloud_1d(90, seed=29)
        a = self.cv(cloud, [4, 6, 8], assignments=make_folds(cloud.n, 5, 42))
        b = self.cv(cloud, [4, 6, 8], assignments=make_folds(cloud.n, 5, 42))
        assert np.array_equal(a.scores, b.scores)
        assert a.best == b.best

    def test_scores_invariant_to_candidate_order(self):
        cloud = cloud_1d(90, seed=31)
        fwd = self.cv(cloud, [4, 6, 8], assignments=make_folds(cloud.n, 4, 1))
        rev = self.cv(cloud, [8, 6, 4], assignments=make_folds(cloud.n, 4, 1))
        assert np.allclose(fwd.scores, rev.scores[::-1], atol=0)
        assert fwd.best == rev.best

    def test_explicit_assignments_respected(self):
        cloud = cloud_1d(60, seed=37)
        folds = make_folds(60, 4, seed=7)
        by_seed = self.cv(cloud, [5, 7], assignments=make_folds(cloud.n, 4, 7))
        by_hand = self.cv(cloud, [5, 7], assignments=folds)
        assert np.array_equal(by_seed.scores, by_hand.scores)
        # Reordering the fold arrays only permutes the sum's terms.
        shuffled = [list(reversed(folds[0]))]
        re = self.cv(cloud, [5, 7], assignments=shuffled)
        assert np.allclose(re.scores, by_hand.scores, atol=1e-12)

    def test_failing_candidate_scores_inf(self):
        cloud = cloud_1d(50, seed=41)

        def fragile(n):
            if n == 99:
                raise ValueError("cannot fit this")
            return self.space_n(n)

        res = kfold_cv(cloud, [5, 99], fragile, self.knn8, self.nearest,
                       assignments=make_folds(cloud.n, 3, 0))
        assert math.isinf(res.scores[1])
        assert res.best == 5
        assert "cannot fit" in res.failures[99]

    def test_ties_resolve_to_smallest_candidate(self):
        cloud = PointCloud(cloud_1d(40, seed=43).x, np.zeros(40))  # every fit is 0
        res = self.cv(cloud, [9, 3, 6], assignments=make_folds(cloud.n, 4, 2))
        assert np.all(res.scores == res.scores[0])
        assert res.best == 3

    def test_score_is_mean_squared_heldout_error(self):
        # One manual pass with known folds reproduces the reported score.
        cloud = cloud_1d(24, seed=47)
        folds = make_folds(24, 3, seed=5)
        res = self.cv(cloud, [5], assignments=folds)
        total = 0.0
        for hold in folds[0]:
            mask = np.ones(24, dtype=bool)
            mask[hold] = False
            model = fit(cloud.subset(np.flatnonzero(mask)), self.space_n(5), self.knn8,
                        self.nearest)
            err = cloud.y[hold] - evaluate(model, cloud.x[hold])
            total += float(np.dot(err, err))
        assert res.scores[0] == pytest.approx(total / 24, abs=1e-15)

    def test_fold_scores_recorded_per_split(self):
        cloud = cloud_1d(30, seed=59)
        folds = make_folds(30, 3, seed=9)
        res = self.cv(cloud, [5, 6], assignments=folds)
        assert res.fold_scores.shape == (2, 3)
        for ci in range(2):
            for fi, hold in enumerate(folds[0]):
                mask = np.ones(30, dtype=bool)
                mask[hold] = False
                model = fit(cloud.subset(np.flatnonzero(mask)), self.space_n([5, 6][ci]),
                            self.knn8, self.nearest)
                err = cloud.y[hold] - evaluate(model, cloud.x[hold])
                assert res.fold_scores[ci, fi] == pytest.approx(
                    float(np.mean(err**2)), abs=1e-15)

    def test_one_training_cloud_per_fold(self, training_clouds):
        # Two folds leave some knn rows short of k kept neighbours: only those
        # folds build their training cloud, at most once per candidate.
        cloud = cloud_1d(60, seed=67)
        folds = make_folds(60, 2, seed=3)
        cv_matches_oracle(cloud, [4, 5, 6], self.space_n, self.knn8, self.nearest, folds)
        complements = [np.sort(hold) for hold in folds[0][::-1]]
        assert 0 < len(training_clouds) <= 3 * 2
        assert all(any(np.array_equal(rows, c) for c in complements) for rows in training_clouds)
        training_clouds.clear()
        kfold_cv(cloud, [4, 5, 6], self.space_n, WeightSpec.characteristic(0.3), self.nearest,
                 assignments=folds)
        assert training_clouds == []  # no fold empties a ball of radius 0.3

    @pytest.mark.parametrize("weight", FAMILIES[2:], ids=lambda w: w.family)
    def test_spanning_rows_take_each_splits_own_fit(self, weight, training_clouds):
        # gaussian, exponential and idw rows span the cloud: every split of
        # every candidate fits its own training cloud, once
        cloud = cloud_1d(60, seed=113)
        folds = make_folds(60, 4, seed=6, repeats=2)
        cv_matches_oracle(cloud, [4, 6], self.space_n, weight, FitPolicy(), folds)
        complements = [np.setdiff1d(np.arange(60), hold) for rep in folds for hold in rep]
        assert len(training_clouds) == 2 * len(complements)
        for i, rows in enumerate(training_clouds):
            assert np.array_equal(rows, complements[i % len(complements)])

    def test_fold_major_matches_candidate_major(self):
        # Candidate 7 has a site at 0 whose ball holds one row, held out by
        # fold 2 of the first repeat: it fails there, after two scored folds.
        rng = np.random.default_rng(71)
        x = rng.uniform(0.3, 1.0, 300) * rng.choice([-1.0, 1.0], 300)
        x[17] = 0.0
        cloud = PointCloud(x, np.sin(np.pi * x) + 0.2 * rng.standard_normal(300))
        folds = make_folds(300, 3, seed=13, repeats=2)
        at = next(f for f, hold in enumerate(folds[0]) if 17 in hold)
        folds[0][at], folds[0][2] = folds[0][2], folds[0][at]
        res = cv_matches_oracle(cloud, [4, 7, 6], self.space_n,
                                WeightSpec.characteristic(0.15), FitPolicy(), folds)
        assert np.isfinite(res.fold_scores[1, :2]).all() and np.isinf(res.fold_scores[1, 2:]).all()
        assert list(res.failures) == [7] and "1 coefficient(s): (3,)" in res.failures[7]
        assert np.isfinite(res.scores[[0, 2]]).all()

    def test_windows_empty_on_the_whole_cloud_take_each_splits_own_fit(self, training_clouds):
        # no row within 0.25 of 0: candidate 9 has empty balls beside full
        # ones, candidate 4 none. Under "error" every split of 9 fails with
        # its own fit's message; under "nearest" every split refits 9's
        # empty balls on its own cloud, and only those
        rng = np.random.default_rng(89)
        x = rng.uniform(0.25, 1.0, 200) * rng.choice([-1.0, 1.0], 200)
        cloud = PointCloud(x, np.sin(np.pi * x) + 0.2 * rng.standard_normal(200))
        ball = WeightSpec.characteristic(0.1)
        folds = make_folds(200, 4, seed=5, repeats=2)
        empty = fit(cloud, self.space_n(9), ball, self.nearest).diagnostics.fallback_cells
        assert 0 < len(empty) < 9
        res = cv_matches_oracle(cloud, [4, 9], self.space_n, ball, FitPolicy(), folds)
        assert np.isfinite(res.scores[0]) and list(res.failures) == [9]
        assert "empty weight support" in res.failures[9]
        training_clouds.clear()
        res = cv_matches_oracle(cloud, [4, 9], self.space_n, ball, self.nearest, folds)
        assert np.isfinite(res.scores).all()
        complements = [np.setdiff1d(np.arange(200), hold) for rep in folds for hold in rep]
        assert len(training_clouds) == len(complements)
        assert all(np.array_equal(a, b) for a, b in zip(training_clouds, complements))

    @pytest.mark.parametrize("weight", FAMILIES, ids=lambda w: w.family)
    @pytest.mark.parametrize("d", [1, 2])
    def test_every_family_matches_the_fold_by_fold_refits(self, weight, d):
        rng = np.random.default_rng(73 + d)
        n = 150 * d * d
        x = rng.uniform(-1, 1, (n, d))
        cloud = PointCloud(x, np.sin(3 * x[:, 0]) * x[:, -1] + 0.2 * rng.standard_normal(n))

        def space_of(n):
            return TensorSplineSpace.from_bounds([-1] * d, [1] * d, [n], 2)

        for policy, folds in ((FitPolicy(), make_folds(n, 5, seed=1)),
                              (self.nearest, make_folds(n, 4, seed=2, repeats=2))):
            res = cv_matches_oracle(cloud, [3, 5, 8], space_of, weight, policy, folds)
            assert np.isfinite(res.scores).all()

    @pytest.mark.parametrize("weight", FAMILIES + [WeightSpec.knn(30)], ids=lambda w: w.label())
    def test_duplicates_repeats_and_rows_outside_the_domain(self, weight):
        # every x three times, a third of the rows outside [-0.7, 0.8]
        rng = np.random.default_rng(79)
        x = np.repeat(rng.uniform(-1, 1, 40), 3)
        cloud = PointCloud(x, rng.standard_normal(120))

        def space_of(n):
            return TensorSplineSpace((make_uniform_regular(-0.7, 0.8, n, 2),))

        folds = make_folds(120, 3, seed=4, repeats=2)
        for policy in (FitPolicy(), FitPolicy(drop_outside=True),
                       FitPolicy(empty_support="nearest", drop_outside=True)):
            res = cv_matches_oracle(cloud, [4, 7, 15], space_of, weight, policy, folds)
            assert np.isfinite(res.scores).all()

    def test_idw_site_with_held_out_coincident_rows(self, training_clouds):
        # three rows on every site: their 1/3 weights do not renormalise to
        # 1/2 bit for bit, so each fold that holds one out refits the site
        space = TensorSplineSpace((make_uniform_regular(0, 1, 8, 2),))
        rng = np.random.default_rng(83)
        x = np.concatenate([np.repeat(space.knot_average_grids[0], 3), rng.uniform(0, 1, 30)])
        cloud = PointCloud(x, rng.standard_normal(len(x)))
        for policy in (FitPolicy(), self.nearest):
            training_clouds.clear()
            cv_matches_oracle(cloud, [8, 5], lambda n: TensorSplineSpace.from_bounds(0, 1, n, 2),
                              WeightSpec.idw(), policy, make_folds(cloud.n, 4, seed=3, repeats=2))
            assert training_clouds

    @pytest.mark.parametrize("empty_support", ["error", "nearest"])
    def test_idw_windows_empty_past_the_overflow_distance(self, empty_support):
        # sites 5e299 from every row: every distance reads inf, every weight 0
        x = np.concatenate([np.linspace(-1e300, -9e299, 20), np.linspace(9e299, 1e300, 20)])
        cloud = PointCloud(x, np.arange(40.0))
        res = cv_matches_oracle(cloud, [4, 5], lambda n: TensorSplineSpace.from_bounds(
            -1e300, 1e300, n, 2), WeightSpec.idw(), FitPolicy(empty_support=empty_support),
            make_folds(40, 4, seed=2))
        assert np.isfinite(res.scores).all() == (empty_support == "nearest")

    @pytest.mark.parametrize("empty_support", ["error", "nearest"])
    def test_fold_that_empties_a_ball_window(self, training_clouds, empty_support):
        # the rows within 0.05 of a few sites are all held out by one fold
        rng = np.random.default_rng(89)
        x = np.repeat(rng.uniform(-1, 1, 40), 3)
        cloud = PointCloud(x, rng.standard_normal(120))
        policy = FitPolicy(empty_support=empty_support)
        res = cv_matches_oracle(cloud, [4, 7, 15], self.space_n, WeightSpec.characteristic(0.05),
                                policy, make_folds(120, 3, seed=4, repeats=2))
        assert training_clouds  # the emptied windows took the fallback
        if empty_support == "error":
            assert "empty weight support" in res.failures[15]
        else:
            assert res.failures == {} and np.isfinite(res.scores).all()

    def test_knn_requery_and_k_clamp(self, training_clouds):
        rng = np.random.default_rng(97)
        cloud = PointCloud(rng.uniform(-1, 1, 80), rng.standard_normal(80))
        # half the rows held out: some of the 14 nearest keep fewer than 7
        cv_matches_oracle(cloud, [5, 9], self.space_n, WeightSpec.knn(7), FitPolicy(),
                          make_folds(80, 2, seed=3, repeats=2))
        assert training_clouds
        # 40 training rows for k = 50: every fold clamps k, as its own fit does
        with pytest.warns(UserWarning, match="clamped"):
            res = cv_matches_oracle(cloud, [5, 9], self.space_n, WeightSpec.knn(50),
                                    FitPolicy(), make_folds(80, 2, seed=3))
        assert np.isfinite(res.scores).all()

    def test_one_radius_query_per_candidate_and_one_tree(self, monkeypatch, training_clouds):
        from wqisa.kdtree import KdTree

        counts = {"builds": 0, "radius": 0}
        build, radius = KdTree.__init__, KdTree.radius_query

        def counted_build(tree, points):
            counts["builds"] += 1
            build(tree, points)

        def counted_radius(tree, u, r):
            counts["radius"] += 1
            return radius(tree, u, r)

        monkeypatch.setattr(KdTree, "__init__", counted_build)
        monkeypatch.setattr(KdTree, "radius_query", counted_radius)
        cloud = cloud_1d(400, seed=101)
        res = kfold_cv(cloud, list(range(5, 21)), self.space_n, WeightSpec.characteristic(0.1),
                       FitPolicy(), assignments=make_folds(cloud.n, 5, 5))
        assert np.isfinite(res.scores).all() and training_clouds == []
        assert counts == {"builds": 1, "radius": 16}
        # knn reads its folds off the 2k nearest: with a fifth of the rows
        # held out, no fold here is left with fewer than k of them
        self.cv(cloud, list(range(5, 21)), assignments=make_folds(cloud.n, 5, 5))
        assert training_clouds == [] and counts["builds"] == 1

    @pytest.mark.parametrize("weight", FAMILIES, ids=lambda w: w.family)
    def test_coefficients_are_clipped_to_the_training_range(self, weight):
        # 0.1 times weights that sum to 1 +- an ulp can round past 0.1: the
        # fold's fit clips it back, and so must the masked fold
        cloud = PointCloud(cloud_1d(90, seed=109).x, np.full(90, 0.1))
        res = cv_matches_oracle(cloud, [4, 6, 9], self.space_n, weight, FitPolicy(),
                                make_folds(90, 3, seed=1))
        assert np.isfinite(res.scores).all()

    @pytest.mark.parametrize("folds, message", [
        ([[np.arange(0, 25), np.arange(20, 40)]], "repeat 0 fold 1 holds out row 20 a second time"),
        ([[np.arange(0, 20), np.arange(20, 40)], [np.arange(0, 30), np.arange(31, 40)]],
         "repeat 1 holds out row 30 in no fold"),
        ([[np.arange(-1, 20), np.arange(20, 39)]], "repeat 0 fold 0 holds out row -1, outside"),
        ([[np.arange(0, 20), np.arange(20, 41)]], "repeat 0 fold 1 holds out row 40, outside"),
        ([[np.arange(20), np.arange(20, 40), np.array([5, 5])]],
         "repeat 0 fold 2 holds out row 5 a second time"),
        ([[np.arange(40), np.array([], dtype=int)]], "repeat 0 fold 0 must be 1 to 39 integer row indices"),
        ([[np.arange(20.0), np.arange(20.0, 40.0)]], "repeat 0 fold 0 must be 1 to 39 integer row indices"),
        ([], "at least one repeat"),
    ])
    def test_assignments_must_partition_the_rows(self, folds, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.cv(cloud_1d(40, seed=103), [5], assignments=folds)

    def test_overflowing_squared_error_is_a_named_failure(self):
        # finite held-out errors near 1e160 whose squares overflow; runs
        # under the suite's error::RuntimeWarning filter
        x = np.linspace(-1, 1, 60)
        cloud = PointCloud(x, 1e160 * (-1.0) ** np.arange(60))
        res = kfold_cv(cloud, [5], self.space_n, WeightSpec.knn(5), FitPolicy(),
                       assignments=make_folds(60, 3, 0))
        assert np.isinf(res.scores).all()
        assert res.failures == {5: "held-out squared error overflows"}
        with pytest.raises(ValueError, match="every candidate failed; 5: held-out squared"):
            select_parsimonious(res)

    def test_overflowing_held_out_error_is_named_without_a_warning(self):
        # y - prediction overflows at y = +-max: the candidate fails for that
        # reason, and numpy warns nothing under any filter
        cloud = PointCloud(np.linspace(-1, 1, 40), np.finfo(float).max * (-1.0) ** np.arange(40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kfold_cv(cloud, [3, 4], lambda n: space_1d(n, p=1), WeightSpec.knn(3),
                           FitPolicy(), assignments=make_folds(40, 4, 0))
        assert res.failures == dict.fromkeys([3, 4], "held-out squared error overflows")

    def test_folds_and_repeats_are_read_from_the_table(self):
        cloud = cloud_1d(60, seed=37)
        res = self.cv(cloud, [5, 7], assignments=make_folds(60, 3, 1, repeats=2))
        assert (res.folds, res.repeats) == (3, 2) and res.fold_scores.shape == (2, 6)

    def test_repeats_must_have_equal_fold_counts(self):
        table = make_folds(60, 3, 1) + make_folds(60, 4, 1)
        with pytest.raises(ValueError, match="repeat 1 has 4 folds, repeat 0 has 3"):
            self.cv(cloud_1d(60, seed=37), [5], assignments=table)

    def test_all_failed_names_the_first_failure(self):
        res = kfold_cv(cloud_1d(40, seed=107), [5, 6], self.space_n,
                       WeightSpec.characteristic(1e-4), FitPolicy(),
                       assignments=make_folds(40, 2, 0))
        assert np.isinf(res.scores).all()
        with pytest.raises(ValueError, match=r"every candidate failed; 5: empty weight support"):
            select_parsimonious(res)

    def test_parsimonious_prefers_earliest_within_one_se(self):
        # Candidate 0 is within one SE of the minimizer (candidate 2).
        fold = np.array([[1.0, 1.2, 1.1, 0.9, 1.0],
                         [2.0, 2.1, 1.9, 2.0, 2.0],
                         [0.8, 1.2, 1.0, 0.9, 1.1]])
        res = CvResult(grid=[3, 5, 7], scores=fold.mean(axis=1), best=7,
                       folds=5, fold_scores=fold)
        assert select_parsimonious(res) == 3

    def test_parsimonious_falls_back_to_minimizer(self):
        fold = np.array([[5.0, 5.0, 5.0], [1.0, 1.0, 1.0]])
        res = CvResult(grid=[3, 9], scores=fold.mean(axis=1), best=9,
                       folds=3, fold_scores=fold)
        assert select_parsimonious(res) == 9
        with pytest.raises(TypeError, match="fold_scores"):
            CvResult(grid=[1], scores=np.array([1.0]), best=1, folds=2)

    def test_parsimonious_never_picks_a_failed_candidate(self):
        # fold scores near 1e200, whose squared deviations overflow unless
        # they are measured in their gap_unit; runs under the suite's
        # error::RuntimeWarning filter
        fold = np.array([[np.inf] * 4, [1.0, 3.0, 2.0, 2.5], [1.5, 2.0, 2.0, 2.5]]) * 1e200
        res = CvResult(grid=[2, 3, 4], scores=np.array([np.inf, 2.125e200, 2.0e200]), best=4,
                       folds=4, fold_scores=fold, failures={2: "need n >= p+1"})
        assert select_parsimonious(res) == 3

    def test_parsimonious_where_score_plus_se_overflows(self):
        # score + SE passes the float range: every finite score is within
        # it, and the failed candidate before them is still skipped
        big = np.finfo(float).max
        fold = np.array([[np.inf] * 3, [0.9, 0.99, 0.95], [0.3, 0.99, 0.99]]) * big
        res = CvResult(grid=[2, 3, 4], scores=np.array([np.inf, 0.95 * big, 0.8 * big]),
                       best=4, folds=3, fold_scores=fold)
        assert select_parsimonious(res) == 3

    def test_unorderable_tied_candidates_take_the_first(self):
        # equal candidates score alike; dicts cannot be ordered by min()
        cloud = cloud_1d(60, seed=41)
        cands = [{"n": 5}, {"n": 5}]
        res = kfold_cv(cloud, cands, lambda c: self.space_n(c["n"]), self.knn8, self.nearest,
                       assignments=make_folds(cloud.n, 3, 0))
        assert res.scores[0] == res.scores[1] and res.best is cands[0]

    def test_parsimonious_on_real_cv_run(self):
        cloud = cloud_1d(90, seed=61)
        res = self.cv(cloud, [4, 6, 8, 10, 12], assignments=make_folds(cloud.n, 5, 3))
        pick = select_parsimonious(res)
        assert pick in res.grid
        assert pick <= res.best  # never more complex than the minimizer

    def test_make_folds_partitions_indices(self):
        parts = make_folds(53, 5, seed=11, repeats=3)
        assert len(parts) == 3
        for rep in parts:
            merged = np.sort(np.concatenate(rep))
            assert np.array_equal(merged, np.arange(53))
        assert not np.array_equal(np.concatenate(parts[0]),
                                  np.concatenate(parts[1]))

    def test_fold_count_validation(self):
        with pytest.raises(ValueError):
            make_folds(10, 1, seed=0)
        with pytest.raises(ValueError):
            make_folds(10, 11, seed=0)
        with pytest.raises(ValueError, match="repeats=0"):
            make_folds(10, 2, seed=0, repeats=0)
        with pytest.raises(ValueError, match="candidate"):
            self.cv(cloud_1d(20), [], assignments=make_folds(20, 2, seed=0))


class TestNoiseEstimate:
    def test_residual_estimate_recovers_sigma(self):
        rng = np.random.default_rng(53)
        x = rng.uniform(-1, 1, 4000)
        y = np.sin(np.pi * x) + 0.3 * rng.standard_normal(4000)
        cloud = PointCloud(x, y)
        model = fit(cloud, space_1d(12), WeightSpec.knn(20))
        noise = estimate_noise_sigma(model, cloud)
        assert noise.source == "residual-estimate"
        assert noise.sigma_eps == pytest.approx(0.3, rel=0.1)

    def test_user_noise_label_default(self):
        assert NoiseModel(0.5).source == "user"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_sigma_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="sigma_eps"):
            NoiseModel(bad)

    @pytest.mark.parametrize("scale", [2.0**700, 2.0**-600], ids=["2^700", "2^-600"])
    def test_band_of_a_sigma_whose_square_leaves_the_float_range(self, scale):
        # sigma is measured in its gap_unit: the band's standard deviations
        # keep their bits at a power-of-two scale, while the variances read
        # inf (or 0) where sigma^2 b^T G b passes the float range. On zero
        # responses f is 0, so hi = z * sd and lo = -hi exactly
        base, space, knn = cloud_1d(40), space_1d(6), WeightSpec.knn(5)
        cloud = PointCloud(base.x, np.zeros(base.n))
        model, u = fit(cloud, space, knn), np.linspace(-1, 1, 9)
        covs = [coefficient_covariance(cloud, space, knn, NoiseModel(s)) for s in (1.0, scale)]
        (_, _, lo1, hi1), (f, var, lo, hi) = (spread(model, cov, u) for cov in covs)
        assert not f.any() and np.array_equal(lo, -hi) and np.array_equal(lo1, -hi1)
        assert np.array_equal(hi, hi1 * scale) and hi.min() > 0.0
        assert np.array_equal(var, variance_at(model, covs[1], u))
        assert (var == math.inf).all() if scale > 1 else (var == 0.0).all()

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600])
    def test_estimate_keeps_its_bits_at_a_power_of_two_scale(self, scale):
        # residuals are measured in the values' gap_unit: no square overflows
        # or underflows, and scaling by a power of two is exact
        rng = np.random.default_rng(54)
        x = rng.uniform(-1, 1, 300)
        y = np.sin(np.pi * x) + 0.3 * rng.standard_normal(300)
        got = [estimate_noise_sigma(fit(c, space_1d(8), WeightSpec.knn(9)), c).sigma_eps
               for c in (PointCloud(x, y), PointCloud(x, y * scale))]
        assert got[1] == got[0] * scale and 0.2 < got[0] < 0.4

    def test_estimate_needs_two_rows(self):
        cloud = PointCloud([0.0], [1.0])
        model = fit(cloud, space_1d(3, p=1), WeightSpec.knn(1))
        with pytest.raises(ValueError, match="at least 2 points"):
            estimate_noise_sigma(model, cloud)
