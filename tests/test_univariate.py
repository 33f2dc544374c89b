"""Quantile-grid machinery: 1D distances, barycenters and variance.

The normal quantile oracle is an independent bisection on math.erf, so the
library's grid, built on the standard library's
``statistics.NormalDist().inv_cdf``, is checked against a second
implementation.
"""

import math

import numpy as np
import pytest

from wcons import (BadWeights, GridMismatch, InvalidInput, QuantileGrid,
                   gaussian_quantiles, quantile_barycenter, variance_1d,
                   w2_distance_1d)
from wcons.univariate import DEFAULT_GRID_SIZE


def norm_quantile_oracle(t):
    """Standard normal quantile by bisection on the erf-based CDF."""
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def constant_grid(value, size=64):
    return QuantileGrid(np.full(size, float(value)))


class TestQuantileGrid:
    def test_requires_two_values(self):
        with pytest.raises(InvalidInput):
            QuantileGrid(np.array([1.0]))

    def test_requires_finite_values(self):
        with pytest.raises(InvalidInput):
            QuantileGrid(np.array([0.0, np.inf]))

    def test_requires_nondecreasing_values(self):
        with pytest.raises(InvalidInput):
            QuantileGrid(np.array([0.0, 1.0, 0.5]))

    def test_values_read_only(self):
        g = QuantileGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            g.values[0] = 5.0

    def test_mean_and_variance_of_constant(self):
        g = constant_grid(3.0)
        assert g.mean() == 3.0
        assert g.variance() == 0.0

    def test_default_size(self):
        assert gaussian_quantiles(0.0, 1.0).size == DEFAULT_GRID_SIZE


class TestGaussianQuantiles:
    def test_known_upper_quantile(self):
        # (i + 1/2) / 20 = 0.975 at i = 19.
        g = gaussian_quantiles(0.0, 1.0, size=20)
        assert g.values[19] == pytest.approx(1.959964, abs=1e-6)

    def test_matches_bisection_oracle(self):
        size = 101
        g = gaussian_quantiles(0.0, 1.0, size=size)
        for i in range(0, size, 7):
            t = (i + 0.5) / size
            assert g.values[i] == pytest.approx(norm_quantile_oracle(t),
                                                abs=1e-9)

    def test_mirror_symmetry_is_exact(self):
        for size in (64, 101):
            g = gaussian_quantiles(0.0, 1.0, size=size)
            np.testing.assert_array_equal(g.values, -g.values[::-1])

    def test_odd_center_is_zero(self):
        g = gaussian_quantiles(0.0, 1.0, size=101)
        assert g.values[50] == 0.0

    def test_location_scale(self):
        base = gaussian_quantiles(0.0, 1.0, size=256)
        moved = gaussian_quantiles(2.0, 3.0, size=256)
        np.testing.assert_allclose(moved.values, 2.0 + 3.0 * base.values,
                                   rtol=1e-15)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInput):
            gaussian_quantiles(0.0, 0.0)
        with pytest.raises(InvalidInput):
            gaussian_quantiles(0.0, -1.0)
        for sigma in (float("nan"), float("inf")):
            with pytest.raises(InvalidInput, match="sigma"):
                gaussian_quantiles(0.0, sigma)
        with pytest.raises(InvalidInput):
            gaussian_quantiles(0.0, 1.0, size=1)
        # A string mean used to end in numpy's UFuncTypeError.
        for mean in ("a", None, [0.0]):
            with pytest.raises(InvalidInput, match="mean"):
                gaussian_quantiles(mean, 1.0, 8)


class TestDistance1d:
    def test_identical_grids(self):
        g = gaussian_quantiles(0.0, 1.0, size=128)
        assert w2_distance_1d(g, g) == 0.0

    def test_constants(self):
        assert w2_distance_1d(constant_grid(0.0),
                              constant_grid(2.0)) == pytest.approx(4.0)

    def test_gaussian_closed_form(self):
        # (m1 - m2)^2 + (s1 - s2)^2 = 4 + 4 = 8 for N(0,1) vs N(2,9).
        f = gaussian_quantiles(0.0, 1.0, size=4096)
        g = gaussian_quantiles(2.0, 3.0, size=4096)
        assert w2_distance_1d(f, g) == pytest.approx(8.0, abs=5e-3)

    def test_grid_error_shrinks_with_resolution(self):
        errors = []
        for size in (512, 4096):
            f = gaussian_quantiles(0.0, 1.0, size=size)
            g = gaussian_quantiles(2.0, 3.0, size=size)
            errors.append(abs(w2_distance_1d(f, g) - 8.0))
        assert errors[1] < errors[0]

    def test_resolution_mismatch(self):
        with pytest.raises(GridMismatch):
            w2_distance_1d(constant_grid(0.0, 64), constant_grid(0.0, 65))


class TestQuantileBarycenter:
    def test_pointwise_weighted_average(self):
        f = QuantileGrid(np.array([0.0, 1.0, 2.0]))
        g = QuantileGrid(np.array([4.0, 5.0, 6.0]))
        bary = quantile_barycenter([0.25, 0.75], [f, g])
        np.testing.assert_allclose(bary.values, [3.0, 4.0, 5.0], rtol=1e-15)

    def test_gaussian_average_is_gaussian(self):
        f = gaussian_quantiles(0.0, 1.0, size=1024)
        g = gaussian_quantiles(2.0, 3.0, size=1024)
        bary = quantile_barycenter([0.5, 0.5], [f, g])
        expect = gaussian_quantiles(1.0, 2.0, size=1024)
        np.testing.assert_allclose(bary.values, expect.values, atol=1e-14)

    def test_single_grid_returned_unchanged(self):
        g = gaussian_quantiles(-1.0, 0.5, size=128)
        bary = quantile_barycenter([1.0], [g])
        np.testing.assert_array_equal(bary.values, g.values)

    def test_weight_validation(self):
        f = constant_grid(0.0)
        g = constant_grid(1.0)
        with pytest.raises(BadWeights):
            quantile_barycenter([0.5, 0.6], [f, g])
        with pytest.raises(BadWeights):
            quantile_barycenter([1.5, -0.5], [f, g])
        with pytest.raises(BadWeights):
            quantile_barycenter([1.0], [f, g])
        with pytest.raises(BadWeights, match="numeric"):
            quantile_barycenter(["a", "b"], [f, g])

    @pytest.mark.parametrize("weights", [[math.nan, math.nan],
                                         [math.inf, 0.5], [0.5, math.nan]])
    def test_non_finite_weights_rejected(self, weights):
        # variance_1d used to return nan for NaN weights.
        f = constant_grid(0.0)
        g = constant_grid(1.0)
        bary = quantile_barycenter([0.5, 0.5], [f, g])
        with pytest.raises(BadWeights, match="finite"):
            quantile_barycenter(weights, [f, g])
        with pytest.raises(BadWeights, match="finite"):
            variance_1d(weights, [f, g], bary)

    def test_resolution_mismatch(self):
        with pytest.raises(GridMismatch):
            quantile_barycenter([0.5, 0.5],
                                [constant_grid(0.0, 64), constant_grid(0.0, 32)])


class TestVariance1d:
    def test_two_unit_gaussians(self):
        # Means 0 and 2, both sigma 1: the barycenter is N(1,1) and each
        # member sits at squared distance 1, so the variance is 1.
        grids = [gaussian_quantiles(0.0, 1.0), gaussian_quantiles(2.0, 1.0)]
        weights = [0.5, 0.5]
        bary = quantile_barycenter(weights, grids)
        assert variance_1d(weights, grids, bary) == pytest.approx(1.0,
                                                                  abs=1e-10)

    def test_two_constants(self):
        grids = [constant_grid(0.0), constant_grid(2.0)]
        weights = [0.5, 0.5]
        bary = quantile_barycenter(weights, grids)
        assert variance_1d(weights, grids, bary) == pytest.approx(1.0,
                                                                  abs=1e-12)

    def test_barycenter_is_first_order_optimal(self):
        gen = np.random.default_rng(41)
        grids = [gaussian_quantiles(float(gen.uniform(-2, 2)),
                                    float(gen.uniform(0.5, 2.0)), size=512)
                 for _ in range(4)]
        weights = np.full(4, 0.25)
        bary = quantile_barycenter(weights, grids)
        base = variance_1d(weights, grids, bary)
        for _ in range(20):
            bump = np.zeros(512)
            idx = gen.integers(0, 512, size=20)
            bump[idx] = gen.uniform(-1e-6, 1e-6, size=20)
            candidate = QuantileGrid(np.maximum.accumulate(bary.values + bump))
            moved = variance_1d(weights, grids, candidate)
            assert moved >= base - 1e-15

    def test_zero_when_all_grids_equal(self):
        g = gaussian_quantiles(0.3, 1.2, size=256)
        weights = [0.5, 0.5]
        assert variance_1d(weights, [g, g],
                           quantile_barycenter(weights, [g, g])) == 0.0
