"""Quantile-grid representation of distributions on the real line.

On the line the 2-Wasserstein distance is the L2 distance between quantile
functions, and the barycenter is the weighted pointwise average of quantile
functions.  Both are evaluated on a midpoint grid t_i = (i - 1/2) / N.
Grids hold any finite values; a closed form whose value overflows raises
``ArithmeticError`` (a solver failure, CLI exit 2) and prints no warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (GridMismatch, InvalidInput, check_count, check_positive,
                     check_weights, is_real)

__all__ = [
    "QuantileGrid",
    "w2_distance_1d",
    "quantile_barycenter",
    "variance_1d",
    "gaussian_quantiles",
]

DEFAULT_GRID_SIZE = 4096


def _finite(what: str, compute, arrays, degree: int) -> float:
    """``compute(*arrays)`` as a float, evaluated without overflow warnings.

    ``compute`` is homogeneous of degree ``degree``.  Only when its plain
    value is not finite is it redone on the arrays divided by an exact power
    of two that brings their largest entry below 1, and scaled back, so an
    intermediate overflow does not hide a finite result.  A result that
    itself overflows raises ``ArithmeticError`` naming ``what``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(compute(*arrays))
        if not math.isfinite(value):
            _, exp = math.frexp(max(float(np.abs(a).max()) for a in arrays))
            value = float(compute(*(np.ldexp(a, -exp) for a in arrays)))
            try:
                value = math.ldexp(value, degree * exp)
            except OverflowError:
                value = math.inf
    if not math.isfinite(value):
        raise ArithmeticError(f"{what} overflows")
    return value


@dataclass(frozen=True, eq=False)
class QuantileGrid:
    """Quantile function sampled at the N midpoints (i - 1/2) / N."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.shape[0] < 2:
            raise InvalidInput("quantile grid needs at least two values")
        if not np.all(np.isfinite(v)):
            raise InvalidInput("quantile grid has non-finite values")
        if np.any(v[1:] < v[:-1]):
            raise InvalidInput("quantile values must be nondecreasing")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def mean(self) -> float:
        return _finite("quantile grid mean", np.mean, [self.values], 1)

    def variance(self) -> float:
        return _finite("quantile grid variance", np.var, [self.values], 2)


def _check_sizes(grids: list[QuantileGrid]) -> int:
    sizes = {g.size for g in grids}
    if len(sizes) != 1:
        raise GridMismatch(f"grids have different resolutions: {sorted(sizes)}")
    return sizes.pop()


def w2_distance_1d(f: QuantileGrid, g: QuantileGrid) -> float:
    """Squared 2-Wasserstein distance, midpoint rule on (0, 1)."""
    _check_sizes([f, g])

    def squared(a, b):
        diff = a - b
        return float(diff @ diff) / f.size
    return _finite("squared 1-D distance", squared, [f.values, g.values], 2)


def quantile_barycenter(weights, grids) -> QuantileGrid:
    """Barycenter of quantile grids: the weighted pointwise average."""
    grids = list(grids)
    lam = check_weights(weights, len(grids))
    _check_sizes(grids)
    stacked = np.stack([g.values for g in grids])
    with np.errstate(over="ignore"):
        values = lam @ stacked
    if not np.isfinite(values).all():
        raise ArithmeticError("quantile barycenter overflows")
    return QuantileGrid(values)


def variance_1d(weights, grids, bary: QuantileGrid) -> float:
    """Weighted mean of squared distances from each grid to ``bary``."""
    grids = list(grids)
    lam = check_weights(weights, len(grids))
    return float(sum(l * w2_distance_1d(g, bary) for l, g in zip(lam, grids)))


def gaussian_quantiles(mean: float, sigma: float, size: int = DEFAULT_GRID_SIZE) -> QuantileGrid:
    """Quantile grid of a normal law N(mean, sigma^2).

    The standard normal quantiles, from the standard library's
    ``statistics.NormalDist().inv_cdf``, are computed for the lower half of
    the grid and mirrored, so the grid is antisymmetric about its center up to
    the placement of ``mean``.  A mean that is not finite, or a finite sigma
    whose grid overflows, raises :class:`InvalidInput` naming it.
    """
    from statistics import NormalDist

    if not (is_real(mean) and np.isfinite(mean)):
        raise InvalidInput(f"mean must be a finite real number, got {mean!r}")
    check_positive(sigma, "sigma")
    check_count(size, "size", 2)
    z = np.empty(size)
    half = size // 2
    t = (np.arange(1, half + 1) - 0.5) / size
    lower = np.array(list(map(NormalDist().inv_cdf, t.tolist())))
    z[:half] = lower
    z[size - half:] = -lower[::-1]
    if size % 2 == 1:
        z[half] = 0.0
    with np.errstate(over="ignore"):
        values = mean + sigma * z
    if not np.isfinite(values).all():
        raise InvalidInput(f"sigma = {sigma!r} overflows the quantile grid "
                           f"about mean {mean!r}")
    return QuantileGrid(values)
