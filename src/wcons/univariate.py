"""Quantile-grid representation of distributions on the real line.

On the line the 2-Wasserstein distance is the L2 distance between quantile
functions, and the barycenter is the weighted pointwise average of quantile
functions.  Both are evaluated on a midpoint grid t_i = (i - 1/2) / N.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

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
        if np.any(np.diff(v) < 0.0):
            raise InvalidInput("quantile values must be nondecreasing")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def mean(self) -> float:
        return float(self.values.mean())

    def variance(self) -> float:
        return float(self.values.var())


def _check_sizes(grids: list[QuantileGrid]) -> int:
    sizes = {g.size for g in grids}
    if len(sizes) != 1:
        raise GridMismatch(f"grids have different resolutions: {sorted(sizes)}")
    return sizes.pop()


def w2_distance_1d(f: QuantileGrid, g: QuantileGrid) -> float:
    """Squared 2-Wasserstein distance, midpoint rule on (0, 1)."""
    _check_sizes([f, g])
    diff = f.values - g.values
    return float(diff @ diff) / f.size


def quantile_barycenter(weights, grids) -> QuantileGrid:
    """Barycenter of quantile grids: the weighted pointwise average."""
    grids = list(grids)
    lam = check_weights(weights, len(grids))
    _check_sizes(grids)
    stacked = np.stack([g.values for g in grids])
    return QuantileGrid(lam @ stacked)


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
    the placement of ``mean``.
    """
    if not is_real(mean):
        raise InvalidInput(f"mean must be a real number, got {mean!r}")
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
    return QuantileGrid(mean + sigma * z)
