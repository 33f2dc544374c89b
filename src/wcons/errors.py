"""Exception types shared across the package, and the input rules that
several modules apply: counts, trimming levels, positive scalars and weight
vectors."""

import math
import numbers
import operator

import numpy as np


class InvalidInput(ValueError):
    """Malformed numeric input (wrong shape, non-finite entries, bad scalar)."""


def is_real(value) -> bool:
    """Whether ``value`` is a real number (Python or numpy); a boolean is
    not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_index(value) -> int:
    """``value`` as a Python int if it is an integer (Python or numpy);
    :class:`TypeError` otherwise, for a boolean too."""
    if isinstance(value, bool):
        raise TypeError(f"a boolean is not an integer: {value!r}")
    return operator.index(value)


def check_count(value, name: str, minimum: int) -> None:
    """Raise :class:`InvalidInput` unless ``value`` is an integer (Python or
    numpy, not a boolean) of at least ``minimum``."""
    try:
        ok = as_index(value) >= minimum
    except TypeError:
        ok = False
    if not ok:
        raise InvalidInput(
            f"{name} must be an integer >= {minimum}, got {value!r}")


def check_alpha(value, name: str = "alpha") -> None:
    """Raise :class:`InvalidInput` unless ``value`` is a real trimming level
    in [0, 1)."""
    if not (is_real(value) and 0.0 <= value < 1.0):
        raise InvalidInput(f"{name} must lie in [0, 1), got {value!r}")


def check_positive(value, name: str) -> None:
    """Raise :class:`InvalidInput` unless ``value`` is a finite real > 0."""
    if not (is_real(value) and 0.0 < value < math.inf):
        raise InvalidInput(
            f"{name} must be finite and positive, got {value!r}")


def check_weights(weights, count: int) -> np.ndarray:
    """``weights`` as a float vector, or :class:`BadWeights` unless it has
    ``count >= 1`` finite, strictly positive entries summing to one within
    1e-9."""
    try:
        lam = np.asarray(weights, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise BadWeights("weights must be numeric") from None
    if lam.ndim != 1 or lam.shape[0] != count:
        raise BadWeights(f"expected {count} weights, got shape {lam.shape}")
    if count == 0:
        raise BadWeights("ensemble must contain at least one member")
    if np.any(lam <= 0.0) or not np.all(np.isfinite(lam)):
        raise BadWeights("weights must be finite and strictly positive")
    if abs(lam.sum() - 1.0) > 1e-9:
        raise BadWeights(f"weights sum to {float(lam.sum())!r}, expected 1")
    return lam


class DimensionMismatch(InvalidInput):
    """Operands live in different dimensions."""


class NotPositiveDefinite(ValueError):
    """Certification of a symmetric matrix as positive definite failed.

    Carries the offending smallest eigenvalue in ``min_eigenvalue``.
    """

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class BadWeights(InvalidInput):
    """Weight vector is empty, non-positive, or does not sum to one."""


class GridMismatch(InvalidInput):
    """Quantile grids of different resolutions were combined."""


class MaxIterationsExceeded(RuntimeError):
    """An iterative solver ran out of iterations.

    Carries the last iterate and the residual reached so callers can inspect
    how far the solve got.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class DegenerateTrim(ValueError):
    """Trimming level leaves no mass to keep."""


class UnsupportedConfiguration(ValueError):
    """Inputs outside the supported envelope of an exhaustive routine."""


class SingularSubset(RuntimeError):
    """Covariance estimation kept hitting singular subsets."""


class ParseError(ValueError):
    """A document on disk could not be parsed; carries location context."""
