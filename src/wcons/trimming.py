"""Trimmed barycenters: consensus that may discard an alpha fraction of mass.

Trimming a weighted ensemble reweights its atoms: it keeps the fraction
1 - alpha of the weight nearest to a candidate center, splitting one atom
at the boundary if needed, and renormalizes.  Alternating that
concentration step with a barycenter solve of the kept weights descends
the trimmed variance until the trimming repeats, as in trimmed k-means;
multistart guards against local minima.  Each solve also returns the
squared distances from its barycenter to every atom, which drive the next
trim, the variance and the radius.  The restarts of one call share their
solves: a kept set (its kept atoms, and which it keeps whole) is solved
once, and a new one starts from the barycenter scatter of the nearest
solved one (a cold start for the call's first solve).  Warm starts move
the floats at the level of the solver's tolerance; the result still
depends only on the ensemble and the config.  An exhaustive subset search
is an independent oracle for small equal-weight ensembles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .barycenter import WeightedEnsemble, _barycenter
from .errors import (BadWeights, DegenerateTrim, InvalidInput,
                     UnsupportedConfiguration, check_alpha, check_count)
from .locscatter import LocScatter
from .rng import RngState

__all__ = [
    "TrimConfig",
    "TrimmedResult",
    "BallCheck",
    "trim_weights",
    "trimmed_barycenter",
    "verify_ball_property",
    "variance_curve",
    "brute_force_trimmed",
]

# Slack when comparing cumulative weights against 1 - alpha; cumulative
# sums of weights that sum to one can undershoot the target by a few ulps.
_CUM_TOL = 1e-12
# Cap on the concentration steps of one restart.
OUTER_MAX_ITER = 100


@dataclass(frozen=True)
class TrimConfig:
    """Settings for the iterative trimmed-barycenter search; inner solves
    use the solver's default budgets and restarts ``OUTER_MAX_ITER``."""

    alpha: float
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        check_alpha(self.alpha)
        check_count(self.restarts, "restarts", 1)
        RngState(self.seed)  # rejects a seed that is not an integer


@dataclass(frozen=True, eq=False)
class TrimmedResult:
    """Trimmed barycenter plus the diagnostics of the winning restart.

    ``active_weights`` is the renormalized weight vector over the original
    atoms (summing to one, at most one strictly partial entry) and
    ``radius`` is the distance from the barycenter to the farthest atom
    that kept positive weight.
    """

    bary: LocScatter
    active_weights: np.ndarray
    trimmed_variance: float
    outer_iterations: int
    restart_index: int
    radius: float
    variance_history: tuple[float, ...]
    restart_variances: tuple[float, ...]


def trim_weights(distances, weights, alpha: float) -> np.ndarray:
    """Concentrate weights on the atoms nearest to the current center.

    Atoms are ranked by ``distances`` (any monotone transform of distance
    works; squared distances are fine) with ties broken by original index.
    Full weight is kept up to the smallest rank whose cumulative weight
    reaches 1 - alpha; the boundary atom keeps the remainder, or its whole
    weight (at most 1 - alpha) if the remainder covers it within
    ``_CUM_TOL``; the rest is zeroed and kept weights divided by 1 - alpha.
    Distances must be finite, and weights finite and strictly positive.
    """
    check_alpha(alpha)
    d = np.asarray(distances, dtype=float)
    lam = np.asarray(weights, dtype=float)
    if d.shape != lam.shape or d.ndim != 1 or d.shape[0] == 0:
        raise BadWeights("distances and weights must be matching vectors")
    if np.any(lam <= 0.0) or not np.isfinite(lam).all():
        raise BadWeights("weights must be finite and strictly positive")
    if not np.isfinite(d).all():
        raise InvalidInput("distances must be finite")
    if alpha == 0.0:
        return lam.copy()
    target = 1.0 - alpha
    order = np.argsort(d, kind="stable")
    cum = np.cumsum(lam[order])
    reached = np.nonzero(cum >= target - _CUM_TOL)[0]
    if reached.size == 0:
        raise DegenerateTrim(
            f"total weight {cum[-1]!r} cannot cover 1 - alpha = {target!r}")
    boundary = reached[0]
    kept = np.zeros_like(lam)
    kept[order[:boundary]] = lam[order[:boundary]]
    below = cum[boundary - 1] if boundary > 0 else 0.0
    # The same bits in any rank order; a lone kept atom weighs exactly 1.
    rest, whole = target - below, min(lam[order[boundary]], target)
    kept[order[boundary]] = whole if rest >= whole - _CUM_TOL else rest
    return kept / target


def _warm_start(solved: dict, lam_star: np.ndarray) -> np.ndarray | None:
    """Start for the solve of ``lam_star``: the scatter of the solved kept
    set whose stored weights lie nearest to it in L1 distance, ties to the
    earliest solved.  ``None`` (a cold start) for the call's first solve."""
    if not solved:
        return None
    entries = list(solved.values())
    gaps = np.abs(np.stack([e[0] for e in entries]) - lam_star).sum(axis=1)
    return entries[int(np.argmin(gaps))][1].bary.cov.entries


def _restart_path(ens: WeightedEnsemble, cfg: TrimConfig, index: int,
                  solved: dict):
    """One multistart path: (bary, weights, variance, history, d2), with
    ``d2`` the squared distances from ``bary`` to every atom.  ``solved``
    maps a kept set's key to its first weights, solve and ``d2``, in the
    order solved; the path reuses entries, adds its solves, warm-started,
    and ends at its first revisited key, on its last solve.  Each trim
    reads the last solve's distances; only the start's are computed here."""
    gen = RngState(cfg.seed).split(index).generator()
    d2 = ens._distances_sq(ens.members[int(gen.integers(ens.size))])
    whole = ens.weights / (1.0 - cfg.alpha)
    visited: dict = {}  # key -> variance, in the order visited
    for _ in range(OUTER_MAX_ITER):
        lam_star = trim_weights(d2, ens.weights, cfg.alpha)
        key = (lam_star > 0.0).tobytes() + (lam_star == whole).tobytes()
        if key in visited:
            break
        if key not in solved:
            solved[key] = (lam_star, *_barycenter(
                ens, lam_star, _warm_start(solved, lam_star)))
        lam_final, res, d2 = solved[key]
        visited[key] = res.variance
    return res.bary, lam_final, res.variance, list(visited.values()), d2


def _trimmed_result(bary: LocScatter, d2: np.ndarray, lam_star: np.ndarray,
                    variance: float, outer_iterations: int,
                    restart_index: int, history,
                    restart_variances) -> TrimmedResult:
    """Package a solution whose squared distances to every atom are ``d2``;
    the radius is measured over the kept atoms."""
    return TrimmedResult(bary=bary, active_weights=lam_star,
                         trimmed_variance=float(variance),
                         outer_iterations=outer_iterations,
                         restart_index=restart_index,
                         radius=float(np.sqrt(np.max(d2[lam_star > 0.0]))),
                         variance_history=tuple(history),
                         restart_variances=tuple(restart_variances))


def trimmed_barycenter(ens: WeightedEnsemble, cfg: TrimConfig) -> TrimmedResult:
    """Best trimmed barycenter over ``cfg.restarts`` seeded starting atoms.

    Each restart starts from a uniformly drawn member, alternates
    concentration (reweighting toward the current center) with estimation
    (recomputing the barycenter of the kept atoms) until it reaches a kept
    set it has already visited, and the restart with the smallest final
    variance wins; ties go to the lowest restart index.  Restarts run in
    order and share their inner solves, so a kept set reached by several
    restarts is solved once per call, reporting the weights it was first
    reached with, and each new solve starts from the nearest solved set;
    results depend only on the ensemble and the config.
    """
    solved: dict = {}
    paths = [_restart_path(ens, cfg, r, solved) for r in range(cfg.restarts)]
    finals = [p[2] for p in paths]
    best = min(range(cfg.restarts), key=finals.__getitem__)
    center, lam_star, var, history, d2 = paths[best]
    return _trimmed_result(center, d2, lam_star, var, len(history), best,
                           history, finals)


@dataclass(frozen=True)
class BallCheck:
    """Outcome of the ball-shape verification of a trimmed solution."""

    ok: bool
    radius: float
    violations: tuple[str, ...]


def verify_ball_property(result: TrimmedResult, ens: WeightedEnsemble,
                         alpha: float) -> BallCheck:
    """Check that the kept weights form a ball around the barycenter.

    Atoms strictly inside the radius (the largest distance among atoms with
    positive weight) must keep their full renormalized weight, atoms
    strictly outside must carry none, atoms on the boundary shell keep
    between none and their full weight, and at most one of them may be
    partially kept.
    """
    check_alpha(alpha)
    lam_star = np.asarray(result.active_weights, dtype=float)
    if lam_star.shape != ens.weights.shape:
        raise BadWeights("active weights do not match the ensemble")
    full = ens.weights / (1.0 - alpha)
    d = np.sqrt(ens._distances_sq(result.bary))
    positive = lam_star > 0.0
    violations: list[str] = []
    if not np.any(positive):
        return BallCheck(ok=False, radius=float("nan"),
                         violations=("no atom kept positive weight",))
    radius = float(np.max(d[positive]))
    shell = 1e-9 * (1.0 + radius)
    partial = 0
    for i in range(lam_star.shape[0]):
        w_tol = 1e-9 * full[i]
        if d[i] < radius - shell:
            if abs(lam_star[i] - full[i]) > w_tol:
                violations.append(
                    f"atom {i} strictly inside keeps {float(lam_star[i])!r} "
                    f"instead of full weight {float(full[i])!r}")
        elif d[i] > radius + shell:
            if lam_star[i] != 0.0:
                violations.append(f"atom {i} strictly outside keeps "
                                  f"weight {float(lam_star[i])!r}")
        elif not -w_tol <= lam_star[i] <= full[i] + w_tol:
            violations.append(
                f"atom {i} on the boundary shell keeps "
                f"{float(lam_star[i])!r}, outside [0, {float(full[i])!r}]")
        if w_tol < lam_star[i] < full[i] - w_tol:
            partial += 1
            if abs(d[i] - radius) > shell:
                violations.append(
                    f"partially kept atom {i} is off the boundary shell")
    if partial > 1:
        violations.append(f"{partial} atoms are partially kept, expected <= 1")
    total = float(lam_star.sum())
    if abs(total - 1.0) > 1e-9:
        violations.append(f"active weights sum to {total!r}")
    return BallCheck(ok=not violations, radius=radius,
                     violations=tuple(violations))


@dataclass(frozen=True, eq=False)
class CurvePoint:
    alpha: float
    variance: float
    result: TrimmedResult


def variance_curve(ens: WeightedEnsemble, alphas,
                   restarts: int = TrimConfig.restarts,
                   seed: int = 0) -> list[CurvePoint]:
    """Trimmed variance as a function of the trimming level; each level
    solves ``TrimConfig(alpha, restarts, seed)``."""
    alphas = [float(a) for a in alphas]
    for a in alphas:
        check_alpha(a)
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise InvalidInput("alphas must be strictly ascending")
    points = []
    for a in alphas:
        res = trimmed_barycenter(ens, TrimConfig(a, restarts, seed))
        points.append(CurvePoint(alpha=a, variance=res.trimmed_variance,
                                 result=res))
    return points


def brute_force_trimmed(ens: WeightedEnsemble, alpha: float) -> TrimmedResult:
    """Exhaustive oracle for equal weights and alpha a multiple of 1/k.

    With k equally weighted atoms and alpha = j/k the optimal trimming
    keeps exactly k - j atoms at full weight, so scanning every subset of
    that size and keeping the lowest-variance one (ties resolved toward
    the lexicographically smallest subset) is exact.  Each subset is
    solved like a trimming inner solve.  Only meant for k <= 12.
    """
    check_alpha(alpha)
    k = ens.size
    if k > 12:
        raise UnsupportedConfiguration(f"subset scan limited to k <= 12, got {k}")
    if np.any(np.abs(ens.weights - 1.0 / k) > 1e-9):
        raise UnsupportedConfiguration("subset scan requires equal weights")
    j = round(alpha * k)
    if not 0 <= j < k or abs(alpha - j / k) > 1e-9:
        raise UnsupportedConfiguration(
            f"alpha = {alpha!r} is not a multiple of 1/{k}")
    keep = k - j
    best = None
    for subset in itertools.combinations(range(k), keep):
        lam_star = np.zeros(k)
        lam_star[list(subset)] = 1.0 / keep
        res, d2 = _barycenter(ens, lam_star)
        if best is None or res.variance < best[0].variance:
            best = res, d2, lam_star
    res, d2, lam_star = best
    return _trimmed_result(res.bary, d2, lam_star, res.variance, 0, 0,
                           (res.variance,), (res.variance,))
