"""Seeded simulation studies: robust scatter estimation and consensus quality.

The hospital study samples contaminated point clouds for many units, fits
each with a concentration-step covariance estimator, and compares plain,
linear and trimmed aggregation of the per-unit estimates against the clean
target.  The consistency harness tracks how the trimmed barycenter of
growing random ensembles settles down.  Everything is reproducible from a
single 64-bit seed; tasks draw from split sub-streams so execution order
never matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .barycenter import (WeightedEnsemble, fixed_point_barycenter,
                         linear_mean)
from .errors import (InvalidInput, SingularSubset, check_alpha, check_count,
                     check_positive, is_real)
from .locscatter import LocScatter, w2_distance_sq
from .rng import RngState
from .spd import SpdMatrix, certify_spd
from .trimming import TrimConfig, TrimmedResult, trimmed_barycenter

__all__ = [
    "HospitalConfig",
    "HospitalReport",
    "ConsistencyRow",
    "ConsistencyReport",
    "random_spd",
    "estimate_mcd",
    "c_step_path",
    "hospital_experiment",
    "consistency_harness",
    "gaussian_parameter_law",
    "ellipse_points",
    "ellipse_toy_ensemble",
]

# Split index reserved for the aggregation stage (unit tasks use 0..k-1,
# harness tasks 0..len(n_values)*reps).
_AGGREGATE_TAG = 0x5EED

# Most points in each (paths, n) array of one block of concentration paths:
# a study's working set is set by the block, not by units x restarts x n,
# and 80 KB arrays still spread each step's numpy calls over many paths.
_BLOCK_POINTS = 10_000


def _generator(gen) -> np.random.Generator:
    if not isinstance(gen, np.random.Generator):
        raise InvalidInput(f"expected a numpy Generator, got {type(gen)}")
    return gen


def _planar_haar(x: np.ndarray):
    """Q of the QR factorization of a 2 x 2 ``x`` with ``diag(R) >= 0``.

    With ``x = [[a, b], [c, d]]`` and ``h = hypot(a, c)``, the columns are
    ``(a, c) / h`` and ``sign(ad - bc) (-c, a) / h``, the sign taken as +1
    at 0.  Returns None when the first column is zero.
    """
    (a, b), (c, d) = x.tolist()
    h = math.hypot(a, c)
    if h == 0.0:
        return None
    s = -1.0 if a * d - b * c < 0.0 else 1.0
    return np.array([[a / h, -s * c / h], [c / h, s * a / h]])


def _half_log_cap(dim: int, condition_cap: float) -> float:
    """Check the arguments of :func:`random_spd`; half the log of the cap."""
    check_count(dim, "dim", 1)
    # Past 1e10 a draw's smallest eigenvalue can fall under the positivity
    # floor of certification, 1e-10 of the largest (spd.pd_floor).
    if not (is_real(condition_cap) and 1.0 <= condition_cap <= 1e10):
        raise InvalidInput("condition cap must be finite and in [1, 1e10], "
                           f"got {condition_cap!r}")
    return 0.5 * np.log(condition_cap)


def random_spd(dim: int, condition_cap: float,
               gen: np.random.Generator) -> SpdMatrix:
    """Random positive definite matrix with condition number <= cap.

    Eigenvalues are log-uniform on [cap^-1/2, cap^1/2] and the eigenbasis
    is Haar-distributed orthogonal, so the spectrum is bounded by
    construction.  The eigenbasis is the Q factor, with ``diag(R) >= 0``,
    of a standard normal draw; at d = 2 it is built in closed form.  The
    cap must lie in [1, 1e10]: past it the smallest eigenvalue of a draw
    can fall under the positivity floor of certification.
    """
    half = _half_log_cap(dim, condition_cap)
    return _spd_draw(dim, half, _generator(gen))


def _spd_draw(dim: int, half: float, gen: np.random.Generator) -> SpdMatrix:
    """The draw of :func:`random_spd`, ``half`` from :func:`_half_log_cap`."""
    eigs = np.exp(gen.uniform(-half, half, size=dim))
    x = gen.standard_normal((dim, dim))
    q = _planar_haar(x) if dim == 2 else None
    if q is None:
        q, r = np.linalg.qr(x)
        q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    return certify_spd((q * eigs) @ q.T)


def _ml_fit(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and maximum-likelihood covariance of each ``(..., m, d)`` cloud."""
    mean = points.mean(axis=-2)
    centered = points - mean[..., None, :]
    return mean, np.swapaxes(centered, -1, -2) @ centered / points.shape[-2]


def _edge_values(md: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``h``-th and ``(h + 1)``-th smallest entry of each row of ``md``
    (NaN ranking last, as in a sort), from one partial selection."""
    part = np.partition(md, h, axis=1)
    return part[:, :h].max(axis=1), part[:, h]


def _supports(md: np.ndarray, last: np.ndarray, h: int) -> np.ndarray:
    """Ascending indices of the ``h`` smallest entries of each row of
    ``md``, ties by index: the first ``h`` of a stable argsort, sorted.

    ``last`` holds each row's ``h``-th smallest entry, so the support is
    the entries at most ``last``.  A row with more of those than ``h`` (a
    tie across the edge) or fewer (a NaN edge) is ranked by the stable
    sort itself.
    """
    keep = md <= last[:, None]
    odd = np.flatnonzero(np.count_nonzero(keep, axis=1) != h)
    if odd.size:
        order = np.argsort(md[odd], axis=1, kind="stable")[:, :h]
        keep[odd] = False
        keep[odd[:, None], order] = True
    # Flat positions in row-major order are ascending within each row.
    rows, n = keep.shape
    return (np.flatnonzero(keep).reshape(rows, h)
            - n * np.arange(rows)[:, None])


def _support_fits(cols: list[np.ndarray], own: np.ndarray,
                  support: np.ndarray):
    """:func:`_ml_fit` of the points ``support[i]`` of the clouds
    ``own[i]``, bit for bit, from the clouds' coordinate arrays ``cols``
    (``(u, n)`` each).

    On the ``(b, h, d)`` stack of those points, ``mean(axis=-2)`` sums over
    ``h`` in order when ``d >= 2``, through a strided axis.  Here each
    coordinate is gathered as an ``(h, b)`` array and summed over its
    rows, the same order; a single column is accumulated, since numpy
    would sum it pairwise.  At ``d = 1`` the stack's own sum runs along
    contiguous rows, pairwise, so the stack goes to :func:`_ml_fit`.
    """
    (b, h), d, n = support.shape, len(cols), cols[0].shape[1]
    flat = support + n * own[:, None]
    if d == 1:
        return _ml_fit(cols[0].ravel().take(flat)[..., None])
    index = np.ascontiguousarray(flat.T)
    mean = np.empty((b, d))
    stack = np.empty((b, h, d))
    for j, col in enumerate(cols):
        values = col.ravel().take(index)
        total = (values.sum(axis=0) if b > 1
                 else np.add.accumulate(values)[-1])
        mean[:, j] = total / h
        stack[..., j] = values.T
    stack -= mean[:, None, :]
    return mean, np.swapaxes(stack, 1, 2) @ stack / h


def _c_step_paths(clouds: np.ndarray, owner: np.ndarray, h: int,
                  means: np.ndarray, covs: np.ndarray, max_steps: int = 100):
    """Concentration steps for a stack of paths until each support repeats.

    Path ``i`` starts from ``means[i]``, ``covs[i]`` on the cloud
    ``clouds[owner[i]]`` (shapes ``(b, d)``, ``(b, d, d)``, ``(u, n, d)``).
    All live paths take each step together; a path leaves the live set when
    its new support equals its last one (before refitting it, since the fit
    would be the one it has), when it fails, or after ``max_steps`` refits.
    A path fails when its start covariance is exactly singular (an LU zero
    pivot, on which a solve would raise) or when a refit has determinant
    sign <= 0.  Arrays are ``(b, n)``, so :func:`_mcd_fits` passes blocks.

    The clouds are held once as ``d`` contiguous ``(u, n)`` coordinate
    arrays.  At d = 2 a path whose covariance ``[[a, p], [q, c]]`` has
    condition number below about 1e6 ranks its points by ``c x^2 - (p + q)
    x y + a y^2``, the Mahalanobis distance times ``a c - p q > 0``; the
    other paths, and every path in other dimensions, solve.  The two
    routes differ by a few ulps times that condition number, so a step
    whose h-th and (h+1)-th closed-form values lie within 1e-8 of each
    other is ranked by the solve: the supports are the solve's.  Those two
    values come from one partial selection (``np.partition`` at ``h``),
    not a sort; the support is every point at most the h-th value, with
    ties across the edge kept by index, the earliest first, as a stable
    sort keeps them.  The refit has the bits of :func:`_ml_fit` on the
    ``(b, h, d)`` stack of the support points (:func:`_support_fits`).
    Returns ``(means, covs, supports, history, steps, failed)``;
    row ``i`` of ``history`` holds the log-determinants of the first
    ``steps[i]`` refits of path ``i``.
    """
    b = owner.shape[0]
    n, d = clouds.shape[1:]
    cols = [np.ascontiguousarray(clouds[..., j]) for j in range(d)]
    means = np.array(means, dtype=float)
    covs = np.array(covs, dtype=float)
    supports = np.zeros((b, h), dtype=np.intp)
    history = np.full((b, max_steps), np.nan)
    steps = np.zeros(b, dtype=np.intp)
    failed = np.linalg.slogdet(covs)[0] == 0
    # Working copies of the live paths; every live path has taken exactly
    # ``step`` refits, so one step counter serves them all.
    live = np.flatnonzero(~failed)
    mean, cov = means[live], covs[live]
    for step in range(max_steps):
        if live.size == 0:
            break
        own = owner[live]
        if h == n:
            support = np.broadcast_to(np.arange(n), (live.size, n))
        else:
            delta = [col[own] - mean[:, j, None]
                     for j, col in enumerate(cols)]
            if d == 2:
                a, p = cov[:, 0, 0], cov[:, 0, 1]
                q, c = cov[:, 1, 0], cov[:, 1, 1]
                x, y = delta
                # The routes may order distances within 1e-8 of each other
                # apart, so the solve decides a near tie at the support's
                # edge (the d + 1 points of a start subset all lie at
                # distance d exactly).  A closed form that overflowed makes
                # a test NaN, which fails both comparisons: that row solves.
                with np.errstate(over="ignore", invalid="ignore"):
                    md = (c[:, None] * x * x - (p + q)[:, None] * x * y
                          + a[:, None] * y * y)
                    last, after = _edge_values(md, h)
                    rows = np.flatnonzero(
                        ~((a * c - p * q > 1e-6 * (a + c) ** 2)
                          & (after - last > 1e-8 * after)))
            else:
                md, last = np.empty((live.size, n)), np.empty(live.size)
                rows = np.arange(live.size)
            if rows.size:
                part = np.stack([t[rows] for t in delta], axis=-1)
                md[rows] = np.einsum(
                    "bij,bji->bi", part,
                    np.linalg.solve(cov[rows], np.swapaxes(part, 1, 2)))
                last[rows] = _edge_values(md[rows], h)[0]
            support = _supports(md, last, h)
        if step:
            # A repeated support would refit to the fit it already has.
            moved = np.any(support != supports[live], axis=1)
            live, own, support = live[moved], own[moved], support[moved]
            if live.size == 0:
                break
        mean, cov = _support_fits(cols, own, support)
        sign, logdet = np.linalg.slogdet(cov)
        ok = sign > 0
        if not ok.all():
            failed[live[~ok]] = True
            live, mean, cov, support = live[ok], mean[ok], cov[ok], support[ok]
            logdet = logdet[ok]
        means[live], covs[live], supports[live] = mean, cov, support
        history[live, step] = logdet
        steps[live] = step + 1
    return means, covs, supports, history, steps, failed


def _finite(value, name: str) -> np.ndarray:
    """``value`` as a float array, or :class:`InvalidInput` naming it unless
    every entry is finite."""
    a = np.asarray(value, dtype=float)
    if not np.isfinite(a).all():
        raise InvalidInput(f"{name} has non-finite entries")
    return a


def _points(points) -> np.ndarray:
    """``points`` as a finite ``(n, d)`` float array."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InvalidInput(f"points must be (n, d), got shape {pts.shape}")
    return _finite(pts, "points")


def c_step_path(points: np.ndarray, h: int, mean: np.ndarray,
                cov: np.ndarray):
    """Concentration steps from an initial fit until the support repeats.

    Each step keeps the ``h`` points with smallest Mahalanobis distance
    (ties by original index) and refits mean and maximum-likelihood
    covariance on them; the covariance determinant never increases along
    the path, which stops after at most 100 refits.  Returns ``(mean, cov,
    support, logdet_history)``.
    """
    pts = _points(points)
    n, d = pts.shape
    check_count(h, "h", 1)
    if not h <= n:
        raise InvalidInput(f"need 1 <= h <= n, got h={h}, n={n}")
    mean, cov = _finite(mean, "mean"), _finite(cov, "cov")
    if mean.shape != (d,) or cov.shape != (d, d):
        raise InvalidInput(f"start must be a ({d},) mean and a ({d}, {d}) "
                           f"cov, got {mean.shape} and {cov.shape}")
    means, covs, supports, history, steps, failed = _c_step_paths(
        pts[None], np.zeros(1, dtype=np.intp), h, mean[None], cov[None])
    if failed[0]:
        raise SingularSubset("concentration path hit a singular covariance")
    support = supports[0] if steps[0] else None
    return means[0], covs[0], support, history[0, :steps[0]].tolist()


def _mcd_fits(clouds: np.ndarray, h: int, restarts: int,
              gens: list[np.random.Generator]):
    """Raw MCD fits of the clouds ``(u, n, d)``: means ``(u, d)`` and
    covariances ``(u, d, d)``, symmetrized as :class:`SymMatrix` does.

    Starts are drawn in rounds: in each, a cloud that needs ``m`` more
    restarts draws an ``(m, n)`` array of uniforms from ``gens[i]``, in one
    call per block that holds its paths, and each row's d + 1
    lowest-ranked points, in ascending index order, are a uniform
    (d+1)-point start subset.  The paths of all clouds are drawn and step
    in blocks of ``_BLOCK_POINTS // n`` paths (at least one), in order,
    and only each path's final log-determinant, fit and failure flag
    outlive its block.  Only failed paths are redrawn, in the next round,
    so every generator makes exactly the draws of a loop that draws
    ``gen.random(n)`` for one subset at a time; a cloud gives up after 10
    * restarts attempts.  Each block picks its winners in one array pass:
    the smallest final log-determinant wins, the earliest completed
    restart winning ties.
    """
    u, n, d = clouds.shape
    check_count(h, "h", 1)
    if not d + 1 <= h <= n:
        raise InvalidInput(f"need d+1 <= h <= n, got h={h}, n={n}, d={d}")
    check_count(restarts, "restarts", 1)
    attempts = np.full(u, 10 * restarts)
    needed = np.full(u, restarts)
    best_logdet = np.zeros(u)
    best_mean = np.zeros((u, d))
    best_cov = np.zeros((u, d, d))
    block = max(1, _BLOCK_POINTS // n)
    while np.any((needed > 0) & (attempts > 0)):
        units = np.flatnonzero((needed > 0) & (attempts > 0))
        draws = np.minimum(needed[units], attempts[units])
        attempts[units] -= draws
        owners = np.repeat(units, draws)
        ends = np.cumsum(draws)
        starts = ends - draws
        for lo in range(0, owners.size, block):
            hi = min(lo + block, owners.size)
            # Owners ascend, so a block's clouds are one slice.
            own = owners[lo:hi]
            # One uniform per point and start, from each unit's own stream
            # (a unit split across blocks continues it in the next block);
            # a start is the d + 1 lowest-ranked points of its row, in
            # ascending index order.
            ranks = np.empty((hi - lo, n))
            for j in range(np.searchsorted(ends, lo, side="right"),
                           np.searchsorted(starts, hi)):
                gens[units[j]].random(
                    out=ranks[max(starts[j], lo) - lo:min(ends[j], hi) - lo])
            subsets = np.sort(np.argpartition(ranks, d, axis=1)[:, :d + 1],
                              axis=1)
            means, covs, _, history, steps, failed = _c_step_paths(
                clouds[own[0]:own[-1] + 1], own - own[0], h,
                *_ml_fit(clouds[own[:, None], subsets]))
            ok = np.flatnonzero(~failed)
            unit, logdet = own[ok], history[ok, steps[ok] - 1]
            # Each unit's first path in (unit, log-determinant, restart)
            # order is its smallest, the earliest of equals; it takes the
            # slot if the unit has none or it is strictly smaller.
            order = np.lexsort((ok, logdet, unit))
            first = order[np.diff(unit[order], prepend=-1) != 0]
            i, p, logdet = unit[first], ok[first], logdet[first]
            take = (needed[i] == restarts) | (logdet < best_logdet[i])
            i, p = i[take], p[take]
            best_logdet[i], best_mean[i], best_cov[i] = (
                logdet[take], means[p], covs[p])
            needed -= np.bincount(unit, minlength=u)
    if np.any(needed > 0):
        raise SingularSubset(f"no nonsingular fit in {10 * restarts} attempts")
    return best_mean, 0.5 * (best_cov + np.swapaxes(best_cov, 1, 2))


def estimate_mcd(points: np.ndarray, h: int, restarts: int,
                 gen: np.random.Generator) -> LocScatter:
    """Minimum-covariance-determinant style location and scatter estimate.

    ``restarts`` random (d+1)-point subsets seed concentration paths; the
    final fit with the smallest determinant wins (ties keep the earliest
    restart).  The ``m`` starts of a round come from an ``(m, n)`` array of
    ``gen.random`` uniforms, one call per block of about 10,000 points,
    each row's d + 1 lowest-ranked points being a start, and only singular
    starts are redrawn, in later rounds, giving up after 10 * restarts
    attempts.  The paths are drawn and step in the same blocks.
    No consistency correction is applied: the raw h-subset
    maximum-likelihood covariance is returned.
    """
    means, covs = _mcd_fits(_points(points)[None], h, restarts,
                            [_generator(gen)])
    return LocScatter(means[0], certify_spd(covs[0]))


@dataclass(frozen=True)
class HospitalConfig:
    """Settings for the contaminated multi-unit estimation study; the clean
    law ``inlier``, also the target, and the ``outlier`` law are fixed."""

    inlier: ClassVar[LocScatter] = LocScatter(np.zeros(2),
                                              certify_spd(np.eye(2)))
    outlier: ClassVar[LocScatter] = LocScatter(np.array([4.0, 4.0]),
                                               certify_spd(np.eye(2)))
    k: int = 100
    n: int = 100
    contamination_beta: tuple[float, float] = (4.0, 36.0)
    mcd_fraction: float = 0.8
    alpha_trim: float = 0.2
    seed: int = 0
    mcd_restarts: int = 5
    trim_restarts: int = 10

    def __post_init__(self):
        for name in ("k", "n", "mcd_restarts", "trim_restarts"):
            check_count(getattr(self, name), name, 1)
        beta = self.contamination_beta
        if not (isinstance(beta, (tuple, list)) and len(beta) == 2):
            raise InvalidInput("contamination_beta must be two parameters "
                               f"(a, b), got {beta!r}")
        check_positive(beta[0], "Beta parameter a")
        check_positive(beta[1], "Beta parameter b")
        if not (is_real(self.mcd_fraction) and 0.0 < self.mcd_fraction <= 1.0):
            raise InvalidInput("mcd_fraction must be a number in (0, 1], "
                               f"got {self.mcd_fraction!r}")
        # The MCD subset needs d + 1 points; it has at most n.
        h, least = round(self.mcd_fraction * self.n), self.inlier.dim + 1
        if h < least:
            raise InvalidInput(
                f"round(mcd_fraction * n) must lie in [{least}, n], got {h} "
                f"for mcd_fraction = {self.mcd_fraction!r} and n = {self.n!r}")
        check_alpha(self.alpha_trim, "alpha_trim")
        RngState(self.seed)  # rejects a seed that is not an integer


@dataclass(frozen=True, eq=False)
class HospitalReport:
    """Distances of three aggregates to the clean target, plus diagnostics."""

    w2_sq_barycenter: float
    w2_sq_trimmed: float
    w2_sq_linear: float
    unit_outlier_counts: tuple[int, ...]
    units_over_20pct: int
    barycenter: LocScatter
    trimmed: TrimmedResult
    linear: LocScatter
    config: HospitalConfig


def _gamma_term(a: float, y: float) -> float:
    """``y^a e^-y / Gamma(a+1)``, the step ``P(a, y) - P(a+1, y)`` of the
    regularized lower incomplete gamma function."""
    return math.exp(a * math.log(y) - y - math.lgamma(a + 1.0))


def _gamma_series(a: float, y: float) -> float:
    """``P(a+1, y) / (y^a e^-y / Gamma(a+1))``, the positive series
    ``sum_{k>=1} y^k / ((a+1)...(a+k))``."""
    total, term, k = 0.0, 1.0, 0
    while total + term != total:
        k += 1
        term *= y / (a + k)
        total += term
    return total


def _chi2_cdf(x: float, dof: int) -> float:
    """Chi-square CDF for integer ``dof``: ``P(dof/2, x/2)``, stepped up
    from ``P(1, y) = 1 - e^-y`` (even) or ``P(1/2, y) = erf(sqrt y)`` (odd)."""
    y = 0.5 * x
    a, p = (0.5, math.erf(math.sqrt(y))) if dof % 2 else (1.0, -math.expm1(-y))
    while a < 0.5 * dof:
        p -= _gamma_term(a, y)
        a += 1.0
    return p


def mcd_consistency_factor(coverage: float, dim: int) -> float:
    """Expected shrinkage of the covariance of the central ``coverage``
    fraction of a Gaussian sample; dividing a raw h-subset covariance by
    this factor makes the estimate consistent on clean data.

    The factor is ``F_{d+2}(q) / c`` with ``q`` the ``c``-quantile of the
    chi-square law with ``d`` degrees of freedom (Croux & Haesbroeck 1999).
    ``q`` is found by bisection and ``F_{d+2}(q) = c - t`` with ``t =
    (q/2)^{d/2} e^{-q/2} / Gamma(d/2 + 1)``; where ``t`` exceeds ``c/2`` that
    difference would cancel, and ``F_{d+2}(q)`` is summed as a positive
    series instead.  Full coverage gives exactly 1.
    """
    if not 0.0 < coverage <= 1.0:
        raise InvalidInput(f"coverage must lie in (0, 1], got {coverage!r}")
    check_count(dim, "dim", 1)
    if coverage == 1.0:
        return 1.0
    lo, hi = 0.0, float(dim)
    while _chi2_cdf(hi, dim) < coverage:
        lo, hi = hi, 2.0 * hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (mid, hi) if _chi2_cdf(mid, dim) < coverage else (lo, mid)
        mid = 0.5 * (lo + hi)
    # lo stays 0 only for coverages below the CDF at the smallest float.
    a, y = 0.5 * dim, 0.5 * (lo or hi)
    drop = _gamma_term(a, y) / coverage
    # 1 - drop cancels when the factor is small; the series does not.
    return 1.0 - drop if drop <= 0.5 else drop * _gamma_series(a, y)


def _hospital_units(cfg: HospitalConfig):
    """Per-unit rescaled MCD estimates and outlier counts of a study.

    Unit ``i`` draws its contamination level, mixture cloud and MCD start
    subsets from split stream ``i``; the concentration paths of all units
    step in blocks of about 10,000 points (:func:`_mcd_fits`).
    """
    inlier, outlier = cfg.inlier, cfg.outlier
    inlier_root, outlier_root = inlier.cov.sqrt(), outlier.cov.sqrt()
    shape = (cfg.n, inlier.dim)
    root = RngState(cfg.seed)
    gens, clouds, counts = [], [], []
    for i in range(cfg.k):
        gen = root.split(i).generator()
        p = gen.beta(*cfg.contamination_beta)
        mask = gen.random(cfg.n) < p
        clean = inlier.mean + gen.standard_normal(shape) @ inlier_root
        bad = outlier.mean + gen.standard_normal(shape) @ outlier_root
        clouds.append(np.where(mask[:, None], bad, clean))
        gens.append(gen)
        counts.append(int(mask.sum()))
    h = round(cfg.mcd_fraction * cfg.n)
    means, covs = _mcd_fits(np.stack(clouds), h, cfg.mcd_restarts, gens)
    scale = 1.0 / mcd_consistency_factor(cfg.mcd_fraction, inlier.dim)
    estimates = tuple(LocScatter(m, certify_spd(scale * c))
                      for m, c in zip(means, covs))
    return estimates, tuple(counts)


def hospital_experiment(cfg: HospitalConfig) -> HospitalReport:
    """Run the full study for one seed.

    Every unit draws its contamination level from the Beta law, samples a
    mixture cloud, and reports a robust location-scatter estimate whose
    covariance is rescaled by the clean-data consistency factor for the
    configured coverage (the raw h-subset covariance systematically
    underestimates scale).  The per-unit estimates are aggregated by plain
    barycenter, trimmed barycenter and linear averaging; each aggregate is
    scored by squared distance to the clean target.
    """
    estimates, counts = _hospital_units(cfg)
    ens = WeightedEnsemble.equal_weights(estimates)
    plain = fixed_point_barycenter(ens).bary
    trim_seed = RngState(cfg.seed).split(_AGGREGATE_TAG).seed
    trimmed = trimmed_barycenter(ens, TrimConfig(
        alpha=cfg.alpha_trim, restarts=cfg.trim_restarts, seed=trim_seed))
    linear = linear_mean(ens)
    target = cfg.inlier
    return HospitalReport(
        w2_sq_barycenter=w2_distance_sq(plain, target),
        w2_sq_trimmed=w2_distance_sq(trimmed.bary, target),
        w2_sq_linear=w2_distance_sq(linear, target),
        unit_outlier_counts=counts,
        units_over_20pct=sum(1 for c in counts if c > 0.2 * cfg.n),
        barycenter=plain, trimmed=trimmed, linear=linear, config=cfg)


def gaussian_parameter_law(dim: int = 2, mean_scale: float = 0.3,
                           condition_cap: float = 4.0):
    """Law of a random member: Gaussian mean, bounded-condition scatter;
    the arguments are checked once, here."""
    half = _half_log_cap(dim, condition_cap)
    if not (is_real(mean_scale) and math.isfinite(mean_scale)):
        raise InvalidInput(
            f"mean_scale must be a finite real, got {mean_scale!r}")

    def draw(gen: np.random.Generator) -> LocScatter:
        mean = mean_scale * gen.standard_normal(dim)
        return LocScatter(mean, _spd_draw(dim, half, gen))

    return draw


@dataclass(frozen=True, eq=False)
class ConsistencyRow:
    n: int
    median_w2_sq_to_reference: float
    median_trimmed_variance: float
    variance_gap: float


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    rows: tuple[ConsistencyRow, ...]
    reference: TrimmedResult
    alpha: float
    reps: int
    seed: int


def consistency_harness(law, n_values, alpha: float, reps: int,
                        seed: int, restarts: int = 3) -> ConsistencyReport:
    """Concentration of the trimmed barycenter as ensembles grow.

    For each ensemble size the median squared distance to a reference
    solution (computed from a dedicated draw at the largest size) and the
    median trimmed variance are reported; the variance gap column is the
    absolute difference to the reference variance.
    """
    n_values = list(n_values)
    for n in n_values:
        check_count(n, "ensemble size", 1)
    n_values = [int(n) for n in n_values]
    if not n_values:
        raise InvalidInput("at least one ensemble size is needed")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise InvalidInput("ensemble sizes must be strictly ascending")
    check_count(reps, "reps", 1)
    base = RngState(seed)

    def solve(state: RngState, count: int) -> TrimmedResult:
        gen = state.generator()
        members = tuple(law(gen) for _ in range(count))
        ens = WeightedEnsemble.equal_weights(members)
        cfg = TrimConfig(alpha=alpha, restarts=restarts,
                         seed=state.split(_AGGREGATE_TAG).seed)
        return trimmed_barycenter(ens, cfg)

    results = [solve(base.split(t), n_values[t // reps])
               for t in range(len(n_values) * reps)]
    reference = solve(base.split(len(n_values) * reps), max(n_values))
    rows = []
    for i, n in enumerate(n_values):
        batch = results[i * reps:(i + 1) * reps]
        dists = [w2_distance_sq(r.bary, reference.bary) for r in batch]
        variances = [r.trimmed_variance for r in batch]
        rows.append(ConsistencyRow(
            n=n,
            median_w2_sq_to_reference=float(np.median(dists)),
            median_trimmed_variance=float(np.median(variances)),
            variance_gap=float(abs(np.median(variances)
                                   - reference.trimmed_variance))))
    return ConsistencyReport(rows=tuple(rows), reference=reference,
                             alpha=alpha, reps=reps, seed=seed)


def ellipse_points(p: LocScatter, count: int) -> np.ndarray:
    """Points of the one-standard-deviation ellipse of a planar member."""
    if p.dim != 2:
        raise InvalidInput("ellipse tracing requires dimension 2")
    check_count(count, "count", 1)
    theta = 2.0 * np.pi * np.arange(count) / count
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    return p.mean + circle @ p.cov.sqrt()


def ellipse_toy_ensemble():
    """The six-member planar toy ensemble shipped with the package.

    Four overlapping near-horizontal ellipses around the origin plus two
    well-separated outliers at indices 4 and 5; trimming one sixth removes
    the far outlier (index 4), one third removes both.  Returns the
    ensemble and the member labels.
    """
    import importlib.resources

    from .ensemble_io import parse_ensemble_text
    ref = importlib.resources.files("wcons").joinpath("data/ellipse_toy.json")
    return parse_ensemble_text(ref.read_text(encoding="utf-8"))
