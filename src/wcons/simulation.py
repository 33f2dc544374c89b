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

import importlib.resources
import math
from dataclasses import dataclass, field

import numpy as np

from .barycenter import (WeightedEnsemble, fixed_point_barycenter,
                         linear_mean)
from .errors import InvalidInput, SingularSubset, check_count
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


def _generator(rng) -> np.random.Generator:
    if isinstance(rng, RngState):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise InvalidInput(f"expected RngState or numpy Generator, got {type(rng)}")


def random_spd(dim: int, condition_cap: float, rng) -> SpdMatrix:
    """Random positive definite matrix with condition number <= cap.

    Eigenvalues are log-uniform on [cap^-1/2, cap^1/2] and the eigenbasis
    is Haar-distributed orthogonal, so the spectrum is bounded by
    construction.
    """
    check_count(dim, "dim", 1)
    if not (math.isfinite(condition_cap) and condition_cap >= 1.0):
        raise InvalidInput("condition cap must be finite and at least 1, "
                           f"got {condition_cap!r}")
    gen = _generator(rng)
    half = 0.5 * np.log(condition_cap)
    eigs = np.exp(gen.uniform(-half, half, size=dim))
    q, r = np.linalg.qr(gen.standard_normal((dim, dim)))
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    m = (q * eigs) @ q.T
    return certify_spd(0.5 * (m + m.T))


def _ml_fit(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and maximum-likelihood covariance of each ``(..., m, d)`` cloud."""
    mean = points.mean(axis=-2)
    centered = points - mean[..., None, :]
    return mean, np.swapaxes(centered, -1, -2) @ centered / points.shape[-2]


def _c_step_paths(clouds: np.ndarray, owner: np.ndarray, h: int,
                  means: np.ndarray, covs: np.ndarray, max_steps: int = 100):
    """Concentration steps for a stack of paths until each support repeats.

    Path ``i`` starts from ``means[i]``, ``covs[i]`` on the cloud
    ``clouds[owner[i]]`` (shapes ``(b, d)``, ``(b, d, d)``, ``(u, n, d)``).
    All live paths take each step together; a path leaves the live set when
    its support repeats, when it fails, or after ``max_steps`` refits.  A
    path fails when its start covariance is exactly singular (an LU zero
    pivot, on which a solve would raise) or when a refit has determinant
    sign <= 0.  At d = 2 a path whose covariance ``[[a, p], [q, c]]`` has
    condition number below about 1e6 takes its Mahalanobis distances from
    the inverse in closed form, ``(c x^2 - (p + q) x y + a y^2) / (a c -
    p q)``; the other paths, and every path in other dimensions, solve.
    The two routes differ by a few ulps times that condition number, so a
    step whose h-th and (h+1)-th closed-form distances lie within 1e-8 of
    each other is ranked by the solve: the supports are the solve's.
    Returns ``(means, covs, supports, history, steps, failed)``;
    row ``i`` of ``history`` holds the log-determinants of the first
    ``steps[i]`` refits of path ``i``.
    """
    b = owner.shape[0]
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
        delta = clouds[own]
        delta -= mean[:, None, :]
        if cov.shape[-1] == 2:
            a, p = cov[:, 0, 0], cov[:, 0, 1]
            q, c = cov[:, 1, 0], cov[:, 1, 1]
            det = a * c - p * q
            use_solve = det <= 1e-6 * (a + c) ** 2
            x, y = delta[..., 0], delta[..., 1]
            md = (c[:, None] * x * x - (p + q)[:, None] * x * y
                  + a[:, None] * y * y)
            md /= np.where(use_solve, 1.0, det)[:, None]
            order = np.argsort(md, axis=1, kind="stable")
            if h < md.shape[1]:
                # The routes may order distances within 1e-8 of each other
                # apart, so the solve decides a near tie at the support's
                # edge (the d + 1 points of a start subset all lie at
                # distance d exactly).
                edge = np.take_along_axis(md, order[:, h - 1:h + 1], axis=1)
                use_solve |= edge[:, 1] - edge[:, 0] <= 1e-8 * edge[:, 1]
            rows = np.flatnonzero(use_solve)
            if rows.size:
                solved = np.linalg.solve(cov[rows],
                                         np.swapaxes(delta[rows], 1, 2))
                order[rows] = np.argsort(
                    np.einsum("bij,bji->bi", delta[rows], solved),
                    axis=1, kind="stable")
        else:
            md = np.einsum("bij,bji->bi", delta,
                           np.linalg.solve(cov, np.swapaxes(delta, 1, 2)))
            order = np.argsort(md, axis=1, kind="stable")
        del delta
        support = np.sort(order[:, :h], axis=1)
        mean, cov = _ml_fit(clouds[own[:, None], support])
        sign, logdet = np.linalg.slogdet(cov)
        ok = sign > 0
        failed[live[~ok]] = True
        # A repeated support refits to the fit it already has, whose
        # determinant was positive, so only the paths that moved advance.
        go = ok & np.any(support != supports[live], axis=1) if step else ok
        if not go.all():
            live, mean, cov, support = live[go], mean[go], cov[go], support[go]
            logdet = logdet[go]
        means[live], covs[live], supports[live] = mean, cov, support
        history[live, step] = logdet
        steps[live] = step + 1
    return means, covs, supports, history, steps, failed


def c_step_path(points: np.ndarray, h: int, mean: np.ndarray,
                cov: np.ndarray, max_steps: int = 100):
    """Concentration steps from an initial fit until the support repeats.

    Each step keeps the ``h`` points with smallest Mahalanobis distance
    (ties by original index) and refits mean and maximum-likelihood
    covariance on them; the covariance determinant never increases along
    the path.  Returns ``(mean, cov, support, logdet_history)``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InvalidInput(f"points must be (n, d), got shape {pts.shape}")
    check_count(h, "h", 1)
    if not h <= pts.shape[0]:
        raise InvalidInput(f"need 1 <= h <= n, got h={h}, n={pts.shape[0]}")
    check_count(max_steps, "max_steps", 0)
    means, covs, supports, history, steps, failed = _c_step_paths(
        pts[None], np.zeros(1, dtype=np.intp), h, np.asarray(mean)[None],
        np.asarray(cov)[None], max_steps)
    if failed[0]:
        raise SingularSubset("concentration path hit a singular covariance")
    support = supports[0] if steps[0] else None
    return means[0], covs[0], support, history[0, :steps[0]].tolist()


def _mcd_fits(clouds: np.ndarray, h: int, restarts: int,
              gens: list[np.random.Generator]) -> list[LocScatter]:
    """Raw MCD fits of the clouds ``(u, n, d)``.

    Cloud ``i`` draws ``restarts`` random (d+1)-point start subsets in order
    from ``gens[i]``, and the paths of all clouds step together.  Only
    failed paths are redrawn, so every generator makes exactly the draws a
    one-subset-at-a-time loop would; a cloud gives up after 10 * restarts
    attempts.  The smallest final log-determinant wins, the earliest
    completed restart winning ties.
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
    while np.any((needed > 0) & (attempts > 0)):
        owners, subsets = [], []
        for i in np.flatnonzero((needed > 0) & (attempts > 0)):
            draws = min(needed[i], attempts[i])
            attempts[i] -= draws
            owners += [i] * draws
            subsets += [gens[i].choice(n, size=d + 1, replace=False)
                        for _ in range(draws)]
        owners = np.array(owners)
        mean0, cov0 = _ml_fit(clouds[owners[:, None], np.array(subsets)])
        means, covs, _, history, steps, failed = _c_step_paths(
            clouds, owners, h, mean0, cov0)
        for p in np.flatnonzero(~failed):
            i = owners[p]
            logdet = history[p, steps[p] - 1]
            if needed[i] == restarts or logdet < best_logdet[i]:
                best_logdet[i], best_mean[i], best_cov[i] = (
                    logdet, means[p], covs[p])
            needed[i] -= 1
    fits = []
    for i in range(u):
        if needed[i] > 0:
            raise SingularSubset(
                f"no nonsingular fit in {10 * restarts} attempts")
        fits.append(LocScatter(best_mean[i], certify_spd(best_cov[i])))
    return fits


def estimate_mcd(points: np.ndarray, h: int, restarts: int, rng) -> LocScatter:
    """Minimum-covariance-determinant style location and scatter estimate.

    ``restarts`` random (d+1)-point subsets seed concentration paths; the
    final fit with the smallest determinant wins (ties keep the earliest
    restart).  Singular subsets are redrawn, giving up after 10 * restarts
    attempts.  No consistency correction is applied: the raw h-subset
    maximum-likelihood covariance is returned.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InvalidInput(f"points must be (n, d), got shape {pts.shape}")
    return _mcd_fits(pts[None], h, restarts, [_generator(rng)])[0]


def _standard_gaussian(dim: int) -> LocScatter:
    return LocScatter(np.zeros(dim), certify_spd(np.eye(dim)))


@dataclass(frozen=True)
class HospitalConfig:
    """Settings for the contaminated multi-unit estimation study."""

    k: int = 100
    n: int = 100
    inlier: LocScatter = field(
        default_factory=lambda: _standard_gaussian(2))
    outlier: LocScatter = field(
        default_factory=lambda: LocScatter(np.array([4.0, 4.0]),
                                           certify_spd(np.eye(2))))
    contamination_beta: tuple[float, float] | None = (4.0, 36.0)
    mcd_fraction: float = 0.8
    alpha_trim: float = 0.2
    seed: int = 0
    mcd_restarts: int = 5
    trim_restarts: int = 10

    def __post_init__(self):
        for name in ("k", "n", "mcd_restarts", "trim_restarts"):
            check_count(getattr(self, name), name, 1)
        if self.inlier.dim != self.outlier.dim:
            raise InvalidInput("inlier and outlier dimensions differ")
        if self.contamination_beta is not None:
            a, b = self.contamination_beta
            if a <= 0.0 or b <= 0.0:
                raise InvalidInput("Beta parameters must be positive")
        if not 0.0 < self.mcd_fraction <= 1.0:
            raise InvalidInput("mcd_fraction must lie in (0, 1]")
        if not 0.0 <= self.alpha_trim < 1.0:
            raise InvalidInput("alpha_trim must lie in [0, 1)")


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


def _sample_member(p: LocScatter, count: int,
                   gen: np.random.Generator) -> np.ndarray:
    z = gen.standard_normal((count, p.dim))
    return p.mean + z @ p.cov.sqrt()


def _hospital_units(cfg: HospitalConfig):
    """Per-unit rescaled MCD estimates and outlier counts of a study.

    Unit ``i`` draws its contamination level, mixture cloud and MCD start
    subsets from split stream ``i``; the concentration paths of all units
    run as one batch.
    """
    gens, clouds, counts = [], [], []
    for i in range(cfg.k):
        gen = RngState(cfg.seed).split(i).generator()
        if cfg.contamination_beta is None:
            p = 0.0
        else:
            p = gen.beta(*cfg.contamination_beta)
        mask = gen.random(cfg.n) < p
        clean = _sample_member(cfg.inlier, cfg.n, gen)
        bad = _sample_member(cfg.outlier, cfg.n, gen)
        clouds.append(np.where(mask[:, None], bad, clean))
        gens.append(gen)
        counts.append(int(mask.sum()))
    h = round(cfg.mcd_fraction * cfg.n)
    fits = _mcd_fits(np.stack(clouds), h, cfg.mcd_restarts, gens)
    scale = 1.0 / mcd_consistency_factor(cfg.mcd_fraction, cfg.inlier.dim)
    estimates = tuple(LocScatter(f.mean, certify_spd(scale * f.cov.entries))
                      for f in fits)
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
    """Law of a random member: Gaussian mean, bounded-condition scatter."""
    check_count(dim, "dim", 1)

    def draw(gen: np.random.Generator) -> LocScatter:
        mean = mean_scale * gen.standard_normal(dim)
        return LocScatter(mean, random_spd(dim, condition_cap, gen))

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
    if not n_values or any(b <= a for a, b in zip(n_values, n_values[1:])):
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
    from .ensemble_io import parse_ensemble_text
    ref = importlib.resources.files("wcons").joinpath("data/ellipse_toy.json")
    return parse_ensemble_text(ref.read_text(encoding="utf-8"))
