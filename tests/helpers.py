"""Shared constructors and the acceptance-line registry for the test suite."""

import numpy as np
from hypothesis import settings

from wcons import LocScatter, WeightedEnsemble, certify_spd, random_spd

# Settings of the numerical envelope tests: a fixed example sequence, so a
# failure reproduces, and no example database written to disk.
ENVELOPE = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)

# Lines collected by the acceptance tests and echoed in the terminal
# summary by conftest.py.
ACCEPTANCE_LINES = []


def record_criterion(number, ok, detail):
    """Log one acceptance criterion outcome; returns ``ok`` for asserting."""
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def gauss(mean, cov):
    """Family member from plain lists or arrays."""
    return LocScatter(np.asarray(mean, dtype=float),
                      certify_spd(np.asarray(cov, dtype=float)))


def gauss_1d(mean, sigma):
    return gauss([mean], [[sigma * sigma]])


def sigma_trio():
    """Equal-weight 1D ensemble with sigma 0.2, 1, 2 and zero means."""
    return WeightedEnsemble.equal_weights(
        tuple(gauss_1d(0.0, s) for s in (0.2, 1.0, 2.0)))


def far_outlier_trio():
    """Two nearby unit Gaussians plus one far outlier, equal weights."""
    return WeightedEnsemble.equal_weights(
        (gauss_1d(0.0, 1.0), gauss_1d(0.1, 1.0), gauss_1d(10.0, 1.0)))


def random_orthogonal(gen, dim):
    q, r = np.linalg.qr(gen.standard_normal((dim, dim)))
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def random_member(gen, dim, mean_scale=1.0, condition_cap=100.0):
    mean = mean_scale * gen.standard_normal(dim)
    return LocScatter(mean, random_spd(dim, condition_cap, gen))


def random_ensemble(gen, k, dim, mean_scale=1.0, condition_cap=100.0,
                    equal=False):
    members = tuple(random_member(gen, dim, mean_scale, condition_cap)
                    for _ in range(k))
    if equal:
        return WeightedEnsemble.equal_weights(members)
    w = gen.uniform(0.5, 1.5, size=k)
    return WeightedEnsemble(w / w.sum(), members)


def commuting_ensemble(gen, k, dim, mean_scale=1.0, sigma_low=0.3,
                       sigma_high=3.0, equal=False):
    """Ensemble whose scatters share one eigenbasis.

    Returns ``(ensemble, q, sigmas)`` where the columns of ``q`` are the
    common eigenvectors and ``sigmas[j]`` holds member j's standard
    deviations along them.
    """
    q = random_orthogonal(gen, dim)
    sigmas = gen.uniform(sigma_low, sigma_high, size=(k, dim))
    members = tuple(
        LocScatter(mean_scale * gen.standard_normal(dim),
                   certify_spd((q * (s * s)) @ q.T))
        for s in sigmas)
    if equal:
        ens = WeightedEnsemble.equal_weights(members)
    else:
        w = gen.uniform(0.5, 1.5, size=k)
        ens = WeightedEnsemble(w / w.sum(), members)
    return ens, q, sigmas


def planar_psd(scale, condition, angle, low=None):
    """2 x 2 symmetric matrix with eigenvalues ``scale`` and ``low``
    (default ``scale / condition``), its top eigenvector at ``angle``."""
    q = np.array([[np.cos(angle), -np.sin(angle)],
                  [np.sin(angle), np.cos(angle)]])
    m = (q * [scale, scale / condition if low is None else low]) @ q.T
    return 0.5 * (m + m.T)


def directional_sigmas(cov_entries, q):
    """Standard deviations of a scatter along the columns of ``q``."""
    return np.sqrt(np.diag(q.T @ cov_entries @ q))


def far_outlier_ensemble(seed, k, dim, condition_cap=100.0, every=5):
    """Random ensemble whose every ``every``-th member is moved 50 units
    away along each axis."""
    ens = random_ensemble(np.random.default_rng(seed), k, dim,
                          condition_cap=condition_cap)
    members = tuple(
        LocScatter(m.mean + (50.0 if i % every == 0 else 0.0), m.cov)
        for i, m in enumerate(ens.members))
    return WeightedEnsemble(ens.weights, members)


def wide_grid():
    """Twelve seeded ensembles of the wide-consensus shape: d 8/16, k 20/60,
    condition numbers up to 1e2/1e4/1e6, every eighth member far away."""
    for dim in (8, 16):
        for k in (20, 60):
            for exponent in (2, 4, 6):
                yield far_outlier_ensemble([dim, k, exponent], k, dim,
                                           10.0 ** exponent, every=8)
