"""Location-scatter family members and their 2-Wasserstein geometry.

A member is a mean vector plus a certified covariance.  Between two members
of a common family the squared 2-Wasserstein distance has the closed form

    W2^2(P, Q) = |m_P - m_Q|^2
                 + tr(S_P) + tr(S_Q) - 2 tr((S_P^{1/2} S_Q S_P^{1/2})^{1/2})

and the optimal transport map is affine with a positive definite linear
part.  For 2 x 2 scatters the cross term needs no matrix root (Bhatia,
Jain & Lim, arXiv:1712.01504):

    tr((S_P^{1/2} S_Q S_P^{1/2})^{1/2})
        = sqrt(tr(S_P S_Q) + 2 sqrt(det S_P det S_Q)),

which is how planar distances are computed.  Where det S_P det S_Q
overflows (past a scale of about 1e77) it is taken as the product of the
roots, pair by pair, so a distance row never depends on the other members
of the call.  The planar edge is then about 1e154, where tr(S_P S_Q)
overflows: past it the closed forms raise ``ArithmeticError`` (a solver
failure, CLI exit 2).  Other dimensions take the eigenvalues of S_P^{1/2} S_Q
S_P^{1/2}, and recompute the cross term as the nuclear norm of L_P^T L_Q
(Cholesky factors) for pairs whose distance comes out near zero or below
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, check_positive
from .spd import SpdMatrix, certify_spd, check_same_dim

__all__ = [
    "LocScatter",
    "AffineMap",
    "w2_distance_sq",
    "w2_distances_sq",
    "optimal_map",
    "center_split",
    "similarity_pushforward",
]


@dataclass(frozen=True, eq=False)
class LocScatter:
    """One member of a location-scatter family: mean and certified scatter."""

    mean: np.ndarray
    cov: SpdMatrix

    def __post_init__(self):
        try:
            m = np.array(self.mean, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise InvalidInput("mean must be a numeric vector") from None
        if m.ndim != 1:
            raise InvalidInput(f"mean must be a vector, got shape {m.shape}")
        if not all(map(math.isfinite, m.tolist())):
            raise InvalidInput("mean has non-finite entries")
        if m.shape[0] != self.cov.dim:
            raise DimensionMismatch(
                f"mean has dimension {m.shape[0]}, scatter {self.cov.dim}")
        m.setflags(write=False)
        object.__setattr__(self, "mean", m)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True, eq=False)
class AffineMap:
    """Optimal map between family members: x -> target + A (x - source).

    ``matrix`` is symmetric positive definite, so the map is the gradient of
    a convex function and therefore an optimal transport plan.
    """

    matrix: SpdMatrix
    source_mean: np.ndarray
    target_mean: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the map to a point ``(d,)`` or a batch of points ``(n, d)``."""
        x = np.asarray(x, dtype=float)
        d = self.matrix.dim
        if x.ndim not in (1, 2) or x.shape[-1] != d:
            raise DimensionMismatch(
                f"the map acts on points of dimension {d}, got shape {x.shape}")
        return self.target_mean + (x - self.source_mean) @ self.matrix.entries


def _planar_stack(covs: np.ndarray):
    """Rows ``(a, b, b, c)``, determinants, traces and the largest
    determinant of 2 x 2 scatters; None off d = 2.  Entries that overflow
    are left inf or nan, without a warning.  The largest determinant (a
    float) only screens for overflow, so a subset of the rows may keep it."""
    if covs.shape[-1] != 2:
        return None
    flat = covs.reshape(-1, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        dets = flat[:, 0] * flat[:, 3] - flat[:, 2] * flat[:, 2]
        traces = flat[:, 0] + flat[:, 3]
    return flat, dets, traces, float(dets.max())


def _planar_cross(s, det: float, planar) -> tuple[np.ndarray, np.ndarray]:
    """``s_j = sqrt(det S det S_j)`` and ``t_j = sqrt(tr(S S_j) + 2 s_j)`` =
    ``tr((S^{1/2} S_j S^{1/2})^{1/2})`` for ``S = [[a, b], [b, c]]`` given
    as ``s = (a, b, c)``, ``det = det S`` and ``planar``, rows of
    :func:`_planar_stack` with a bound ``top`` on their determinants.  A
    row whose own product overflows takes ``sqrt(det S) sqrt(det S_j)``;
    the other rows do not depend on it.  Raises ``ArithmeticError`` when a
    ``t_j`` is not finite (it overflowed)."""
    flat, dets, _, top = planar
    a, b, c = s
    if math.isfinite(det * top):
        # Certified scatters have det >= 1e-10 tr^2 / 4 (spd.pd_floor), so
        # here tr S tr S_j < 1e165, and t_j^2 <= 1.5 tr S tr S_j is finite.
        root_det = np.sqrt(np.maximum(det * dets, 0.0))
        return root_det, np.sqrt(flat @ (a, b, b, c) + 2.0 * root_det)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = det * dets
        root_det = np.where(np.isfinite(prod), np.sqrt(np.maximum(prod, 0.0)),
                            math.sqrt(det) * np.sqrt(np.maximum(dets, 0.0)))
        t = np.sqrt(flat @ (a, b, b, c) + 2.0 * root_det)
    if not np.isfinite(t).all():
        raise ArithmeticError("planar cross term is not finite")
    return root_det, t


def _bures_sq(center: LocScatter, means: np.ndarray, covs: np.ndarray,
              planar=None) -> np.ndarray:
    """Squared distances from ``center`` to the stacked members
    ``means (k, d)``, ``covs (k, d, d)``, clamped as in :func:`w2_distance_sq`.
    At d = 2, ``planar`` is ``_planar_stack(covs)`` when the caller holds
    it (formed here otherwise).  Raises ``ArithmeticError`` when a distance
    is not finite (it overflowed)."""
    check_same_dim(center.dim, means.shape[1], covs.shape[2])
    with np.errstate(over="ignore", invalid="ignore"):
        if center.dim == 2:
            if planar is None:
                planar = _planar_stack(covs)
            a, b, _, c = center.cov.entries.ravel().tolist()
            l1, l2 = center.cov.eigenvalues.tolist()
            cross = 2.0 * _planar_cross((a, b, c), l1 * l2, planar)[1]
            traces = planar[2] + (a + c)
        else:
            root = center.cov.sqrt()
            inner = root @ covs @ root
            inner = 0.5 * (inner + np.swapaxes(inner, -1, -2))
            w = np.linalg.eigvalsh(inner)
            cross = 2.0 * np.sqrt(np.maximum(w, 0.0)).sum(axis=1)
            traces = np.trace(covs, axis1=1, axis2=2) + center.cov.trace()
        gaps = ((means - center.mean) ** 2).sum(axis=1)
        out = gaps + traces - cross
    if not np.isfinite(out).all():
        raise ArithmeticError("squared distance is not finite")
    scale = np.maximum(traces + gaps, 1e-300)
    bad = out < -1e-10 * scale
    if center.dim != 2:
        # Off the closed form, rows near zero are flagged too: there the
        # eigenvalue pass errs by up to about 1e-9 of scale either way.
        bad |= out <= 1e-8 * scale
    if np.any(bad):
        # Square roots of the tiny eigenvalues of S^{1/2} S_j S^{1/2}
        # amplify its round-off.  The flagged rows take the cross term
        # again as the nuclear norm of L^T L_j, the Cholesky factors of S
        # and S_j: its singular values need no square root.
        factor_t = np.linalg.cholesky(center.cov.entries).T
        sv = np.linalg.svd(factor_t @ np.linalg.cholesky(covs[bad]),
                           compute_uv=False)
        out[bad] = gaps[bad] + traces[bad] - 2.0 * sv.sum(axis=1)
        bad = out < -1e-10 * scale
        if np.any(bad):
            raise ArithmeticError(
                f"distance computation lost positivity: {out[bad].min():.3e}")
    return np.maximum(out, 0.0)


def w2_distance_sq(p: LocScatter, q: LocScatter) -> float:
    """Squared 2-Wasserstein distance between two family members.

    Tiny negative round-off (within 1e-10 of the problem scale) is clamped
    to zero so the result is a valid squared distance.
    """
    return float(_bures_sq(p, q.mean[None], q.cov.entries[None])[0])


def w2_distances_sq(center: LocScatter, members) -> np.ndarray:
    """Squared distances from ``center`` to each member, in one batched pass."""
    members = list(members)
    if not members:
        return np.zeros(0)
    check_same_dim(center.dim, *(m.dim for m in members))
    return _bures_sq(center, np.stack([m.mean for m in members]),
                     np.stack([m.cov.entries for m in members]))


def optimal_map(p: LocScatter, q: LocScatter) -> AffineMap:
    """Optimal transport map from ``p`` to ``q`` within the family.

    The linear part is A = S_P^{-1/2} (S_P^{1/2} S_Q S_P^{1/2})^{1/2} S_P^{-1/2}
    and the map is applied in centered form, T(x) = m_Q + A (x - m_P), which
    pushes P forward to Q exactly.
    """
    check_same_dim(p.dim, q.dim)
    root = p.cov.sqrt()
    inv_root = p.cov.inv_sqrt()
    mid = certify_spd(root @ q.cov.entries @ root)
    a = inv_root @ mid.sqrt() @ inv_root
    return AffineMap(matrix=certify_spd(a),
                     source_mean=p.mean.copy(),
                     target_mean=q.mean.copy())


def center_split(p: LocScatter) -> tuple[np.ndarray, LocScatter]:
    """Split a member into its mean and its centered version."""
    return p.mean.copy(), LocScatter(np.zeros(p.dim), p.cov)


def similarity_pushforward(p: LocScatter, scale: float,
                           rotation: np.ndarray, shift: np.ndarray) -> LocScatter:
    """Pushforward of a member under x -> scale * R x + shift.

    ``rotation`` must be a ``(d, d)`` orthogonal matrix (a reflection
    too), with ``R R^T`` within 1e-10 of the identity entrywise, and
    ``shift`` a finite ``(d,)`` vector; the scatter becomes
    scale^2 * R S R^T and the mean scale * R m + shift.  A scale at which
    either overflows raises :class:`InvalidInput`.
    """
    check_positive(scale, "similarity scale")
    r = np.asarray(rotation, dtype=float)
    b, d = np.asarray(shift, dtype=float), p.dim
    if r.shape != (d, d) or b.shape != (d,):
        raise DimensionMismatch(
            f"a member of dimension {d} needs a ({d}, {d}) rotation and a "
            f"({d},) shift, got {r.shape} and {b.shape}")
    if not np.isfinite(b).all():
        raise InvalidInput("shift has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.abs(r @ r.T - np.eye(d)).max() <= 1e-10:  # NaN fails too
            raise InvalidInput("rotation must be orthogonal")
        mean = scale * (r @ p.mean) + b
        cov = (scale * scale) * (r @ p.cov.entries @ r.T)
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise InvalidInput(
            f"similarity scale {scale!r} overflows the pushforward")
    return LocScatter(mean, certify_spd(cov))
