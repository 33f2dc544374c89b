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

which is how planar distances are computed; other dimensions take the
eigenvalues of S_P^{1/2} S_Q S_P^{1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput
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
        m = np.asarray(self.mean, dtype=float)
        if m.ndim != 1:
            raise InvalidInput(f"mean must be a vector, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidInput("mean has non-finite entries")
        if m.shape[0] != self.cov.dim:
            raise DimensionMismatch(
                f"mean has dimension {m.shape[0]}, scatter {self.cov.dim}")
        m = m.copy()
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
        return self.target_mean + (x - self.source_mean) @ self.matrix.entries

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


def _bures_sq(center: LocScatter, means: np.ndarray,
              covs: np.ndarray) -> np.ndarray:
    """Squared distances from ``center`` to the stacked members
    ``means (k, d)``, ``covs (k, d, d)``, with round-off clamped as in
    :func:`w2_distance_sq`."""
    check_same_dim(center.dim, means.shape[1], covs.shape[2])
    if center.dim == 2:
        s = center.cov.entries
        a, b, c = covs[:, 0, 0], covs[:, 1, 0], covs[:, 1, 1]
        dets = (s[0, 0] * s[1, 1] - s[1, 0] * s[1, 0]) * (a * c - b * b)
        cross = 2.0 * np.sqrt(s[0, 0] * a + 2.0 * s[1, 0] * b + s[1, 1] * c
                              + 2.0 * np.sqrt(np.maximum(dets, 0.0)))
    else:
        root = center.cov.sqrt()
        inner = root @ covs @ root
        inner = 0.5 * (inner + np.swapaxes(inner, -1, -2))
        w = np.linalg.eigvalsh(inner)
        cross = 2.0 * np.sqrt(np.maximum(w, 0.0)).sum(axis=1)
    gaps = ((means - center.mean) ** 2).sum(axis=1)
    traces = np.trace(covs, axis1=1, axis2=2) + center.cov.trace()
    out = gaps + traces - cross
    scale = np.maximum(traces + gaps, 1e-300)
    bad = out < -1e-10 * scale
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

    ``rotation`` must be orthogonal; the scatter becomes
    scale^2 * R S R^T and the mean scale * R m + shift.
    """
    if scale <= 0.0:
        raise InvalidInput("similarity scale must be positive")
    r = np.asarray(rotation, dtype=float)
    mean = scale * (r @ p.mean) + np.asarray(shift, dtype=float)
    cov = (scale * scale) * (r @ p.cov.entries @ r.T)
    return LocScatter(mean, certify_spd(cov))
