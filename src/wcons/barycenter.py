"""Barycenters of weighted location-scatter ensembles.

The barycenter mean is the weighted average of the member means.  The
barycenter scatter is the unique positive definite solution S of

    sum_j lam_j (S^{1/2} S_j S^{1/2})^{1/2} = S

found by the fixed-point iteration

    S <- S^{-1/2} (sum_j lam_j (S^{1/2} S_j S^{1/2})^{1/2})^2 S^{-1/2}

which stays in the positive definite cone and converges from any positive
definite start.  The weighted average of the member S_j is the default
starting point; the trimming search starts each new kept set from the
scatter of the last one it solved.

The iteration converges linearly, so each plain step G(S) proposes a
candidate in its place.  Off d = 2 it is the Newton iterate S + delta,
(I - J) delta = G(S) - S, solved by GMRES (Saad & Schultz 1986) on at most
eight products J E, each made of matmuls in the eigenbases the step's own
``eigh`` computed (Jacobian-free Newton-Krylov; Knoll & Keyes 2004).  From
the first step whose plain relative change does not shrink, and always at
d = 2, it is type-II Anderson mixing (Walker & Ni 2011): G(S) corrected by
the combination of the last ``ANDERSON_DEPTH`` steps (at most d (d + 1) /
2) whose residual differences best cancel G(S) - S, a least-squares fit
solved through its small Gram system, on a history kept from step 0.
Every candidate must be certified positive definite; when it is not, or a
zero denominator or singular system gives none or a non-finite one, the
plain step is taken and the history is cleared.  The one stopping test:
the first equation's relative residual at the certified iterate, its
Riemannian gradient norm (Chewi et al., arXiv:2001.01700), is <= tol.

One loop runs this in every dimension; only the iterate's arithmetic
depends on d, and it is chosen once.  Off d = 2 the iterate is a (d, d)
array.  At d = 2 it is the floats of [[a, b], [b, c]] with certified
eigenpairs, and a step is one weighted sum (Bhatia, Jain & Lim,
arXiv:1712.01504): with R = S^{1/2}, s_j = sqrt(det S det S_j) and t_j =
sqrt(tr(S S_j) + 2 s_j), sum_j lam_j (R S_j R)^{1/2} = R A R + sigma I for
A = sum_j (lam_j / t_j) S_j and sigma = sum_j lam_j s_j / t_j, and the
next iterate is A S A + 2 sigma A + sigma^2 S^{-1}; only these sums over
the members are arrays, on the rows the ensemble forms once for its
distances, read through the kept mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (DimensionMismatch, MaxIterationsExceeded,
                     NotPositiveDefinite, check_count, check_positive,
                     check_weights)
from .locscatter import LocScatter, _bures_sq, _planar_cross, _planar_stack
from .spd import (SpdMatrix, SymMatrix, _certify_planar, _planar_spd,
                  _psd_roots, certify_spd, spd_exp, spd_log)

__all__ = [
    "WeightedEnsemble",
    "BarycenterResult",
    "fixed_point_barycenter",
    "g_map",
    "barycenter_variance",
    "log_euclidean_mean",
    "linear_mean",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1000
# Number of earlier steps the Anderson extrapolation mixes.
ANDERSON_DEPTH = 8


@dataclass(frozen=True, eq=False)
class WeightedEnsemble:
    """Finitely many family members with strictly positive weights.

    Weights must sum to one within 1e-9 and all members must share a
    dimension.  The member means ``(k, d)`` and scatters ``(k, d, d)`` are
    stacked once, read-only, and every solver works on those stacks; the
    d = 2 rows of the closed-form distances are formed once, on first use.
    """

    weights: np.ndarray
    members: tuple[LocScatter, ...]
    _means: np.ndarray = field(init=False, repr=False)
    _covs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        members = tuple(self.members)
        lam = check_weights(self.weights, len(members))
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise DimensionMismatch(f"members span dimensions {sorted(dims)}")
        lam = lam.copy()
        means = np.stack([m.mean for m in members])
        covs = np.stack([m.cov.entries for m in members])
        for a in (lam, means, covs):
            a.setflags(write=False)
        object.__setattr__(self, "weights", lam)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_means", means)
        object.__setattr__(self, "_covs", covs)

    @classmethod
    def equal_weights(cls, members) -> "WeightedEnsemble":
        members = tuple(members)
        # No members reach the weights check, which rejects them.
        return cls(np.full(len(members), 1.0 / max(len(members), 1)), members)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def means(self) -> np.ndarray:
        return self._means

    def covs(self) -> np.ndarray:
        return self._covs

    _planar = cached_property(lambda self: _planar_stack(self._covs))

    def _distances_sq(self, center: LocScatter) -> np.ndarray:
        """Squared distances from ``center`` to the members."""
        return _bures_sq(center, self._means, self._covs, self._planar)


@dataclass(frozen=True, eq=False)
class BarycenterResult:
    bary: LocScatter
    iterations: int
    residual: float
    variance: float


def _scatter_step(spd: SpdMatrix, covs: np.ndarray, lam: np.ndarray):
    """One step of the scatter iteration from ``spd`` (d != 2); returns the
    weighted mean of the transported roots, the next iterate and the
    step's linearization, the arguments of :func:`_jacobian`."""
    root = spd.sqrt()
    inv_root = spd.inv_sqrt()
    # root @ covs @ root, keeping its left factor R S_j.
    left = root @ covs
    roots, root_w, vecs = _psd_roots(left @ root)
    mixed = np.einsum("k,kij->ij", lam, roots)
    mixed = 0.5 * (mixed + mixed.T)
    s_next = inv_root @ (mixed @ mixed) @ inv_root
    s_next = 0.5 * (s_next + s_next.T)
    lin = spd, inv_root, left, vecs, root_w, lam, mixed, s_next
    return mixed, s_next, lin


def _jacobian(spd, inv_root, left, vecs, root_w, lam, mixed, s_next):
    """The product E -> J E of the step's Jacobian at ``spd``: dR solves R
    dR + dR R = E in the eigenbasis of S, each (R S_j R)^{1/2} is
    differentiated in its eigenbasis V_j, and J E = Q + Q^T for Q = R^{-1}
    (dM M R^{-1} - dR S').  ``None`` when a member's sqrt(a_i) + sqrt(a_k)
    is zero."""
    den = root_w[:, :, None] + root_w[:, None, :]
    if not den.all():
        return None
    u, vecs_t = spd.eigenvectors, np.swapaxes(vecs, -1, -2)
    root_s = np.sqrt(spd.eigenvalues)
    w = np.swapaxes(left, -1, -2) @ vecs
    scale = lam[:, None, None] / den
    m_inv = mixed @ inv_root

    def product(e):
        dr = u @ ((u.T @ e @ u) / (root_s[:, None] + root_s)) @ u.T
        z = vecs_t @ dr @ w
        dm = (vecs @ ((z + np.swapaxes(z, -1, -2)) * scale) @ vecs_t).sum(0)
        q = inv_root @ (dm @ m_inv - dr @ s_next)
        return q + q.T
    return product


def _gmres(apply, b, rtol: float):
    """GMRES (Saad & Schultz 1986) for ``apply(x) = b`` from x = 0, with at
    most eight calls of ``apply`` and Givens rotations on floats, stopping
    at a residual of ``rtol`` |b|.  ``None`` when ``b`` is zero or a
    rotation meets a zero column."""
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return None
    basis, cols, rots, g = [b / beta], [], [], [beta]
    for j in range(8):
        w, col = apply(basis[j]), []
        for v in basis:
            col.append(float(np.vdot(v, w)))
            w = w - col[-1] * v
        h = float(np.linalg.norm(w))
        for i, (c, sn) in enumerate(rots):
            col[i:i + 2] = (c * col[i] + sn * col[i + 1],
                            c * col[i + 1] - sn * col[i])
        r = math.hypot(col[j], h)
        if r == 0.0:
            return None
        c, sn = col[j] / r, h / r
        rots.append((c, sn))
        cols.append(col[:j] + [r])
        g[j:] = c * g[j], -sn * g[j]
        if abs(g[-1]) <= rtol * beta:
            break
        basis.append(w / h)
    y = []
    for i in reversed(range(len(cols))):
        y.insert(0, (g[i] - sum(cols[k][i] * x
                                for k, x in enumerate(y, i + 1))) / cols[i][i])
    return sum(x * v for x, v in zip(y, basis))


def _newton(f: np.ndarray, lin, change: float) -> np.ndarray | None:
    """Newton candidate S + delta for the step linearized as ``lin``, with
    (I - J) delta = ``f`` = S' - S solved by :func:`_gmres` to the relative
    ``change`` (at most 0.1), which keeps Newton's quadratic convergence
    (Dembo, Eisenstat & Steihaug 1982); ``None`` when no delta or no finite
    one is found."""
    product = _jacobian(*lin)
    delta = None if product is None else _gmres(
        lambda e: e - product(e), f, min(0.1, change))
    if delta is None or not np.isfinite(delta).all():
        return None
    cand = lin[0].entries + delta
    return 0.5 * (cand + cand.T)


def _planar_step(s, eig, lam: np.ndarray, planar):
    """The d = 2 step of the module docstring from ``s = (a, b, c)``
    certified as ``eig = _certify_planar(*s)``, on the members' rows
    ``planar`` (see :func:`_planar_cross`): R A R + sigma I and the next
    iterate, each as ``(a, b, c)``."""
    a, b, c = s
    (l1, l2), (v00, v01, v10, v11) = eig
    root_det, t = _planar_cross(s, l1 * l2, planar)
    w = lam / t
    p, q, _, r = (w @ planar[0]).tolist()
    sigma = float(w @ root_det)
    # R = S^{1/2} = (S + sqrt(det S) I) / (sqrt(l1) + sqrt(l2)), then R A R.
    r1, r2 = math.sqrt(l1), math.sqrt(l2)
    rd, h = r1 * r2, r1 + r2
    x, y, z = (a + rd) / h, b / h, (c + rd) / h
    u00, u01 = x * p + y * q, x * q + y * r
    u10, u11 = y * p + z * q, y * q + z * r
    mixed = (u00 * x + u01 * y + sigma, u00 * y + u01 * z,
             u10 * y + u11 * z + sigma)
    # S^{-1} from the certified eigenpairs, and A S A.
    i1, i2 = 1.0 / l1, 1.0 / l2
    e00, e01 = p * a + q * b, p * b + q * c
    e10, e11 = q * a + r * b, q * b + r * c
    s2, ss = 2.0 * sigma, sigma * sigma
    s_next = (e00 * p + e01 * q + s2 * p
              + ss * (v00 * i1 * v00 + v01 * i2 * v01),
              e00 * q + e01 * r + s2 * q
              + ss * (v00 * i1 * v10 + v01 * i2 * v11),
              e10 * q + e11 * r + s2 * r
              + ss * (v10 * i1 * v10 + v11 * i2 * v11))
    return mixed, s_next


def _extrapolate(g: np.ndarray, f: np.ndarray, history) -> np.ndarray | None:
    """Type-II Anderson candidate: the plain iterate ``g`` minus the
    combination of the stored iterate differences whose residual
    differences best cancel the current residual ``f``; ``history`` holds
    the ``(dg, df)`` pairs as an ``(m, 2, d, d)`` array.  ``None`` when the
    Gram system of the residual differences is singular or its solution is
    not finite."""
    dg, df = history.reshape(len(history), 2, -1).transpose(1, 0, 2)
    try:
        gamma = np.linalg.solve(df @ df.T, df @ f.ravel())
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(gamma).all():
        return None
    cand = g - (gamma @ dg).reshape(g.shape)
    return 0.5 * (cand + cand.T)


def _gram_solve(gram, rhs) -> list | None:
    """Solution of the symmetric system ``gram @ x = rhs`` of size 1 to 3
    by its LDL^T factorization, read from the lower triangle; ``None`` when
    a pivot is exactly zero, as ``np.linalg.solve`` raises on an exactly
    zero LU pivot.  Gram matrices are symmetric positive semidefinite,
    where LDL^T needs no pivoting to be stable."""
    m = len(rhs)
    a = gram[0][0]
    if a == 0.0:
        return None
    if m == 1:
        return [rhs[0] / a]
    b = gram[1][0]
    l21 = b / a
    d2 = gram[1][1] - l21 * b
    if d2 == 0.0:
        return None
    y2 = rhs[1] - l21 * rhs[0]
    if m == 2:
        x2 = y2 / d2
        return [rhs[0] / a - l21 * x2, x2]
    c = gram[2][0]
    l31 = c / a
    e = gram[2][1] - l31 * b
    l32 = e / d2
    d3 = gram[2][2] - l31 * c - l32 * e
    if d3 == 0.0:
        return None
    x3 = (rhs[2] - l31 * rhs[0] - l32 * y2) / d3
    x2 = y2 / d2 - l32 * x3
    return [rhs[0] / a - l21 * x2 - l31 * x3, x2, x3]


def _planar_dot(u, v) -> float:
    """Frobenius inner product of symmetric 2 x 2 matrices held as
    ``(a, b, c)``."""
    return u[0] * v[0] + 2.0 * (u[1] * v[1]) + u[2] * v[2]


def _planar_extrapolate(g, f, history):
    """:func:`_extrapolate` on ``(a, b, c)`` floats: ``history`` holds the
    ``(dg, df)`` pairs, and the Gram system is solved by
    :func:`_gram_solve`."""
    dfs = [d for _, d in history]
    gamma = _gram_solve(
        [[_planar_dot(u, v) for v in dfs[:i + 1]] for i, u in enumerate(dfs)],
        [_planar_dot(u, f) for u in dfs])
    if gamma is None or not all(map(math.isfinite, gamma)):
        return None
    a, b, c = g
    for x, (dg, _) in zip(gamma, history):
        a, b, c = a - x * dg[0], b - x * dg[1], c - x * dg[2]
    return a, b, c


class _Arrays:
    """The iterate off d = 2: a ``(d, d)`` array, certified by
    :func:`certify_spd`; the candidate is :func:`_newton`'s while the plain
    change shrinks, then :func:`_extrapolate`'s.  Methods look module
    functions up when called, so a substituted one takes effect."""

    iterate = matrix = staticmethod(np.asarray)
    norm = staticmethod(np.linalg.norm)
    sub = np.subtract

    def __init__(self, lam, covs, planar):
        self.lam, self.covs, self.planar = lam, covs, planar
        self.change = math.inf  # -inf once Anderson mixing takes over

    def certify(self, s):
        return certify_spd(s)

    def step(self, s, spd):
        mixed, s_next, self.lin = _scatter_step(spd, self.covs, self.lam)
        return mixed, s_next

    def extrapolate(self, g, f, history, change):
        if change < self.change:
            self.change = change
            return _newton(f, self.lin, change)
        self.change = -math.inf
        return _extrapolate(g, f, history) if len(history) else None

    def certified(self, s, spd) -> SpdMatrix:
        return spd


class _Floats(_Arrays):
    """The iterate at d = 2: the floats ``(a, b, c)`` of ``[[a, b], [b,
    c]]``, certified by :func:`_certify_planar` and mixed by
    :func:`_planar_extrapolate`; only the constructor is inherited."""

    certified = staticmethod(_planar_spd)

    def iterate(self, m):
        x, p, q, z = m.ravel().tolist()
        return x, (p + q) * 0.5, z

    def matrix(self, s) -> np.ndarray:
        a, b, c = s
        return np.array([[a, b], [b, c]])

    def certify(self, s):
        return _certify_planar(*s)

    def step(self, s, eig):
        return _planar_step(s, eig, self.lam, self.planar)

    def norm(self, x) -> float:
        return math.hypot(x[0], x[1], x[1], x[2])

    def sub(self, u, v):
        return u[0] - v[0], u[1] - v[1], u[2] - v[2]

    def extrapolate(self, g, f, history, change):
        return _planar_extrapolate(g, f, history) if history else None


def _barycenter(ens: WeightedEnsemble, lam: np.ndarray,
                start: np.ndarray | None = None, tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER):
    """Barycenter of the atoms of ``ens`` kept by the full-length weights
    ``lam`` (those > 0), and its squared distances to every atom.  The
    accelerated scatter iteration starts from ``start`` or, by default, the
    weighted mean of the kept scatters.  A single kept atom is its own
    barycenter: it starts at its scatter whatever ``start`` says and returns
    at step 0 with the residual that step measured."""
    kept = lam > 0.0
    lam_k, means, covs = lam[kept], ens.means()[kept], ens.covs()[kept]
    single = lam_k.shape[0] == 1
    if single or start is None:
        start = np.einsum("k,kij->ij", lam_k, covs)
    planar = ens._planar
    if planar is not None:
        # The whole stack's largest determinant only screens for overflow.
        planar = tuple(x[kept] for x in planar[:3]) + planar[3:]
    rep = (_Arrays if planar is None else _Floats)(lam_k, covs, planar)
    s = rep.iterate(start)
    d = covs.shape[-1]
    # Differences of symmetric matrices span d (d + 1) / 2 dimensions; more
    # pairs than that would make the Gram matrix singular.
    depth = min(ANDERSON_DEPTH, d * (d + 1) // 2)
    # Array pairs go to one preallocated buffer that _extrapolate reads.
    history = np.empty((depth, 2, d, d)) if planar is None else [None] * depth
    pairs = 0
    last = cert = None
    for step in range(max_iter + 1):
        if cert is None:
            try:
                cert = rep.certify(s)
            except NotPositiveDefinite as err:
                raise ArithmeticError(f"scatter iteration lost positive "
                                      f"definiteness at step {step}: {err}")
        mixed, s_next = rep.step(s, cert)
        norm_s = rep.norm(s)
        residual = float(rep.norm(rep.sub(mixed, s)) / norm_s)
        if single or residual <= tol:
            bary = LocScatter(lam_k @ means, rep.certified(s, cert))
            d2 = ens._distances_sq(bary)
            return BarycenterResult(
                bary=bary, iterations=step, residual=residual,
                variance=float(lam_k @ d2[kept])), d2
        f = rep.sub(s_next, s)
        if last is not None:
            history[pairs % depth] = (rep.sub(s_next, last[0]),
                                      rep.sub(f, last[1]))
            pairs += 1
        last = s_next, f
        s, cert = s_next, None
        cand = rep.extrapolate(s_next, f, history[:min(pairs, depth)],
                               rep.norm(f) / norm_s)
        if cand is not None:
            try:
                s, cert = cand, rep.certify(cand)
            except NotPositiveDefinite:
                pass
        if cert is None:
            # No certified candidate: keep the plain step and start the
            # history again from it.
            pairs = 0
    raise MaxIterationsExceeded(
        f"scatter iteration did not reach relative residual {tol:.3e} "
        f"in {max_iter} steps (residual {residual:.3e})",
        last_iterate=rep.matrix(s), residual=residual)


def fixed_point_barycenter(ens: WeightedEnsemble, tol: float = DEFAULT_TOL,
                           max_iter: int = DEFAULT_MAX_ITER) -> BarycenterResult:
    """Barycenter of the ensemble with convergence diagnostics.

    Runs the accelerated scatter iteration (see the module docstring)
    until the relative residual of the fixed-point condition at the
    certified iterate is at most ``tol`` in Frobenius norm, and returns
    that iterate; a one-member ensemble returns its member at step 0.
    Raises :class:`MaxIterationsExceeded` when ``max_iter`` steps do not
    get there, and ``ArithmeticError`` naming the step when round-off
    takes an iterate out of the positive definite cone.  ``tol`` must be
    finite and positive and ``max_iter`` nonnegative.  The reported
    variance is the weighted sum of squared distances from the members to
    the barycenter.
    """
    check_positive(tol, "tol")
    check_count(max_iter, "max_iter", 0)
    return _barycenter(ens, ens.weights, tol=tol, max_iter=max_iter)[0]


def g_map(ens: WeightedEnsemble, eta: LocScatter) -> LocScatter:
    """One averaged-transport step applied to the reference member ``eta``.

    Pushing ``eta`` through the weighted average of the optimal maps onto
    the members gives a member whose mean is the weighted mean and whose
    scatter is one step of the barycenter iteration started at ``eta``.
    Iterating this map descends the ensemble variance to the barycenter.
    """
    if eta.dim != ens.dim:
        raise DimensionMismatch(f"reference has dimension {eta.dim}, "
                                f"ensemble {ens.dim}")
    rep = (_Arrays if ens._planar is None else _Floats)(
        ens.weights, ens.covs(), ens._planar)
    s = rep.iterate(eta.cov.entries)
    cov = rep.matrix(rep.step(s, rep.certify(s))[1])
    return LocScatter(ens.weights @ ens.means(), certify_spd(cov))


def barycenter_variance(ens: WeightedEnsemble, candidate: LocScatter) -> float:
    """Weighted sum of squared distances from the members to ``candidate``."""
    return float(ens.weights @ ens._distances_sq(candidate))


def log_euclidean_mean(ens: WeightedEnsemble) -> LocScatter:
    """Log-Euclidean aggregate: exp of the weighted mean of matrix logs."""
    logs = np.stack([spd_log(m.cov).entries for m in ens.members])
    avg = SymMatrix(np.einsum("k,kij->ij", ens.weights, logs))
    return LocScatter(ens.weights @ ens.means(), spd_exp(avg))


def linear_mean(ens: WeightedEnsemble) -> LocScatter:
    """Arithmetic aggregate: weighted mean of the member scatters."""
    cov = np.einsum("k,kij->ij", ens.weights, ens.covs())
    return LocScatter(ens.weights @ ens.means(), certify_spd(cov))
