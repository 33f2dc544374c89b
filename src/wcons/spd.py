"""Symmetric and symmetric positive definite matrices.

All fractional powers, logarithms and exponentials go through a single
eigendecomposition path so that every derived matrix is exactly symmetric
by construction.  Positive definiteness is certified once, at construction
of :class:`SpdMatrix`, and the certified eigendecomposition is reused by
every downstream operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NotPositiveDefinite

__all__ = [
    "SymMatrix",
    "SpdMatrix",
    "sym_eigen",
    "certify_spd",
    "spd_power",
    "spd_log",
    "spd_exp",
]


def _as_square(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """A real symmetric matrix.

    The input is symmetrized on construction, ``0.5 * (A + A.T)``, which is
    bitwise symmetric because float addition commutes.  Entries are stored
    read-only.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = _as_square(self.entries)
        object.__setattr__(self, "entries", _frozen(0.5 * (a + a.T)))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """A certified symmetric positive definite matrix.

    Instances are produced by :func:`certify_spd`; the certificate is the
    smallest eigenvalue, which exceeded the positivity floor at construction
    time.  The full eigendecomposition computed during certification is kept
    so that square roots and inverses are cheap reconstructions.
    """

    base: SymMatrix
    min_eigenvalue: float
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    @property
    def entries(self) -> np.ndarray:
        return self.base.entries

    @property
    def dim(self) -> int:
        return self.base.dim

    def sqrt(self) -> np.ndarray:
        """Principal square root as a plain symmetric ndarray."""
        return _rebuild(self.eigenvectors, np.sqrt(self.eigenvalues))

    def inv_sqrt(self) -> np.ndarray:
        """Inverse principal square root as a plain symmetric ndarray."""
        return _rebuild(self.eigenvectors, 1.0 / np.sqrt(self.eigenvalues))

    def trace(self) -> float:
        return float(np.trace(self.entries))


def pd_floor(eigenvalues: np.ndarray) -> float:
    """Positivity floor used by certification: 1e-10 * max(1, largest eig)."""
    return 1e-10 * max(1.0, float(np.max(eigenvalues, initial=0.0)))


def sym_eigen(m: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns ``(values, vectors)`` with eigenvalues sorted in descending
    order (ties keep the solver's original order, which makes the result
    deterministic) and eigenvectors as columns, ``vectors[:, i]`` belonging
    to ``values[i]``.
    """
    a = m.entries
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix has non-finite entries")
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def _rebuild(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Assemble V diag(values) V^T and symmetrize away rounding skew."""
    b = (vectors * values) @ vectors.T
    return 0.5 * (b + b.T)


def certify_spd(m: SymMatrix | np.ndarray) -> SpdMatrix:
    """Certify a symmetric matrix as positive definite.

    The smallest eigenvalue must clear ``pd_floor``; otherwise
    :class:`NotPositiveDefinite` is raised carrying that eigenvalue.
    """
    if not isinstance(m, SymMatrix):
        m = SymMatrix(m)
    w, v = sym_eigen(m)
    smallest = float(w[-1])
    if smallest <= pd_floor(w):
        raise NotPositiveDefinite(
            f"smallest eigenvalue {smallest:.6g} is not safely positive",
            min_eigenvalue=smallest,
        )
    return SpdMatrix(base=m, min_eigenvalue=smallest,
                     eigenvalues=_frozen(w), eigenvectors=_frozen(v))


def spd_power(m: SpdMatrix, p: float) -> SpdMatrix:
    """Fractional power of a certified matrix; ``p`` is 0.5 or -0.5."""
    if p not in (0.5, -0.5):
        raise InvalidInput(f"power {p!r} not supported, use 0.5 or -0.5")
    return certify_spd(_rebuild(m.eigenvectors, m.eigenvalues ** p))


def spd_log(m: SpdMatrix) -> SymMatrix:
    """Matrix logarithm of a certified positive definite matrix."""
    return SymMatrix(_rebuild(m.eigenvectors, np.log(m.eigenvalues)))


def spd_exp(m: SymMatrix) -> SpdMatrix:
    """Matrix exponential of a symmetric matrix; the result is certified."""
    w, v = sym_eigen(m)
    return certify_spd(_rebuild(v, np.exp(w)))


def sqrt_psd_batch(mats: np.ndarray) -> np.ndarray:
    """Principal square roots of a stack of symmetric PSD matrices.

    Shape ``(k, d, d)`` in, same shape out; only the lower triangle is read.
    Tiny negative eigenvalues from round-off are clamped to zero; genuinely
    negative spectra raise.  At d = 2 the roots are closed-form: with
    ``s = sqrt(det M)`` and ``t = sqrt(tr M + 2 s)``, the root of a PSD
    ``M`` is ``(M + s I) / t``.  A negative eigenvalue that passes the
    round-off test moves that root by its size over ``t`` instead of being
    clamped, and a matrix with ``t = 0`` maps to zero.
    """
    if mats.shape[-1] == 2:
        a, b, c = mats[:, 0, 0], mats[:, 1, 0], mats[:, 1, 1]
        half = 0.5 * (a + c)
        rad = np.hypot(0.5 * (a - c), b)
        low = half - rad
        if np.any(low < -1e-10 * np.maximum(1.0, half + rad)):
            raise NotPositiveDefinite(
                "batch member is not positive semidefinite",
                min_eigenvalue=float(low.min()),
            )
        s = np.sqrt(np.maximum(a * c - b * b, 0.0))
        t = np.sqrt(np.maximum(a + c + 2.0 * s, 0.0))
        t[t == 0.0] = np.inf
        r = np.empty(mats.shape)
        r[:, 0, 0] = (a + s) / t
        r[:, 1, 1] = (c + s) / t
        r[:, 0, 1] = r[:, 1, 0] = b / t
        return r
    w, v = np.linalg.eigh(mats)
    tol = -1e-10 * np.maximum(1.0, w[:, -1])
    if np.any(w[:, 0] < tol):
        raise NotPositiveDefinite(
            "batch member is not positive semidefinite",
            min_eigenvalue=float(w[:, 0].min()),
        )
    r = (v * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ np.swapaxes(v, -1, -2)
    return 0.5 * (r + np.swapaxes(r, -1, -2))


def check_same_dim(*dims: int) -> int:
    first = dims[0]
    for d in dims[1:]:
        if d != first:
            raise DimensionMismatch(f"dimension mismatch: {dims}")
    return first
