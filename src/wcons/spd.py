"""Symmetric and symmetric positive definite matrices.

All fractional powers, logarithms and exponentials go through a single
eigendecomposition path so that every derived matrix is exactly symmetric
by construction.  Positive definiteness is certified once, at construction
of :class:`SpdMatrix`, and the certified eigendecomposition is reused by
every downstream operation.

At d = 2 the eigendecomposition takes no LAPACK call: it is the step that
LAPACK's ``dsyevd`` itself takes on a 2 x 2 matrix ``[[a, b], [b, c]]``
(the ``dsteqr`` test for a negligible off-diagonal, then the ``dlaev2``
rotation), carried out on Python floats.  The root of larger magnitude is
``rt1 = (a + c +- rt) / 2`` with ``rt = hypot(a - c, 2 b)``, the other is
``(acmx / rt1) acmn - (b / rt1) b`` with ``acmx`` and ``acmn`` the
diagonal entries of larger and smaller magnitude, and the rotation
``(cs, sn)`` gives the eigenvector columns.  Matrices whose largest entry
lies outside [1e-120, 1e140], where ``dsyevd`` rescales first, still call
``eigh``.  A 2 x 2 matrix is also symmetrized and certified on Python
floats (:func:`_certify_planar`), with the bits of the array route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NotPositiveDefinite

__all__ = [
    "SymMatrix",
    "SpdMatrix",
    "sym_eigen",
    "certify_spd",
    "spd_log",
    "spd_exp",
]


_SYM_OVERFLOW = "symmetrization overflows: A + A^T is not finite"

# LAPACK's dlamch('E') and dlamch('S'): the split test of dsteqr.
_EPS = 2.0 ** -53
_SAFMIN = 2.0 ** -1022


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """A real symmetric matrix.

    The input is symmetrized on construction, ``0.5 * (A + A.T)``, which is
    bitwise symmetric because float addition commutes.  Entries are stored
    read-only.  Finite entries whose sum ``A + A.T`` overflows raise
    :class:`InvalidInput`.
    """

    entries: np.ndarray

    def __post_init__(self):
        try:
            a = np.asarray(self.entries, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise InvalidInput("matrix entries must be numeric") from None
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
        with np.errstate(over="ignore"):
            s = np.add(a, a.T, order="C")
        if not np.isfinite(s).all() and np.isfinite(a).all():
            raise InvalidInput(_SYM_OVERFLOW)
        s *= 0.5
        s.setflags(write=False)
        object.__setattr__(self, "entries", s)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """A certified symmetric positive definite matrix.

    Instances are produced by :func:`certify_spd`, which keeps the
    symmetrized entries and the eigendecomposition that certified them: the
    smallest eigenvalue exceeded the positivity floor.  Square roots and
    inverses are cheap reconstructions from the eigenpairs.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

    def sqrt(self) -> np.ndarray:
        """Principal square root as a plain symmetric ndarray."""
        return _rebuild(self.eigenvectors, np.sqrt(self.eigenvalues))

    def inv_sqrt(self) -> np.ndarray:
        """Inverse principal square root as a plain symmetric ndarray."""
        return _rebuild(self.eigenvectors, 1.0 / np.sqrt(self.eigenvalues))

    def trace(self) -> float:
        return float(np.trace(self.entries))


def pd_floor(eigenvalues) -> float:
    """Positivity floor used by certification: 1e-10 * max(1, largest eig)."""
    return 1e-10 * float(max(1.0, max(eigenvalues, default=0.0)))


def _planar_eigen(a: float, b: float, c: float):
    """Eigenpairs of ``[[a, b], [b, c]]`` by ``dsteqr``'s 2 x 2 step.

    The negligible off-diagonal test of ``dsteqr`` and the ``dlaev2``
    formulas, in the same operation order, so the result is what ``eigh``
    returns; ``rt1`` is the root of larger magnitude and ``(cs, sn)`` its
    unit eigenvector.  Returns ``(values, vectors)`` as float tuples
    ordered as :func:`sym_eigen` orders them, the vectors matrix row by
    row.
    """
    if (b == 0.0 or abs(b) <= math.sqrt(abs(a)) * math.sqrt(abs(c)) * _EPS
            or b * b <= _EPS * _EPS * abs(a) * abs(c) + _SAFMIN):
        if a >= c:
            return (a, c), (1.0, 0.0, 0.0, 1.0)
        return (c, a), (0.0, 1.0, 1.0, 0.0)
    sm = a + c
    df = a - c
    adf = abs(df)
    tb = b + b
    ab = abs(tb)
    acmx, acmn = (a, c) if abs(a) > abs(c) else (c, a)
    if adf > ab:
        t = ab / adf
        rt = adf * math.sqrt(1.0 + t * t)
    elif adf < ab:
        t = adf / ab
        rt = ab * math.sqrt(1.0 + t * t)
    else:
        rt = ab * math.sqrt(2.0)
    if sm < 0.0:
        rt1 = 0.5 * (sm - rt)
        rt2 = (acmx / rt1) * acmn - (b / rt1) * b
    elif sm > 0.0:
        rt1 = 0.5 * (sm + rt)
        rt2 = (acmx / rt1) * acmn - (b / rt1) * b
    else:
        rt1, rt2 = 0.5 * rt, -0.5 * rt
    cs = df + rt if df >= 0.0 else df - rt
    if abs(cs) > ab:
        t = -tb / cs
        sn = 1.0 / math.sqrt(1.0 + t * t)
        cs1 = t * sn
    else:
        t = -cs / tb
        cs1 = 1.0 / math.sqrt(1.0 + t * t)
        sn = t * cs1
    if (sm < 0.0) == (df < 0.0):
        cs1, sn = -sn, cs1
    if rt1 >= rt2:
        return (rt1, rt2), (cs1, -sn, sn, cs1)
    return (rt2, rt1), (-sn, cs1, cs1, sn)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sym_eigen` through LAPACK's ``eigh``."""
    if not np.isfinite(a).all():
        raise InvalidInput("matrix has non-finite entries")
    w, v = np.linalg.eigh(a)
    if (w[1:] > w[:-1]).all():
        return w[::-1].copy(), v[:, ::-1].copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def sym_eigen(m: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns ``(values, vectors)`` with eigenvalues sorted in descending
    order (ties keep the solver's original order, which makes the result
    deterministic) and eigenvectors as columns, ``vectors[:, i]`` belonging
    to ``values[i]``.  Both arrays are fresh.
    """
    a = m.entries
    if a.shape[0] == 2:
        a00, _, b, c = a.ravel().tolist()
        values, vectors = _planar_pairs(a00, b, c)
        return np.array(values), np.array(vectors).reshape(2, 2)
    return _eigh(a)


def _planar_pairs(a: float, b: float, c: float):
    """Eigenpairs of ``[[a, b], [b, c]]`` as float tuples, as
    :func:`_planar_eigen` returns them; from ``eigh`` when the largest
    magnitude lies outside [1e-120, 1e140], where ``dsyevd`` rescales
    first, or an entry is not finite."""
    if (math.isfinite(a + b + c)
            and 1e-120 <= max(abs(a), abs(b), abs(c)) <= 1e140):
        return _planar_eigen(a, b, c)
    w, v = _eigh(np.array([[a, b], [b, c]]))
    return tuple(w.tolist()), tuple(v.ravel().tolist())


def _rebuild(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Assemble V diag(values) V^T and symmetrize away rounding skew."""
    b = (vectors * values) @ vectors.T
    return 0.5 * (b + b.T)


def _certify_planar(a: float, b: float, c: float):
    """Certify the symmetric ``[[a, b], [b, c]]`` as positive definite, on
    floats: its :func:`_planar_pairs`, or :class:`NotPositiveDefinite` as
    :func:`certify_spd` raises it."""
    values, vectors = _planar_pairs(a, b, c)
    _check_floor(values)
    return values, vectors


def _check_floor(values) -> None:
    """Raise :class:`NotPositiveDefinite` unless the smallest of the
    descending ``values`` clears ``pd_floor``."""
    smallest = values[-1]
    if smallest <= pd_floor(values):
        raise NotPositiveDefinite(
            f"smallest eigenvalue {smallest:.6g} is not safely positive",
            min_eigenvalue=smallest)


def _planar_spd(s, eig) -> SpdMatrix:
    """The :class:`SpdMatrix` of ``s = (a, b, c)`` certified by
    :func:`_certify_planar` as ``eig = (values, vectors)``."""
    a, b, c = s
    values, vectors = eig
    parts = (np.array([[a, b], [b, c]]), np.array(values),
             np.array(vectors).reshape(2, 2))
    for x in parts:
        x.setflags(write=False)
    return SpdMatrix(*parts)


def certify_spd(m: SymMatrix | np.ndarray) -> SpdMatrix:
    """Certify a symmetric matrix as positive definite.

    The input is symmetrized as :class:`SymMatrix` does.  The smallest
    eigenvalue must clear ``pd_floor``; otherwise
    :class:`NotPositiveDefinite` is raised carrying that eigenvalue.
    """
    if isinstance(m, SymMatrix):
        a = m.entries
    else:
        try:
            a = np.asarray(m, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise InvalidInput("matrix entries must be numeric") from None
    if a.shape == (2, 2):
        # The symmetrization of SymMatrix, entry by entry; on a SymMatrix's
        # entries it changes no bit.
        a00, a01, a10, a11 = a.ravel().tolist()
        s = ((a00 + a00) * 0.5, (a01 + a10) * 0.5, (a11 + a11) * 0.5)
        try:
            return _planar_spd(s, _certify_planar(*s))
        except InvalidInput:
            # Only a non-finite s reaches InvalidInput; from finite entries
            # that is an overflow of the sums.
            if np.isfinite(a).all():
                raise InvalidInput(_SYM_OVERFLOW) from None
            raise
    if not isinstance(m, SymMatrix):
        m = SymMatrix(a)
    w, v = sym_eigen(m)
    _check_floor(w.tolist())
    w.setflags(write=False)
    v.setflags(write=False)
    return SpdMatrix(m.entries, w, v)


def spd_log(m: SpdMatrix) -> SymMatrix:
    """Matrix logarithm of a certified positive definite matrix."""
    return SymMatrix(_rebuild(m.eigenvectors, np.log(m.eigenvalues)))


def spd_exp(m: SymMatrix) -> SpdMatrix:
    """Matrix exponential of a symmetric matrix; the result is certified.
    An exponential that overflows raises :class:`InvalidInput`."""
    w, v = sym_eigen(m)
    with np.errstate(over="ignore", invalid="ignore"):
        e = _rebuild(v, np.exp(w))
    if not np.isfinite(e).all():
        raise InvalidInput("matrix exponential overflows")
    return certify_spd(e)


def sqrt_psd_batch(mats: np.ndarray) -> np.ndarray:
    """Principal square roots of a stack of symmetric PSD matrices.

    Shape ``(k, d, d)`` in, same shape out; only the lower triangle is read.
    Tiny negative eigenvalues from round-off are clamped to zero; genuinely
    negative spectra raise.
    """
    return _psd_roots(mats)[0]


def _psd_roots(mats: np.ndarray):
    """:func:`sqrt_psd_batch`'s roots, then the clamped roots of the
    eigenvalues ``(k, d)``, ascending, and the eigenvectors as columns."""
    w, v = np.linalg.eigh(mats)
    tol = -1e-10 * np.maximum(1.0, w[:, -1])
    if np.any(w[:, 0] < tol):
        raise NotPositiveDefinite("batch member is not positive semidefinite",
                                  min_eigenvalue=float(w[:, 0].min()))
    root_w = np.sqrt(np.maximum(w, 0.0))
    r = (v * root_w[:, None, :]) @ np.swapaxes(v, -1, -2)
    return 0.5 * (r + np.swapaxes(r, -1, -2)), root_w, v


def check_same_dim(*dims: int) -> int:
    if len(set(dims)) != 1:
        raise DimensionMismatch(f"dimension mismatch: {dims}")
    return dims[0]
