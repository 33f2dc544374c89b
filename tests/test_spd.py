"""Symmetric eigensolver wrapper, certified matrices and fractional powers.

Analytic oracles: 2x2 eigenpairs from the characteristic polynomial,
diagonal matrices, and hand-expanded square roots.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from wcons import (InvalidInput, NotPositiveDefinite, SymMatrix, certify_spd,
                   spd_exp, spd_log, sym_eigen)
from wcons.spd import pd_floor, sqrt_psd_batch

from helpers import ENVELOPE, planar_psd, random_orthogonal

# Envelope of the planar square roots: scales 1e-6 to 1e6, condition
# numbers up to 1e8, any orientation.
SCALE_EXP = st.floats(-6.0, 6.0)
COND_EXP = st.floats(0.0, 8.0)
ANGLE = st.floats(0.0, math.pi)


def _random_sym(gen, dim, scale=1.0):
    a = scale * gen.standard_normal((dim, dim))
    return SymMatrix(a + a.T)


class TestSymMatrix:
    def test_symmetrization_is_exact(self):
        m = SymMatrix([[1.0, 0.3], [0.1, 2.0]])
        assert m.entries[0, 1] == m.entries[1, 0] == 0.2

    def test_entries_are_read_only(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInput):
            SymMatrix(np.ones((2, 3)))
        with pytest.raises(InvalidInput):
            SymMatrix(np.ones(4))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_overflowing_symmetrization_is_named(self, dim):
        # Finite entries whose A + A^T overflows: at d = 3 the sum warned,
        # and every dimension blamed non-finite entries.
        big = np.full((dim, dim), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for make in (SymMatrix, certify_spd):
                with pytest.raises(InvalidInput,
                                   match="^symmetrization overflows"):
                    make(big)
            big[0, 0] = np.nan
            with pytest.raises(InvalidInput, match="non-finite"):
                certify_spd(big)

    @pytest.mark.parametrize("entries", ["x", [["a", "b"], ["c", "d"]],
                                         [[1.0], [1.0, 2.0]]])
    def test_rejects_non_numeric(self, entries):
        # Used to raise numpy's ValueError from the float conversion.
        with pytest.raises(InvalidInput, match="numeric"):
            SymMatrix(entries)
        with pytest.raises(InvalidInput, match="numeric"):
            certify_spd(entries)


class TestSymEigen:
    def test_diagonal_matrix(self):
        w, v = sym_eigen(SymMatrix(np.diag([3.0, 1.0])))
        np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-14)

    def test_two_by_two_analytic(self):
        # [[2,1],[1,2]] has eigenvalues 3 and 1 (roots of x^2 - 4x + 3)
        # with eigenvectors (1,1)/sqrt(2) and (1,-1)/sqrt(2).
        w, v = sym_eigen(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-12)
        s = 1.0 / math.sqrt(2.0)
        for col, expect in ((0, [s, s]), (1, [s, -s])):
            got = v[:, col]
            if got[0] < 0:
                got = -got
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_identity_reconstruction(self):
        w, v = sym_eigen(SymMatrix(np.eye(3)))
        np.testing.assert_allclose(w, np.ones(3), atol=1e-14)
        np.testing.assert_allclose(v @ v.T, np.eye(3), atol=1e-12)

    def test_random_reconstruction_and_orthonormality(self):
        gen = np.random.default_rng(11)
        for _ in range(30):
            dim = int(gen.integers(1, 11))
            m = _random_sym(gen, dim, scale=float(gen.uniform(0.1, 50.0)))
            w, v = sym_eigen(m)
            norm = np.linalg.norm(m.entries)
            rebuilt = (v * w) @ v.T
            assert np.linalg.norm(rebuilt - m.entries) <= 1e-12 * max(norm, 1e-300)
            assert np.linalg.norm(v.T @ v - np.eye(dim)) <= 1e-12
            assert np.all(np.diff(w) <= 0.0)

    def test_non_finite_entries_raise(self):
        with pytest.raises(InvalidInput):
            sym_eigen(SymMatrix([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(InvalidInput):
            sym_eigen(SymMatrix([[np.inf, 0.0], [0.0, 1.0]]))


class TestCertify:
    def test_identity(self):
        m = certify_spd(np.eye(3))
        assert m.min_eigenvalue == pytest.approx(1.0, abs=1e-14)
        assert m.dim == 3

    def test_singular_matrix_rejected(self):
        with pytest.raises(NotPositiveDefinite) as err:
            certify_spd(np.diag([1.0, 0.0]))
        assert abs(err.value.min_eigenvalue) <= 1e-12

    def test_near_singular_boundary(self):
        # Eigenvalues are 1 +/- 0.999.
        m = certify_spd([[1.0, 0.999], [0.999, 1.0]])
        assert m.min_eigenvalue == pytest.approx(0.001, abs=1e-12)

    def test_negative_definite_rejected(self):
        with pytest.raises(NotPositiveDefinite) as err:
            certify_spd(np.diag([-1.0, -2.0]))
        assert err.value.min_eigenvalue == pytest.approx(-2.0, abs=1e-12)

    def test_floor_scales_with_largest_eigenvalue(self):
        certify_spd(np.diag([1e8, 1.0]))
        with pytest.raises(NotPositiveDefinite):
            certify_spd(np.diag([1e12, 1e-3]))

    def test_floor_function(self):
        assert pd_floor(np.array([0.5, 0.1])) == 1e-10
        assert pd_floor(np.array([1e6, 2.0])) == 1e-10 * 1e6

    def test_accepts_sym_matrix_input(self):
        m = certify_spd(SymMatrix([[2.0, 0.0], [0.0, 5.0]]))
        assert m.min_eigenvalue == pytest.approx(2.0, abs=1e-14)


class TestSpdPower:
    """The powers 1/2 and -1/2: ``sqrt()`` and ``inv_sqrt()``."""

    def test_identity(self):
        m = certify_spd(np.eye(4))
        np.testing.assert_allclose(m.sqrt(), np.eye(4),
                                   atol=1e-14)

    def test_diagonal(self):
        m = certify_spd(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(m.sqrt(), np.diag([2.0, 3.0]), atol=1e-12)

    def test_two_by_two_analytic(self):
        # sqrt applied to the eigenvalues 3 and 1 of [[2,1],[1,2]] gives
        # [[(r3+1)/2, (r3-1)/2], [(r3-1)/2, (r3+1)/2]] with r3 = sqrt(3).
        r3 = math.sqrt(3.0)
        expect = 0.5 * np.array([[r3 + 1.0, r3 - 1.0], [r3 - 1.0, r3 + 1.0]])
        m = certify_spd([[2.0, 1.0], [1.0, 2.0]])
        root = m.sqrt()
        np.testing.assert_allclose(root, expect, atol=1e-12)
        np.testing.assert_allclose(root[0, 0], 1.3660, atol=1e-4)
        np.testing.assert_allclose(root[0, 1], 0.3660, atol=1e-4)

    def test_square_reconstructs(self):
        gen = np.random.default_rng(12)
        for _ in range(30):
            dim = int(gen.integers(1, 11))
            a = gen.standard_normal((dim, dim))
            m = certify_spd(a @ a.T + dim * np.eye(dim))
            root = m.sqrt()
            err = np.linalg.norm(root @ root - m.entries)
            assert err <= 1e-10 * np.linalg.norm(m.entries)

    def test_negative_power_is_inverse_root(self):
        gen = np.random.default_rng(13)
        for _ in range(10):
            a = gen.standard_normal((4, 4))
            m = certify_spd(a @ a.T + 4.0 * np.eye(4))
            prod = m.inv_sqrt() @ m.sqrt()
            np.testing.assert_allclose(prod, np.eye(4), atol=1e-10)

    def test_commutes_with_orthogonal_conjugation(self):
        gen = np.random.default_rng(14)
        for _ in range(10):
            dim = int(gen.integers(2, 7))
            a = gen.standard_normal((dim, dim))
            m = certify_spd(a @ a.T + dim * np.eye(dim))
            q = random_orthogonal(gen, dim)
            conjugated = certify_spd(q @ m.entries @ q.T)
            left = conjugated.sqrt()
            right = q @ m.sqrt() @ q.T
            assert np.linalg.norm(left - right) <= 1e-10 * np.linalg.norm(left)

    def test_diagonal_stays_diagonal(self):
        gen = np.random.default_rng(15)
        for _ in range(10):
            d = gen.uniform(0.1, 10.0, size=5)
            m = certify_spd(np.diag(d))
            root = m.sqrt()
            off = root - np.diag(np.diag(root))
            assert np.abs(off).max() <= 1e-12 * np.linalg.norm(m.entries)


class TestLogExp:
    def test_log_identity_is_zero(self):
        np.testing.assert_allclose(spd_log(certify_spd(np.eye(3))).entries,
                                   np.zeros((3, 3)), atol=1e-14)

    def test_log_diagonal(self):
        m = certify_spd(np.diag([math.e, math.e ** 2]))
        np.testing.assert_allclose(spd_log(m).entries, np.diag([1.0, 2.0]),
                                   atol=1e-12)

    def test_exp_log_round_trip_diagonal(self):
        m = certify_spd(np.diag([0.04, 4.0]))
        back = spd_exp(spd_log(m))
        np.testing.assert_allclose(back.entries, m.entries, atol=1e-12)

    def test_exp_log_round_trip_random(self):
        gen = np.random.default_rng(16)
        for _ in range(20):
            dim = int(gen.integers(1, 9))
            a = gen.standard_normal((dim, dim))
            m = certify_spd(a @ a.T + dim * np.eye(dim))
            back = spd_exp(spd_log(m)).entries
            err = np.linalg.norm(back - m.entries)
            assert err <= 1e-10 * np.linalg.norm(m.entries)

    def test_log_exp_round_trip_symmetric(self):
        gen = np.random.default_rng(17)
        for _ in range(10):
            s = _random_sym(gen, 4, scale=0.5)
            back = spd_log(spd_exp(s)).entries
            np.testing.assert_allclose(back, s.entries, atol=1e-10)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_exp_overflow_raises(self, dim):
        # exp(1000) is inf: numpy used to warn before certification failed.
        with pytest.raises(InvalidInput, match="exponential"):
            spd_exp(SymMatrix(1000.0 * np.eye(dim)))

    def test_exp_of_zero(self):
        np.testing.assert_allclose(spd_exp(SymMatrix(np.zeros((2, 2)))).entries,
                                   np.eye(2), atol=1e-14)

    def test_log_returns_plain_symmetric(self):
        out = spd_log(certify_spd(np.diag([0.5, 2.0])))
        assert isinstance(out, SymMatrix)
        assert not isinstance(out, type(certify_spd(np.eye(2))))


class TestSqrtPsdBatch:
    def test_matches_single_matrix_root(self):
        gen = np.random.default_rng(18)
        mats = []
        for _ in range(6):
            a = gen.standard_normal((3, 3))
            mats.append(a @ a.T + 3.0 * np.eye(3))
        stack = np.stack(mats)
        roots = sqrt_psd_batch(stack)
        for i, m in enumerate(mats):
            expect = certify_spd(m).sqrt()
            np.testing.assert_allclose(roots[i], expect, atol=1e-10)

    def test_accepts_singular_psd(self):
        v = np.array([1.0, 2.0])
        rank_one = np.outer(v, v)
        root = sqrt_psd_batch(rank_one[None])[0]
        np.testing.assert_allclose(root @ root, rank_one, atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            sqrt_psd_batch(np.diag([-1.0, 1.0])[None])

    def test_output_is_symmetric(self):
        gen = np.random.default_rng(19)
        a = gen.standard_normal((5, 4, 4))
        stack = a @ np.swapaxes(a, -1, -2)
        roots = sqrt_psd_batch(stack)
        np.testing.assert_array_equal(roots, np.swapaxes(roots, -1, -2))


def eigh_sqrt_batch(mats):
    """The general-d route, one matrix at a time: eigenvalues of the lower
    triangle clamped at zero, then V diag(sqrt w) V^T."""
    roots = []
    for m in mats:
        w, v = np.linalg.eigh(m)
        r = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
        roots.append(0.5 * (r + r.T))
    return np.array(roots)


class TestPlanarSqrtPsdBatch:
    """The batched eigenvalue route at d = 2, which the scatter step no
    longer takes (its planar closed form was removed), against the
    per-matrix eigh reference, within 1e-12 of sqrt(largest eig)."""

    @ENVELOPE
    @given(st.lists(st.tuples(SCALE_EXP, COND_EXP, ANGLE), min_size=1,
                    max_size=8))
    def test_matches_eigh_reference(self, specs):
        stack = np.array([planar_psd(10.0 ** e, 10.0 ** c, t)
                          for e, c, t in specs])
        got = sqrt_psd_batch(stack)
        ref = eigh_sqrt_batch(stack)
        scale = np.sqrt([10.0 ** e for e, _, _ in specs])
        gap = np.abs(got - ref).max(axis=(1, 2))
        assert np.all(gap <= 1e-12 * scale)
        np.testing.assert_array_equal(got, np.swapaxes(got, 1, 2))

    @ENVELOPE
    @given(SCALE_EXP, st.floats(-14.0, -13.0), ANGLE)
    def test_rank_one_with_tiny_negative_eigenvalue(self, e, rel, angle):
        # The negative eigenvalue is 1e-14 to 1e-13 of the top one: far
        # above round-off, so both routes see it, and far inside the
        # 1e-10 acceptance floor.
        scale = 10.0 ** e
        m = planar_psd(scale, 1.0, angle, low=-(10.0 ** rel) * scale)
        got = sqrt_psd_batch(m[None])[0]
        ref = eigh_sqrt_batch(m[None])[0]
        assert np.abs(got - ref).max() <= 1e-12 * math.sqrt(scale)

    @ENVELOPE
    @given(SCALE_EXP, ANGLE)
    def test_clearly_negative_raises(self, e, angle):
        scale = 10.0 ** e
        low = -1e-8 * max(1.0, scale)
        m = planar_psd(scale, 1.0, angle, low=low)
        with pytest.raises(NotPositiveDefinite) as err:
            sqrt_psd_batch(np.stack([np.eye(2), m]))
        assert err.value.min_eigenvalue == pytest.approx(low, rel=1e-6)

    def test_reads_the_lower_triangle(self):
        m = np.array([[4.0, 100.0], [1.0, 3.0]])
        got = sqrt_psd_batch(m[None])
        np.testing.assert_allclose(got, eigh_sqrt_batch(m[None]),
                                   rtol=0.0, atol=1e-15)
        assert got[0, 0, 1] == got[0, 1, 0]

    def test_zero_matrix_maps_to_zero_without_warning(self):
        stack = np.stack([np.zeros((2, 2)), np.diag([4.0, 9.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sqrt_psd_batch(stack)
        np.testing.assert_array_equal(got[0], np.zeros((2, 2)))
        np.testing.assert_array_equal(got[1], np.diag([2.0, 3.0]))

    def test_empty_stack(self):
        assert sqrt_psd_batch(np.zeros((0, 2, 2))).shape == (0, 2, 2)


def eigh_reference(m):
    """Eigenpairs from np.linalg.eigh in sym_eigen's order: descending,
    ties in the solver's order."""
    w, v = np.linalg.eigh(m)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def check_planar_eigen(m):
    """The planar eigenpairs against eigh: eigenvalues and the
    reconstruction V diag(w) V^T within 1e-12 of the largest eigenvalue
    magnitude, columns orthonormal within 1e-14, values descending."""
    sym = SymMatrix(m)
    w, v = sym_eigen(sym)
    ref_w, _ = eigh_reference(sym.entries)
    top = np.abs(ref_w).max()
    assert np.abs(w - ref_w).max() <= 1e-12 * top
    assert np.abs((v * w) @ v.T - sym.entries).max() <= 1e-12 * top
    assert np.abs(v.T @ v - np.eye(2)).max() <= 1e-14
    assert w[0] >= w[1]


class TestPlanarSymEigen:
    """The 2 x 2 eigenpairs computed without LAPACK, over scales 1e-6 to
    1e6, condition numbers up to 1e12 and any angle."""

    @ENVELOPE
    @given(SCALE_EXP, st.floats(0.0, 12.0), ANGLE, st.booleans())
    def test_matches_eigh_reference(self, e, c, angle, indefinite):
        scale = 10.0 ** e
        low = scale / 10.0 ** c
        check_planar_eigen(planar_psd(scale, 1.0, angle,
                                      low=-low if indefinite else low))

    @ENVELOPE
    @given(SCALE_EXP, st.floats(-6.0, 6.0), st.booleans())
    def test_exactly_diagonal(self, e, ratio, swap):
        a, c = 10.0 ** e, 10.0 ** (e + ratio)
        m = np.diag([c, a] if swap else [a, c])
        check_planar_eigen(m)
        w, v = sym_eigen(SymMatrix(m))
        np.testing.assert_array_equal(w, sorted([a, c], reverse=True))
        assert set(np.abs(v).ravel()) == {0.0, 1.0}

    @ENVELOPE
    @given(SCALE_EXP, st.floats(-300.0, -6.0), st.booleans())
    def test_isotropic_with_tiny_off_diagonal(self, e, rel, negative):
        # Off-diagonals from 1e-6 of the diagonal down to far below the
        # negligible-entry test, including the exact identity multiple.
        scale = 10.0 ** e
        b = (-1.0 if negative else 1.0) * scale * 10.0 ** rel
        check_planar_eigen(np.array([[scale, b], [b, scale]]))

    @ENVELOPE
    @given(SCALE_EXP, st.floats(-1.0, 1.0), st.floats(-20.0, -8.0))
    def test_tiny_off_diagonal(self, e, ratio, rel):
        a, c = 10.0 ** e, 10.0 ** (e + ratio)
        b = a * 10.0 ** rel
        check_planar_eigen(np.array([[a, b], [b, c]]))

    def test_isotropic_keeps_the_solver_order(self):
        w, v = sym_eigen(SymMatrix(3.0 * np.eye(2)))
        np.testing.assert_array_equal(w, [3.0, 3.0])
        np.testing.assert_array_equal(v, np.eye(2))

    @pytest.mark.parametrize("scale", [1e-130, 1e150])
    def test_extreme_scales_take_eigh(self, scale):
        # Outside [1e-120, 1e140] LAPACK rescales before its 2 x 2 step,
        # so these matrices go to eigh itself.
        m = planar_psd(scale, 10.0, 0.3)
        check_planar_eigen(m)
        w, v = sym_eigen(SymMatrix(m))
        ref_w, ref_v = eigh_reference(SymMatrix(m).entries)
        np.testing.assert_array_equal(w, ref_w)
        np.testing.assert_array_equal(v, ref_v)


class TestPlanarCertify:
    @ENVELOPE
    @given(SCALE_EXP, st.floats(-6.0, 0.0), ANGLE)
    def test_rejects_clearly_indefinite(self, e, rel, angle):
        scale = 10.0 ** e
        low = -scale * 10.0 ** rel
        with pytest.raises(NotPositiveDefinite) as err:
            certify_spd(planar_psd(scale, 1.0, angle, low=low))
        assert err.value.min_eigenvalue == pytest.approx(low, rel=1e-6)

    @ENVELOPE
    @given(SCALE_EXP, st.floats(0.0, 12.0), ANGLE)
    def test_decides_like_eigh_away_from_the_floor(self, e, c, angle):
        m = SymMatrix(planar_psd(10.0 ** e, 10.0 ** c, angle)).entries
        ref_w, _ = eigh_reference(m)
        floor = pd_floor(ref_w)
        assume(abs(ref_w[-1] - floor) > 1e-6 * floor)
        try:
            certify_spd(m)
            accepted = True
        except NotPositiveDefinite:
            accepted = False
        assert accepted == (ref_w[-1] > floor)
