"""Symmetric eigensolver wrapper, certified matrices and fractional powers.

Analytic oracles: 2x2 eigenpairs from the characteristic polynomial,
diagonal matrices, and hand-expanded square roots.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wcons import (InvalidInput, NotPositiveDefinite, SymMatrix, certify_spd,
                   spd_exp, spd_log, spd_power, sym_eigen)
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
    def test_identity(self):
        m = certify_spd(np.eye(4))
        np.testing.assert_allclose(spd_power(m, 0.5).entries, np.eye(4),
                                   atol=1e-14)

    def test_diagonal(self):
        m = certify_spd(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(spd_power(m, 0.5).entries,
                                   np.diag([2.0, 3.0]), atol=1e-12)

    def test_two_by_two_analytic(self):
        # sqrt applied to the eigenvalues 3 and 1 of [[2,1],[1,2]] gives
        # [[(r3+1)/2, (r3-1)/2], [(r3-1)/2, (r3+1)/2]] with r3 = sqrt(3).
        r3 = math.sqrt(3.0)
        expect = 0.5 * np.array([[r3 + 1.0, r3 - 1.0], [r3 - 1.0, r3 + 1.0]])
        m = certify_spd([[2.0, 1.0], [1.0, 2.0]])
        root = spd_power(m, 0.5)
        np.testing.assert_allclose(root.entries, expect, atol=1e-12)
        np.testing.assert_allclose(root.entries[0, 0], 1.3660, atol=1e-4)
        np.testing.assert_allclose(root.entries[0, 1], 0.3660, atol=1e-4)

    def test_square_reconstructs(self):
        gen = np.random.default_rng(12)
        for _ in range(30):
            dim = int(gen.integers(1, 11))
            a = gen.standard_normal((dim, dim))
            m = certify_spd(a @ a.T + dim * np.eye(dim))
            root = spd_power(m, 0.5).entries
            err = np.linalg.norm(root @ root - m.entries)
            assert err <= 1e-10 * np.linalg.norm(m.entries)

    def test_negative_power_is_inverse_root(self):
        gen = np.random.default_rng(13)
        for _ in range(10):
            a = gen.standard_normal((4, 4))
            m = certify_spd(a @ a.T + 4.0 * np.eye(4))
            prod = spd_power(m, -0.5).entries @ spd_power(m, 0.5).entries
            np.testing.assert_allclose(prod, np.eye(4), atol=1e-10)

    def test_unsupported_power_rejected(self):
        m = certify_spd(np.eye(2))
        for p in (1.0, 2.0, 0.25, -1.0):
            with pytest.raises(InvalidInput):
                spd_power(m, p)

    def test_commutes_with_orthogonal_conjugation(self):
        gen = np.random.default_rng(14)
        for _ in range(10):
            dim = int(gen.integers(2, 7))
            a = gen.standard_normal((dim, dim))
            m = certify_spd(a @ a.T + dim * np.eye(dim))
            q = random_orthogonal(gen, dim)
            conjugated = certify_spd(q @ m.entries @ q.T)
            left = spd_power(conjugated, 0.5).entries
            right = q @ spd_power(m, 0.5).entries @ q.T
            assert np.linalg.norm(left - right) <= 1e-10 * np.linalg.norm(left)

    def test_diagonal_stays_diagonal(self):
        gen = np.random.default_rng(15)
        for _ in range(10):
            d = gen.uniform(0.1, 10.0, size=5)
            m = certify_spd(np.diag(d))
            root = spd_power(m, 0.5).entries
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
            expect = spd_power(certify_spd(m), 0.5).entries
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
    """The closed form (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M))
    against the eigenvalue route, within 1e-12 of sqrt(largest eig)."""

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
