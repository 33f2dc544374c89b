"""Closed-form squared distances and optimal maps between family members.

Oracles: the diagonal case reduces to per-axis 1D formulas, and the 1D
optimal map is the affine quantile map sigma_q/sigma_p * (x - m_p) + m_q.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wcons import (AffineMap, DimensionMismatch, InvalidInput, LocScatter,
                   WeightedEnsemble, center_split, certify_spd, optimal_map,
                   similarity_pushforward, w2_distance_sq, w2_distances_sq)

from wcons.locscatter import _bures_sq, _planar_stack

from helpers import (ENVELOPE, gauss, gauss_1d, planar_psd, random_ensemble,
                     random_member, random_orthogonal)


def eigvalsh_bures_sq(center, means, covs):
    """The kernel's first pass alone: the cross term from the eigenvalues of
    S^{1/2} S_j S^{1/2}.  Returns the unclamped distances and the scale of
    the positivity check."""
    root = center.cov.sqrt()
    inner = root @ covs @ root
    inner = 0.5 * (inner + np.swapaxes(inner, -1, -2))
    w = np.linalg.eigvalsh(inner)
    cross = 2.0 * np.sqrt(np.maximum(w, 0.0)).sum(axis=1)
    gaps = ((means - center.mean) ** 2).sum(axis=1)
    traces = np.trace(covs, axis1=1, axis2=2) + center.cov.trace()
    return gaps + traces - cross, traces + gaps


def nuclear_bures_sq(center, means, covs):
    """One member at a time, the cross term as the nuclear norm of L^T L_j
    (Cholesky factors of S and S_j): singular values need no square root,
    so this route keeps its accuracy at any conditioning."""
    factor_t = np.linalg.cholesky(center.cov.entries).T
    out = []
    for m, c in zip(means, covs):
        sv = np.linalg.svd(factor_t @ np.linalg.cholesky(c),
                           compute_uv=False)
        out.append(((m - center.mean) ** 2).sum() + np.trace(c)
                   + center.cov.trace() - 2.0 * sv.sum())
    return np.maximum(out, 0.0)


class TestDistance:
    def test_identical_members_have_zero_distance(self):
        p = gauss([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        assert w2_distance_sq(p, p) <= 1e-12

    def test_equal_covariances_leave_mean_term(self):
        p = gauss([0.0, 0.0], np.eye(2))
        q = gauss([3.0, 4.0], np.eye(2))
        assert w2_distance_sq(p, q) == pytest.approx(25.0, abs=1e-10)

    def test_diagonal_case_sums_per_axis(self):
        # Per axis: (sigma_p - sigma_q)^2 plus the squared mean gap, so
        # 9 + (1-2)^2 + (2-3)^2 = 11.
        p = gauss([0.0, 0.0], np.diag([1.0, 4.0]))
        q = gauss([3.0, 0.0], np.diag([4.0, 9.0]))
        assert w2_distance_sq(p, q) == pytest.approx(11.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            w2_distance_sq(gauss_1d(0.0, 1.0), gauss([0.0, 0.0], np.eye(2)))

    def test_symmetry_on_random_pairs(self):
        gen = np.random.default_rng(21)
        for _ in range(50):
            dim = int(gen.integers(1, 8))
            p = random_member(gen, dim)
            q = random_member(gen, dim)
            a = w2_distance_sq(p, q)
            b = w2_distance_sq(q, p)
            scale = p.cov.trace() + q.cov.trace() + 1.0
            assert abs(a - b) <= 1e-10 * scale

    def test_triangle_inequality(self):
        gen = np.random.default_rng(22)
        for _ in range(200):
            dim = int(gen.integers(1, 6))
            p, q, r = (random_member(gen, dim) for _ in range(3))
            dpq = np.sqrt(w2_distance_sq(p, q))
            dqr = np.sqrt(w2_distance_sq(q, r))
            dpr = np.sqrt(w2_distance_sq(p, r))
            assert dpr <= dpq + dqr + 1e-8

    def test_similarity_invariance(self):
        gen = np.random.default_rng(23)
        for _ in range(30):
            dim = int(gen.integers(1, 6))
            p = random_member(gen, dim)
            q = random_member(gen, dim)
            c = float(gen.uniform(0.3, 3.0))
            rot = random_orthogonal(gen, dim)
            shift = gen.standard_normal(dim)
            tp = similarity_pushforward(p, c, rot, shift)
            tq = similarity_pushforward(q, c, rot, shift)
            base = w2_distance_sq(p, q)
            moved = w2_distance_sq(tp, tq)
            assert abs(moved - c * c * base) <= 1e-8 * max(c * c * base, 1.0)

    def test_commuting_covariances_sum_axiswise(self):
        gen = np.random.default_rng(24)
        for _ in range(20):
            dim = int(gen.integers(2, 6))
            rot = random_orthogonal(gen, dim)
            sp = gen.uniform(0.3, 3.0, size=dim)
            sq = gen.uniform(0.3, 3.0, size=dim)
            mp = gen.standard_normal(dim)
            mq = gen.standard_normal(dim)
            p = LocScatter(mp, certify_spd((rot * sp ** 2) @ rot.T))
            q = LocScatter(mq, certify_spd((rot * sq ** 2) @ rot.T))
            expect = float(np.sum((mp - mq) ** 2) + np.sum((sp - sq) ** 2))
            assert w2_distance_sq(p, q) == pytest.approx(expect, abs=1e-8)

    def test_batched_distances_match_loop(self):
        gen = np.random.default_rng(25)
        center = random_member(gen, 3)
        members = [random_member(gen, 3) for _ in range(7)]
        batch = w2_distances_sq(center, members)
        loop = [w2_distance_sq(center, m) for m in members]
        np.testing.assert_allclose(batch, loop, rtol=1e-10, atol=1e-12)

    def test_batched_distances_reject_other_dimension(self):
        gen = np.random.default_rng(27)
        members = [random_member(gen, 2), random_member(gen, 3)]
        with pytest.raises(DimensionMismatch):
            w2_distances_sq(random_member(gen, 2), members)
        with pytest.raises(DimensionMismatch):
            w2_distances_sq(random_member(gen, 3), members[:1])

    def test_batched_distances_empty(self):
        gen = np.random.default_rng(26)
        assert w2_distances_sq(random_member(gen, 2), []).shape == (0,)


    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_overflowing_distance_raises(self, dim):
        # No numpy overflow warning and no inf: the solvers' callers map
        # ArithmeticError to a solver failure.
        p = gauss([0.0] * dim, np.eye(dim))
        q = gauss([1e300] + [0.0] * (dim - 1), np.eye(dim))
        with pytest.raises(ArithmeticError, match="not finite"):
            w2_distance_sq(p, q)
        with pytest.raises(ArithmeticError, match="not finite"):
            w2_distances_sq(p, [p, q])


class TestPositivityRescue:
    def test_ill_conditioned_self_distances_are_rescued(self):
        # From each member of a d = 16 ensemble with condition numbers up
        # to 1e8, the eigenvalue pass errs on the member's own row, below
        # zero or above it: the square roots of the tiny eigenvalues of
        # S^2 amplify their round-off.  Rows within 1e-8 of their scale
        # of zero, or below it, are recomputed from the Cholesky factors
        # and come out at zero to 1e-14 of their scale; every other row
        # keeps its bits.
        ens = random_ensemble(np.random.default_rng(0), 20, 16,
                              condition_cap=1e8)
        means, covs = ens.means(), ens.covs()
        rescued = 0
        for i, center in enumerate(ens.members):
            first, scale = eigvalsh_bures_sq(center, means, covs)
            flagged = first <= 1e-8 * scale
            assert set(np.flatnonzero(flagged)) <= {i}
            got = w2_distances_sq(center, ens.members)
            np.testing.assert_array_equal(got[~flagged],
                                          np.maximum(first[~flagged], 0.0))
            if flagged[i]:
                assert 0.0 <= got[i] <= 1e-14 * scale[i]
                rescued += 1
        assert rescued >= 3

    @pytest.mark.parametrize("cap", [1e2, 1e4, 1e6, 1e8])
    @pytest.mark.parametrize("dim", [3, 8, 16])
    def test_self_distance_is_zero_to_round_off(self, dim, cap):
        # W2^2(p, p) through the general path, where the eigenvalue pass
        # alone left up to 2e-9 of scale at condition 1e8 and 3e-11 at 1e6
        # (100 seeds per cell); the rescue gives at most 8e-16.
        for seed in range(10):
            gen = np.random.default_rng([seed, dim, round(math.log10(cap))])
            p = random_member(gen, dim, 1.0, cap)
            got = _bures_sq(p, p.mean[None], p.cov.entries[None])[0]
            assert 0.0 <= got <= 1e-14 * 2.0 * p.cov.trace()


class TestGeneralDimensionKernel:
    """The eigenvalue pass off d = 2 against the nuclear-norm reference,
    within 1e-10 of the kernel's scale tr S + tr S_j + |m - m_j|^2, from
    every member of seeded ensembles, so each center's own row is
    covered.  A scan of 40 seeds per cell put the largest gap at 2.9e-11,
    at condition 1e6."""

    @pytest.mark.parametrize("cap", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("dim", [3, 5, 8, 16])
    def test_matches_nuclear_norm_reference(self, dim, cap):
        for seed in range(3):
            gen = np.random.default_rng([seed, dim, round(math.log10(cap))])
            ens = random_ensemble(gen, 20, dim, condition_cap=cap)
            means, covs = ens.means(), ens.covs()
            for center in ens.members:
                got = _bures_sq(center, means, covs)
                ref = nuclear_bures_sq(center, means, covs)
                scales = (np.trace(covs, axis1=1, axis2=2)
                          + center.cov.trace()
                          + ((means - center.mean) ** 2).sum(axis=1))
                assert np.all(np.abs(got - ref) <= 1e-10 * scales)


class TestPlanarClosedForm:
    """The planar cross term sqrt(tr(S S_j) + 2 sqrt(det S det S_j))
    against general-d references, within 1e-12 of the kernel's scale
    tr S + tr S_j + |m - m_j|^2."""

    @staticmethod
    def stack(e, c, seed, k=12):
        # Member scales within a decade of 10^e, condition numbers
        # log-uniform up to 10^c, member 0 the center itself.  The center
        # keeps to condition numbers certification admits at its scale.
        gen = np.random.default_rng(seed)
        scale = 10.0 ** e
        center_cap = min(10.0 ** c, 1e9 * scale / max(1.0, scale))
        covs = np.array([planar_psd(scale * 10.0 ** gen.uniform(-1.0, 1.0),
                                    10.0 ** gen.uniform(0.0, c),
                                    gen.uniform(0.0, math.pi))
                         for _ in range(k)])
        covs[0] = planar_psd(scale, 10.0 ** gen.uniform(
            0.0, math.log10(center_cap)), gen.uniform(0.0, math.pi))
        means = math.sqrt(scale) * gen.standard_normal((k, 2))
        center = LocScatter(means[0], certify_spd(covs[0]))
        scales = (np.trace(covs, axis1=1, axis2=2) + center.cov.trace()
                  + ((means - center.mean) ** 2).sum(axis=1))
        return center, means, covs, scales

    @ENVELOPE
    @given(st.floats(-6.0, 6.0), st.floats(0.0, 8.0),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_nuclear_norm_reference(self, e, c, seed):
        center, means, covs, scales = self.stack(e, c, seed)
        got = _bures_sq(center, means, covs)
        ref = nuclear_bures_sq(center, means, covs)
        assert np.all(np.abs(got - ref) <= 1e-12 * scales)

    @ENVELOPE
    @given(st.floats(-6.0, 6.0), st.floats(0.0, 4.0),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_eigenvalue_reference(self, e, c, seed):
        # The eigenvalue route takes square roots of the small eigenvalues
        # of S^{1/2} S_j S^{1/2}, and by condition 1e6 its own round-off
        # reaches 1e-11 of scale on the self row, so it serves as the
        # reference only up to condition 1e4.
        center, means, covs, scales = self.stack(e, c, seed)
        got = _bures_sq(center, means, covs)
        ref, _ = eigvalsh_bures_sq(center, means, covs)
        assert np.all(np.abs(got - np.maximum(ref, 0.0)) <= 1e-12 * scales)


def mixed_scale_ensemble(gen):
    """Eight near-isotropic planar members (condition up to about 3), seven
    at scale near 1e75 and one at 1e80 in a random place: det S det S_j
    overflows for the pairs that take in the large one, and for no other."""
    scales = 1e75 * 10.0 ** gen.uniform(-0.3, 0.3, size=8)
    scales[gen.integers(8)] = 1e80
    members = tuple(
        LocScatter(np.sqrt(s) * gen.standard_normal(2),
                   certify_spd(planar_psd(s, 10.0 ** gen.uniform(0.0, 0.5),
                                          gen.uniform(0.0, np.pi))))
        for s in scales)
    return WeightedEnsemble.equal_weights(members)


class TestRowIndependence:
    """A row of the kernel does not depend on which other members share the
    call: a trimmed solve reads its kept atoms' distances, and its
    variance, from its distances to every atom."""

    @staticmethod
    def assert_kept_rows_unchanged(gen, ens):
        # The center is a member that stays kept, so its own row takes the
        # Cholesky pass off d = 2.  At d = 2 the kept rows are also read
        # as a solve reads them: keeping the whole stack's determinant
        # bound.
        means, covs, k = ens.means(), ens.covs(), ens.size
        own = int(gen.integers(k))
        kept = gen.random(k) < 0.8
        kept[own] = True
        center = ens.members[own]
        planar = _planar_stack(covs)
        full = _bures_sq(center, means, covs, planar)
        part = _bures_sq(center, means[kept], covs[kept],
                         _planar_stack(covs[kept]))
        assert full[kept].tobytes() == part.tobytes()
        if planar is not None:
            rows = tuple(x[kept] for x in planar[:3]) + planar[3:]
            part = _bures_sq(center, means[kept], covs[kept], rows)
            assert full[kept].tobytes() == part.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_masked_subset_is_the_full_call(self, dim):
        gen = np.random.default_rng(310 + dim)
        for cap in (1e2, 1e4, 1e6):
            for _ in range(8):
                k = int(gen.integers(5, 120))
                self.assert_kept_rows_unchanged(
                    gen, random_ensemble(gen, k, dim, condition_cap=cap))
        if dim == 2:
            # Some rows of a call overflow det S det S_j, others do not.
            for _ in range(40):
                self.assert_kept_rows_unchanged(gen, mixed_scale_ensemble(gen))


class TestOptimalMap:
    def test_from_standard_normal_linear_part_is_root(self):
        gen = np.random.default_rng(27)
        a = gen.standard_normal((3, 3))
        sigma = certify_spd(a @ a.T + 3.0 * np.eye(3))
        p = gauss([0.0, 0.0, 0.0], np.eye(3))
        q = LocScatter(np.array([1.0, -2.0, 0.5]), sigma)
        m = optimal_map(p, q)
        np.testing.assert_allclose(m.matrix.entries, sigma.sqrt(), atol=1e-10)

    def test_identity_when_source_equals_target(self):
        p = gauss([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
        m = optimal_map(p, p)
        np.testing.assert_allclose(m.matrix.entries, np.eye(2), atol=1e-10)
        x = np.array([0.3, -0.7])
        np.testing.assert_allclose(m.apply(x), x, atol=1e-10)

    def test_one_dimensional_map(self):
        m = optimal_map(gauss_1d(0.0, 1.0), gauss_1d(2.0, 3.0))
        assert m.matrix.entries[0, 0] == pytest.approx(3.0, abs=1e-12)
        assert m.apply(np.array([1.0]))[0] == pytest.approx(5.0, abs=1e-12)

    def test_source_mean_lands_on_target_mean(self):
        gen = np.random.default_rng(28)
        for _ in range(10):
            p = random_member(gen, 4)
            q = random_member(gen, 4)
            m = optimal_map(p, q)
            np.testing.assert_array_equal(m.apply(p.mean), q.mean)

    def test_pushforward_moment_identity(self):
        gen = np.random.default_rng(29)
        for _ in range(30):
            dim = int(gen.integers(1, 7))
            p = random_member(gen, dim)
            q = random_member(gen, dim)
            a = optimal_map(p, q).matrix.entries
            pushed = a @ p.cov.entries @ a
            err = np.linalg.norm(pushed - q.cov.entries)
            assert err <= 1e-8 * np.linalg.norm(q.cov.entries)

    def test_batch_application(self):
        m = AffineMap(matrix=certify_spd(np.diag([2.0, 3.0])),
                      source_mean=np.array([1.0, 1.0]),
                      target_mean=np.array([0.0, 0.0]))
        pts = np.array([[1.0, 1.0], [2.0, 1.0]])
        np.testing.assert_allclose(m.apply(pts), [[0.0, 0.0], [2.0, 0.0]],
                                   atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            optimal_map(gauss_1d(0.0, 1.0), gauss([0.0, 0.0], np.eye(2)))
        # Points of another dimension used to end in a numpy broadcast.
        m = optimal_map(gauss([0.0, 0.0], np.eye(2)),
                        gauss([1.0, 0.0], np.eye(2)))
        for x in (np.zeros(3), np.zeros((4, 3)), 1.0, np.zeros((1, 1, 2))):
            with pytest.raises(DimensionMismatch, match="dimension 2"):
                m.apply(x)


class TestCenterSplit:
    def test_removes_mean(self):
        p = gauss([3.0, -1.0], [[2.0, 0.2], [0.2, 1.0]])
        mean, centered = center_split(p)
        np.testing.assert_array_equal(mean, p.mean)
        np.testing.assert_array_equal(centered.mean, np.zeros(2))
        np.testing.assert_array_equal(centered.cov.entries, p.cov.entries)

    def test_centered_member_unchanged(self):
        p = gauss([0.0, 0.0], np.eye(2))
        mean, centered = center_split(p)
        np.testing.assert_array_equal(mean, np.zeros(2))
        np.testing.assert_array_equal(centered.cov.entries, p.cov.entries)

    def test_distance_decomposes(self):
        gen = np.random.default_rng(31)
        for _ in range(50):
            dim = int(gen.integers(1, 7))
            p = random_member(gen, dim)
            q = random_member(gen, dim)
            mean_gap = float(np.sum((p.mean - q.mean) ** 2))
            centered = w2_distance_sq(center_split(p)[1], center_split(q)[1])
            total = w2_distance_sq(p, q)
            assert abs(total - (mean_gap + centered)) <= 1e-10 * (total + 1.0)


class TestSimilarityPushforward:
    def test_moment_formulas(self):
        gen = np.random.default_rng(32)
        p = random_member(gen, 3)
        c = 1.7
        rot = random_orthogonal(gen, 3)
        shift = np.array([1.0, 0.0, -2.0])
        out = similarity_pushforward(p, c, rot, shift)
        np.testing.assert_allclose(out.mean, c * rot @ p.mean + shift,
                                   atol=1e-12)
        np.testing.assert_allclose(out.cov.entries,
                                   c * c * rot @ p.cov.entries @ rot.T,
                                   atol=1e-12)

    def test_rejects_nonpositive_scale(self):
        p = gauss([0.0], [[1.0]])
        for scale in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidInput, match="similarity scale"):
                similarity_pushforward(p, scale, np.eye(1), np.zeros(1))
        # Finite scales whose square overflows (1e160 and past) used to
        # warn about inf * 0 before certification failed.
        planar = gauss([1.0, -2.0], np.eye(2))
        for scale in (1e160, 1e300):
            with pytest.raises(InvalidInput, match="similarity scale"):
                similarity_pushforward(planar, scale, np.eye(2), np.zeros(2))

    def test_rejects_wrong_shapes(self):
        # A (3, 3) rotation used to fail inside matmul, a (3,) shift in a
        # broadcast, and a scalar shift was broadcast silently.
        p = gauss([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
        for rot, shift in ((np.eye(3), np.zeros(2)), (np.eye(2), np.zeros(3)),
                           (np.eye(2), 1.0), (np.eye(2)[0], np.zeros(2))):
            with pytest.raises(DimensionMismatch, match="rotation"):
                similarity_pushforward(p, 1.0, rot, shift)

    def test_rejects_a_non_finite_shift(self):
        # A NaN shift used to be reported as a non-finite mean.
        p = gauss([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
        for shift in ([np.nan, 0.0], [0.0, np.inf]):
            with pytest.raises(InvalidInput, match="shift"):
                similarity_pushforward(p, 1.0, np.eye(2), np.array(shift))

    def test_rejects_a_rotation_that_is_not_orthogonal(self):
        p = gauss([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
        near = np.array([[1.0, 1e-9], [0.0, 1.0]])
        for rot in (3.0 * np.eye(2), near, np.full((2, 2), np.nan),
                    1e200 * np.eye(2)):
            with pytest.raises(InvalidInput, match="orthogonal"):
                similarity_pushforward(p, 1.0, rot, np.zeros(2))

    def test_reflection_and_round_off_are_accepted(self):
        p = gauss([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
        c, s = math.cos(0.7), math.sin(0.7)
        rot = np.array([[c, s], [s, -c]])
        out = similarity_pushforward(p, 2.0, rot, np.array([0.5, 0.0]))
        np.testing.assert_allclose(out.mean, 2.0 * rot @ p.mean + [0.5, 0.0],
                                   atol=1e-12)
        np.testing.assert_allclose(out.cov.entries,
                                   4.0 * rot @ p.cov.entries @ rot.T,
                                   atol=1e-12)
        near = np.eye(2) + 1e-12
        similarity_pushforward(p, 1.0, near, np.zeros(2))


class TestLocScatterValidation:
    def test_mean_must_be_vector(self):
        with pytest.raises(InvalidInput):
            LocScatter(np.zeros((2, 2)), certify_spd(np.eye(2)))
        for mean in ("ab", ["a", "b"], [[0.0], [0.0, 1.0]], [10 ** 400, 0]):
            with pytest.raises(InvalidInput, match="numeric"):
                LocScatter(mean, certify_spd(np.eye(2)))

    def test_mean_must_be_finite(self):
        with pytest.raises(InvalidInput):
            LocScatter(np.array([np.nan, 0.0]), certify_spd(np.eye(2)))

    def test_dimensions_must_agree(self):
        with pytest.raises(DimensionMismatch):
            LocScatter(np.zeros(3), certify_spd(np.eye(2)))

    def test_mean_is_read_only(self):
        p = gauss([1.0, 2.0], np.eye(2))
        with pytest.raises(ValueError):
            p.mean[0] = 9.0
