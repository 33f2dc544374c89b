"""Seeded harnesses: random scatter generation, the concentration-step
estimator, the contaminated-units study, the growing-ensemble check and
the packaged planar toy ensemble.

splitmix64 reference values are the published first outputs for seeds 0
and 1234567.
"""

import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from wcons import (InvalidInput, LocScatter, RngState, SingularSubset,
                   certify_spd, fixed_point_barycenter, w2_distance_sq)
from wcons import simulation
from wcons.rng import splitmix64
from wcons.simulation import (HospitalConfig, _c_step_paths,
                              _hospital_units, _mcd_fits, _planar_haar,
                              c_step_path,
                              consistency_harness, ellipse_points,
                              ellipse_toy_ensemble, estimate_mcd,
                              gaussian_parameter_law, hospital_experiment,
                              mcd_consistency_factor, random_spd)
from wcons.trimming import TrimConfig, trimmed_barycenter
from wcons.univariate import gaussian_quantiles

from helpers import ENVELOPE


def reference_c_step_path(points, h, mean, cov, max_steps=100):
    """One concentration path at a time, in plain numpy calls: the loop the
    batched kernel must reproduce bit for bit."""
    support_prev = None
    history = []
    for _ in range(max_steps):
        delta = points - mean
        try:
            sol = np.linalg.solve(cov, delta.T)
        except np.linalg.LinAlgError:
            raise SingularSubset("singular start")
        md = np.einsum("ij,ji->i", delta, sol)
        support = np.sort(np.argsort(md, kind="stable")[:h])
        if support_prev is not None and np.array_equal(support, support_prev):
            break
        sub = points[support]
        mean = sub.mean(axis=0)
        centered = sub - mean
        cov = centered.T @ centered / h
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            raise SingularSubset("singular refit")
        history.append(float(logdet))
        support_prev = support
    return mean, cov, support_prev, history


def reference_estimate_mcd(points, h, restarts, gen):
    """Draw one start subset at a time and run its path to the end.

    Returns the winning ``(mean, cov)`` and the number of failed starts.
    """
    n, d = points.shape
    best, failures, completed = None, 0, 0
    while completed < restarts:
        subset = gen.choice(n, size=d + 1, replace=False)
        start = points[subset]
        mean0 = start.mean(axis=0)
        centered = start - mean0
        cov0 = centered.T @ centered / (d + 1)
        try:
            mean, cov, _, history = reference_c_step_path(points, h, mean0,
                                                          cov0)
        except SingularSubset:
            failures += 1
            continue
        completed += 1
        if best is None or history[-1] < best[0]:
            best = (history[-1], mean, cov)
    return best[1], best[2], failures


def duplicated_cloud(seed, n=30, copies=15):
    """A planar cloud whose first ``copies`` points coincide, so that some
    (d+1)-point starts are exactly singular."""
    pts = RngState(seed).generator().standard_normal((n, 2))
    pts[:copies] = pts[0]
    return pts


class TestRngState:
    def test_splitmix_reference_values(self):
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1234567) == 6457827717110365317

    def test_split_is_deterministic(self):
        assert RngState(42).split(7).seed == RngState(42).split(7).seed
        assert RngState(42).split(7).seed != RngState(42).split(8).seed

    def test_adjacent_roots_do_not_share_streams(self):
        # Without mixing the root first, seed 0 task 1 and seed 1 task 0
        # would collide through the XOR.
        seen = set()
        for root in range(4):
            for task in range(4):
                seen.add(RngState(root).split(task).seed)
        assert len(seen) == 16

    def test_generator_reproducible(self):
        a = RngState(5).generator().random(4)
        b = RngState(5).generator().random(4)
        np.testing.assert_array_equal(a, b)

    def test_seed_wraps_to_64_bits(self):
        assert RngState(2 ** 64 + 3).seed == 3

    def test_negative_split_index_rejected(self):
        with pytest.raises(ValueError):
            RngState(0).split(-1)

    @pytest.mark.parametrize("index", [2.5, 2.0, "2", None, -1, np.int64(-3),
                                       True])
    def test_split_index_must_be_a_nonnegative_integer(self, index):
        with pytest.raises(InvalidInput, match="split index"):
            RngState(0).split(index)

    def test_numpy_integer_split_index_is_its_value(self):
        for index in (np.int32(2), np.int64(2), np.uint64(2)):
            assert RngState(0).split(index) == RngState(0).split(2)

    def test_algorithm_tag(self):
        assert RngState(0).algorithm == "pcg64-splitmix64"

    @pytest.mark.parametrize("seed", [0.9, 2.5, "x", float("nan"), True,
                                      False])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(InvalidInput, match="seed must be an integer"):
            RngState(seed)

    def test_numpy_integer_seeds_are_accepted(self):
        for seed in (np.int32(12), np.int64(12), np.uint64(12)):
            state = RngState(seed)
            assert state.seed == 12 and type(state.seed) is int
        assert RngState(np.int64(-1)).seed == 2 ** 64 - 1


class TestRandomSpd:
    def test_unit_condition_cap_gives_identity(self):
        gen = RngState(1).generator()
        m = random_spd(3, 1.0, gen)
        np.testing.assert_allclose(m.entries, np.eye(3), atol=1e-12)

    def test_condition_number_bounded(self):
        gen = RngState(2).generator()
        for _ in range(1000):
            dim = int(gen.integers(1, 7))
            cap = float(gen.uniform(1.0, 1e4))
            m = random_spd(dim, cap, gen)
            w = np.linalg.eigvalsh(m.entries)
            assert w[-1] / w[0] <= cap * (1.0 + 1e-9)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_largest_cap_certifies(self, dim):
        # At 1e10 the spectrum still clears the positivity floor; at 1e12
        # some of these draws did not.
        for seed in range(200):
            random_spd(dim, 1e10, np.random.default_rng(seed))

    def test_rejects_bad_arguments(self):
        gen = RngState(3).generator()
        with pytest.raises(InvalidInput):
            random_spd(0, 2.0, gen)
        with pytest.raises(InvalidInput):
            random_spd(2, 0.5, gen)

    def test_rejects_non_integer_dimension(self):
        # Used to reach numpy's size argument and raise TypeError.
        with pytest.raises(InvalidInput, match="must be an integer"):
            random_spd(2.0, 4.0, RngState(3).generator())

    @pytest.mark.parametrize("cap", [math.inf, math.nan, True, 1e12])
    def test_rejects_non_finite_cap(self, cap):
        # Used to raise OverflowError from the uniform draw.
        with pytest.raises(InvalidInput, match="finite"):
            random_spd(2, cap, RngState(3).generator())

    def test_rejects_rng_state(self):
        with pytest.raises(InvalidInput, match="numpy Generator"):
            random_spd(2, 4.0, RngState(11))

    def test_rejects_plain_seed(self):
        with pytest.raises(InvalidInput):
            random_spd(2, 4.0, 123)


def qr_haar(x):
    """Q of np.linalg.qr with the sign fix diag(R) >= 0."""
    q, r = np.linalg.qr(x)
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


class TestPlanarHaar:
    """The closed-form 2 x 2 Haar factor of ``random_spd``."""

    @ENVELOPE
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-6.0, 6.0))
    def test_orthogonal_with_nonnegative_r_diagonal(self, seed, e):
        x = 10.0 ** e * np.random.default_rng(seed).standard_normal((2, 2))
        q = _planar_haar(x)
        np.testing.assert_allclose(q.T @ q, np.eye(2), rtol=0.0, atol=1e-15)
        r = q.T @ x
        norm = np.abs(x).max()
        assert abs(r[1, 0]) <= 1e-15 * norm
        assert r[0, 0] > 0.0 and r[1, 1] >= -1e-15 * norm

    @ENVELOPE
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-6.0, 6.0))
    def test_matches_qr_with_sign_fix(self, seed, e):
        x = 10.0 ** e * np.random.default_rng(seed).standard_normal((2, 2))
        # The sign of R's second diagonal entry is that of det x; keep
        # it clear of round-off so both routes agree on it.
        assume(abs(np.linalg.det(x)) > 1e-8 * np.abs(x).max() ** 2)
        np.testing.assert_allclose(_planar_haar(x), qr_haar(x), rtol=0.0,
                                   atol=1e-15)

    def test_zero_determinant_takes_positive_sign(self):
        x = np.array([[3.0, 6.0], [4.0, 8.0]])
        np.testing.assert_array_equal(
            _planar_haar(x), np.array([[0.6, -0.8], [0.8, 0.6]]))

    def test_zero_first_column_falls_back(self):
        assert _planar_haar(np.array([[0.0, 1.0], [0.0, 2.0]])) is None

    def test_draw_matches_the_qr_construction(self):
        # The random stream is as before: the same uniform and normal
        # draws, with only the factorization replaced.
        for seed in range(20):
            gen, ref_gen = (np.random.default_rng(seed) for _ in range(2))
            got = random_spd(2, 1e4, gen)
            half = 0.5 * np.log(1e4)
            eigs = np.exp(ref_gen.uniform(-half, half, size=2))
            q = qr_haar(ref_gen.standard_normal((2, 2)))
            ref = (q * eigs) @ q.T
            np.testing.assert_allclose(got.entries, 0.5 * (ref + ref.T),
                                       rtol=0.0, atol=1e-14 * eigs.max())
            assert gen.bit_generator.state == ref_gen.bit_generator.state


# mcd_consistency_factor(c, d) for the coverages below, computed once with
# scipy 1.17.1 as chi2.cdf(chi2.ppf(c, d), d + 2) / c before the package
# stopped depending on scipy.
FACTOR_COVERAGES = (0.05, 0.25, 0.5, 0.75, 0.8, 0.9, 0.95, 0.99)
FACTOR_TABLE = {
    1: (0.0013100262742689833, 0.03338775338359955,
        0.14265183548851845, 0.3685240509835625,
        0.4377245949036396, 0.6230154841346819,
        0.7588416170698973, 0.9247558993726854),
    2: (0.025427406636539876, 0.13695378264465724,
        0.3068528194400549, 0.537901879626703,
        0.5976405218914748, 0.7441572118895506,
        0.8423298803392634, 0.9534831294344637),
    3: (0.06894387666373794, 0.2253225359901879,
        0.40693947031039235, 0.6214335475664503,
        0.6735492822058815, 0.7971993923878874,
        0.8771091946780276, 0.9646917493822823),
    4: (0.11486557516383535, 0.2932747161235143,
        0.474144196140833, 0.6727593515575516,
        0.7194169272242151, 0.828098286083815,
        0.8968957017811584, 0.9708622709133778),
    5: (0.15742805183664293, 0.3464566285464929,
        0.5229556457249017, 0.7081796576626381,
        0.7507566261686252, 0.8487453827858352,
        0.9099227681466951, 0.9748391080515669),
    6: (0.19549596363039212, 0.3892618979303005,
        0.5603949198685169, 0.7344353094003848,
        0.7738296564095228, 0.863712847733243,
        0.9192675439251066, 0.9776479621701144),
    7: (0.22927700445973576, 0.42459052237410494,
        0.5902580987046684, 0.7548636877773239,
        0.7916913209536577, 0.8751660386012794,
        0.926361183004559, 0.9797546885349032),
    8: (0.25930079691762586, 0.45436220338901256,
        0.6147856448216727, 0.7713241553575192,
        0.8060269848087406, 0.884274648776564,
        0.9319667617393586, 0.9814033574231762),
    9: (0.2861155591455638, 0.47988476360522275,
        0.6353921186248961, 0.784943015448469,
        0.8178500464088906, 0.8917309777292998,
        0.9365314084139086, 0.9827350239629971),
    10: (0.3102056184701273, 0.5020776091775806,
        0.6530189367798627, 0.7964465369680479,
        0.8278102125043522, 0.8979733494133169,
        0.9403359419682789, 0.9838372830026686),
}


class TestConsistencyFactor:
    def test_two_dimensional_closed_form(self):
        # For d = 2 the chi-square quantile and CDF are elementary:
        # q = -2 log(1 - c) and F_4(q) = 1 - exp(-q/2) (1 + q/2).
        c = 0.8
        q = -2.0 * math.log(1.0 - c)
        expect = (1.0 - math.exp(-q / 2.0) * (1.0 + q / 2.0)) / c
        assert mcd_consistency_factor(0.8, 2) == pytest.approx(expect,
                                                               abs=1e-12)
        assert mcd_consistency_factor(0.8, 2) == pytest.approx(0.59764,
                                                               abs=1e-5)

    def test_monotone_in_coverage(self):
        assert (mcd_consistency_factor(0.99, 2)
                > mcd_consistency_factor(0.5, 2))

    def test_below_one(self):
        for cov in (0.5, 0.8, 0.95):
            for dim in (1, 2, 5):
                assert 0.0 < mcd_consistency_factor(cov, dim) < 1.0

    @pytest.mark.parametrize("dim", sorted(FACTOR_TABLE))
    def test_matches_pinned_reference_values(self, dim):
        for cov, expect in zip(FACTOR_COVERAGES, FACTOR_TABLE[dim]):
            assert mcd_consistency_factor(cov, dim) == pytest.approx(
                expect, rel=1e-13, abs=0.0)

    def test_full_coverage_is_exactly_one(self):
        for dim in (1, 2, 5):
            assert mcd_consistency_factor(1.0, dim) == 1.0

    def test_argument_validation(self):
        for cov, dim in ((0.0, 2), (1.5, 2), (float("nan"), 2), (0.8, 0),
                         (0.8, 2.5)):
            with pytest.raises(InvalidInput):
                mcd_consistency_factor(cov, dim)


class TestCStepPath:
    def test_full_coverage_is_maximum_likelihood_fit(self):
        gen = RngState(4).generator()
        pts = gen.standard_normal((50, 3))
        mean0 = np.zeros(3)
        mean, cov, support, history = c_step_path(pts, 50, mean0, np.eye(3))
        np.testing.assert_array_equal(support, np.arange(50))
        np.testing.assert_allclose(mean, pts.mean(axis=0), atol=1e-12)
        centered = pts - pts.mean(axis=0)
        np.testing.assert_allclose(cov, centered.T @ centered / 50,
                                   atol=1e-12)
        assert len(history) == 1

    def test_logdet_history_nonincreasing(self):
        gen = RngState(5).generator()
        for _ in range(20):
            pts = np.vstack([gen.standard_normal((60, 2)),
                             np.array([6.0, 6.0])
                             + 0.5 * gen.standard_normal((15, 2))])
            sub = gen.choice(75, size=3, replace=False)
            mean0 = pts[sub].mean(axis=0)
            centered = pts[sub] - mean0
            cov0 = centered.T @ centered / 3 + 1e-6 * np.eye(2)
            _, _, _, history = c_step_path(pts, 50, mean0, cov0)
            assert np.all(np.diff(history) <= 1e-12)

    def test_singular_start_raises(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularSubset):
            c_step_path(pts, 3, np.zeros(2), np.zeros((2, 2)))

    def test_support_size_validated(self):
        pts = RngState(4).generator().standard_normal((10, 2))
        for h in (0, 11):
            with pytest.raises(InvalidInput):
                c_step_path(pts, h, np.zeros(2), np.eye(2))
        with pytest.raises(InvalidInput):
            c_step_path(pts[0], 1, np.zeros(2), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        pts = RngState(4).generator().standard_normal((10, 2))
        mean, cov = np.zeros(2), np.eye(2)
        pts[3, 1] = bad
        with pytest.raises(InvalidInput, match="points"):
            c_step_path(pts, 8, mean, cov)
        pts[3, 1] = 0.0
        with pytest.raises(InvalidInput, match="mean"):
            c_step_path(pts, 8, np.array([0.0, bad]), cov)
        with pytest.raises(InvalidInput, match="cov"):
            c_step_path(pts, 8, mean, np.array([[1.0, bad], [bad, 1.0]]))

    @pytest.mark.parametrize("mean, cov", [
        (np.zeros(1), np.eye(2)),
        (np.zeros(2), np.eye(1)),
        (np.zeros(2), np.eye(3)),
        (np.zeros((1, 2)), np.eye(2)),
        (np.zeros(2), np.stack([np.eye(2)] * 2)),
    ])
    def test_start_shape_checked(self, mean, cov, monkeypatch):
        # A start that does not fit the points is rejected before any
        # concentration step runs.
        monkeypatch.setattr(simulation, "_c_step_paths", None)
        pts = RngState(4).generator().standard_normal((20, 2))
        with pytest.raises(InvalidInput,
                           match=r"\(2,\) mean and a \(2, 2\) cov"):
            c_step_path(pts, 15, mean, cov)


def start_fits(starts):
    """Mean and maximum-likelihood covariance of each ``(b, m, d)`` start
    stack."""
    means = starts.mean(axis=1)
    centered = starts - means[:, None, :]
    return means, np.swapaxes(centered, 1, 2) @ centered / starts.shape[1]


def random_starts(gen, clouds, owner):
    """Fits of one random (d+1)-point subset of each path's cloud."""
    n, d = clouds.shape[1:]
    subsets = np.array([gen.choice(n, d + 1, replace=False) for _ in owner])
    return start_fits(clouds[owner[:, None], subsets])


def assert_batch_matches_reference(clouds, owner, h, means, covs):
    """Run one batch of paths and compare every path with the one-path
    reference loop, bit for bit; returns the batch's outputs."""
    out = _c_step_paths(clouds, owner, h, means, covs)
    out_means, out_covs, supports, history, steps, failed = out
    for i in range(owner.size):
        try:
            ref = reference_c_step_path(clouds[owner[i]], h, means[i],
                                        covs[i])
        except SingularSubset:
            assert failed[i]
            continue
        assert not failed[i]
        got = (out_means[i], out_covs[i], supports[i],
               history[i, :steps[i]].tolist())
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)
    return out


class TestCStepKernel:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_integer_grid_ties(self, dim):
        # Points of a 5^d integer grid repeat many times, so exact ties
        # fall across the support edge; the support keeps the earliest
        # tied indices, as a stable sort of the distances does.
        gen = RngState(40 + dim).generator()
        clouds = gen.integers(-2, 3, (8, 60, dim)).astype(float)
        owner = np.repeat(np.arange(8), 4)
        means, covs = random_starts(gen, clouds, owner)
        for h in (30, 45, 59):
            *_, steps, failed = assert_batch_matches_reference(
                clouds, owner, h, means, covs)
            assert steps[~failed].max() >= 2

    @pytest.mark.parametrize("dim", [2, 3])
    def test_support_of_d_plus_one_and_of_every_point(self, dim):
        gen = RngState(50 + dim).generator()
        clouds = gen.standard_normal((5, 40, dim))
        owner = np.repeat(np.arange(5), 3)
        means, covs = random_starts(gen, clouds, owner)
        assert_batch_matches_reference(clouds, owner, dim + 1, means, covs)
        *_, supports, _, steps, failed = assert_batch_matches_reference(
            clouds, owner, 40, means, covs)
        assert not failed.any()
        np.testing.assert_array_equal(steps, 1)
        np.testing.assert_array_equal(supports,
                                      np.tile(np.arange(40), (15, 1)))

    def test_solve_rows_beside_closed_form_rows(self):
        # Clouds 3-5 lie within 1e-5 of a line, so every fit on them has
        # condition number past 1e6 and ranks by the solve; the paths on
        # clouds 0-2 rank by the closed form in the same steps.
        gen = RngState(61).generator()
        clouds = gen.standard_normal((6, 80, 2))
        t = clouds[3:, :, 0]
        clouds[3:, :, 1] = 0.5 * t + 1e-5 * clouds[3:, :, 1]
        owner = np.tile(np.arange(6), 4)
        means, covs = random_starts(gen, clouds, owner)
        _, out_covs, _, _, steps, failed = assert_batch_matches_reference(
            clouds, owner, 60, means, covs)
        flat = owner >= 3
        tr = np.trace(out_covs, axis1=1, axis2=2)
        solved = np.linalg.det(out_covs) <= 1e-6 * tr ** 2
        assert not failed.any()
        np.testing.assert_array_equal(solved, flat)
        assert steps[flat].min() >= 2 and steps[~flat].min() >= 2

    @pytest.mark.parametrize("scale", [1e70, 1e150, 1e-70, 1e-150])
    def test_huge_and_tiny_clouds(self, scale):
        # The closed form scales the distance by the determinant, about
        # scale^4: past 1e77 it overflows, and past 1e-77 the conditioning
        # test underflows to 0 <= 0; either way those rows take the solve.
        gen = RngState(62).generator()
        clouds = scale * gen.standard_normal((4, 50, 2))
        owner = np.repeat(np.arange(4), 3)
        means, covs = random_starts(gen, clouds, owner)
        *_, failed = assert_batch_matches_reference(clouds, owner, 35,
                                                    means, covs)
        assert not failed.any()

    def test_overflowing_distances_beyond_the_edge(self):
        # Five far points per cloud have distances that overflow to inf,
        # or NaN (inf - inf), in both routes; they rank last either way.
        gen = RngState(63).generator()
        clouds = gen.standard_normal((4, 50, 2))
        clouds[:, -5:] = 1e200 * np.sign(gen.standard_normal((4, 5, 2)))
        owner = np.repeat(np.arange(4), 3)
        means = 0.2 * gen.standard_normal((owner.size, 2))
        covs = np.array([random_spd(2, 10.0, gen).entries
                         for _ in range(owner.size)])
        with np.errstate(over="ignore", invalid="ignore"):
            *_, supports, _, _, failed = assert_batch_matches_reference(
                clouds, owner, 40, means, covs)
        assert not failed.any() and supports.max() < 45

    def test_batch_down_to_one_live_path(self):
        # Paths that start at their cloud's own full fit repeat at once;
        # one path from a far start keeps stepping on its own.
        gen = RngState(64).generator()
        clouds = gen.standard_normal((3, 60, 2))
        clouds[2, :20] += 6.0
        means, covs = start_fits(clouds)
        owner = np.array([0, 1, 2, 2])
        means = np.vstack([means, [[6.0, 6.0]]])
        covs = np.vstack([covs, 0.01 * np.eye(2)[None]])
        *_, steps, failed = assert_batch_matches_reference(
            clouds, owner, 40, means, covs)
        assert not failed.any()
        assert np.sort(steps)[-1] > np.sort(steps)[-2] + 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_batch_equals_per_cloud_batches(self, dim):
        # Forty clouds with five starts each, as one batch, as five-path
        # batches per cloud and as one path at a time.
        gen = RngState(65 + dim).generator()
        clouds = gen.standard_normal((40, 50, dim))
        clouds[:, :10] += 5.0
        owner = np.repeat(np.arange(40), 5)
        means, covs = random_starts(gen, clouds, owner)
        whole = _c_step_paths(clouds, owner, 40, means, covs)
        for c in range(40):
            rows = np.flatnonzero(owner == c)
            per_cloud = _c_step_paths(clouds[c:c + 1], np.zeros(5, np.intp),
                                      40, means[rows], covs[rows])
            for got, want in zip(per_cloud, whole):
                np.testing.assert_array_equal(got, want[rows])
            for k in rows:
                one = _c_step_paths(clouds[c:c + 1], np.zeros(1, np.intp), 40,
                                    means[k:k + 1], covs[k:k + 1])
                for got, want in zip(one, whole):
                    np.testing.assert_array_equal(got, want[k:k + 1])

    def test_mixed_batch_matches_sequential_paths(self):
        # Path 2 starts from an exactly singular covariance and path 4 can
        # only refit on coincident points (determinant sign 0).  Path 5
        # lies on a line, so the sign of its first refit's determinant is
        # round-off (negative on x86-64 OpenBLAS builds).  Each path must
        # fail exactly when the one-path loop does, without disturbing the
        # healthy paths around it.
        gen = RngState(7).generator()
        clouds = gen.standard_normal((6, 40, 2))
        clouds[4, :32] = clouds[4, 0]
        t = RngState(2).generator().standard_normal(40)
        clouds[5] = np.column_stack([t, 0.1 * t + 0.3])
        means = gen.standard_normal((6, 2))
        covs = np.array([random_spd(2, 10.0, gen).entries for _ in range(6)])
        covs[2] = [[1.0, 0.0], [0.0, 0.0]]
        means[5], covs[5] = 0.0, np.eye(2)
        out_means, out_covs, supports, history, steps, failed = (
            _c_step_paths(clouds, np.arange(6), 30, means, covs, 100))
        assert failed[2] and failed[4]
        for i in range(6):
            try:
                ref = reference_c_step_path(clouds[i], 30, means[i], covs[i])
            except SingularSubset:
                assert failed[i]
                with pytest.raises(SingularSubset):
                    c_step_path(clouds[i], 30, means[i], covs[i])
                continue
            assert not failed[i]
            for got in (c_step_path(clouds[i], 30, means[i], covs[i]),
                        (out_means[i], out_covs[i], supports[i],
                         history[i, :steps[i]].tolist())):
                for a, b in zip(got, ref):
                    np.testing.assert_array_equal(a, b)
        assert not failed[[0, 1, 3]].any()

    def test_closed_form_distances_pick_the_solve_supports(self):
        # Three-point starts on clouds whose first 12 points lie on a
        # line: random triples, and triples from the line, whose
        # covariances are singular up to round-off.  Those that are not
        # exactly singular stay live with condition numbers past 1e6 and
        # take the solve route; every path must match the one-path solve
        # loop bit for bit.
        solved = 0
        for seed in range(20):
            gen = RngState(seed).generator()
            cloud = gen.standard_normal((60, 2))
            t = gen.uniform(-2.0, 2.0, 12)
            cloud[:12] = np.column_stack([t, 0.5 * t + 0.1])
            subsets = np.array(
                [gen.choice(60, 3, replace=False) for _ in range(12)]
                + [gen.choice(12, 3, replace=False) for _ in range(6)])
            starts = cloud[subsets]
            means = starts.mean(axis=1)
            centered = starts - means[:, None, :]
            covs = np.swapaxes(centered, 1, 2) @ centered / 3.0
            out_means, out_covs, supports, history, steps, failed = (
                _c_step_paths(cloud[None], np.zeros(len(subsets), np.intp),
                              40, means, covs))
            tr = np.trace(covs, axis1=1, axis2=2)
            solved += np.sum(~failed & (np.linalg.det(covs) <= 1e-6 * tr ** 2))
            for i in range(len(subsets)):
                try:
                    ref = reference_c_step_path(cloud, 40, means[i], covs[i])
                except SingularSubset:
                    assert failed[i]
                    continue
                assert not failed[i]
                got = (out_means[i], out_covs[i], supports[i],
                       history[i, :steps[i]].tolist())
                for a, b in zip(got, ref):
                    np.testing.assert_array_equal(a, b)
        assert solved >= 10

    def test_start_subset_tie_at_the_support_edge(self):
        # Under their own fit the three points of a start subset lie at
        # Mahalanobis distance 2 exactly.  With 18 points inside that
        # ellipse and 19 far outside, the edge of a 20-point support falls
        # among the three, where round-off picks two of them: the picks
        # must be the solve's.
        for seed in range(40):
            gen = RngState(seed).generator()
            start = gen.standard_normal((3, 2))
            mean0 = start.mean(axis=0)
            cov0 = (start - mean0).T @ (start - mean0) / 3.0
            factor = np.linalg.cholesky(cov0)
            z = gen.standard_normal((37, 2))
            z *= np.where(np.arange(37) < 18, 0.9, 3.0)[:, None] / np.sqrt(
                (z * z).sum(axis=1, keepdims=True))
            pts = np.vstack([start, mean0 + z @ factor.T])
            pts = pts[gen.permutation(40)]
            got = c_step_path(pts, 20, mean0, cov0)
            ref = reference_c_step_path(pts, 20, mean0, cov0)
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(a, b)

    def test_non_symmetric_start_matches_the_solve(self):
        # The closed form inverts [[a, p], [q, c]] as a general matrix, as
        # the solve does, so a lopsided start picks the solve's support.
        pts = RngState(5).generator().standard_normal((40, 2))
        cov = np.array([[1.0, 0.9], [-0.6, 0.5]])
        got = c_step_path(pts, 30, np.zeros(2), cov)
        ref = reference_c_step_path(pts, 30, np.zeros(2), cov)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)

    def test_max_steps_caps_every_path(self):
        gen = RngState(8).generator()
        clouds = gen.standard_normal((3, 30, 2))
        means = np.zeros((3, 2))
        covs = np.repeat(np.eye(2)[None] * 100.0, 3, axis=0)
        *_, steps, failed = _c_step_paths(clouds, np.arange(3), 20, means,
                                          covs, 1)
        np.testing.assert_array_equal(steps, [1, 1, 1])
        assert not failed.any()


class TestEstimateMcd:
    def test_clean_gaussian_sample(self):
        gen = RngState(9).generator()
        pts = gen.standard_normal((1000, 2))
        est = estimate_mcd(pts, 800, 5, gen)
        assert np.linalg.norm(est.mean) <= 0.15
        s = est.cov.trace() / 2.0
        assert np.linalg.norm(est.cov.entries - s * np.eye(2)) <= 0.25

    def test_raw_estimate_shrinks_on_clean_data(self):
        # The h-subset covariance underestimates scale by roughly the
        # consistency factor; rescaling by it recovers the truth.
        gen = RngState(9).generator()
        pts = gen.standard_normal((1000, 2))
        est = estimate_mcd(pts, 800, 5, gen)
        s = est.cov.trace() / 2.0
        factor = mcd_consistency_factor(0.8, 2)
        assert abs(s - factor) <= 0.1
        assert abs(s / factor - 1.0) <= 0.15

    def test_resists_clustered_contamination(self):
        gen = RngState(10).generator()
        good = gen.standard_normal((80, 2))
        bad = np.array([8.0, 8.0]) + 0.3 * gen.standard_normal((20, 2))
        pts = np.vstack([good, bad])
        est = estimate_mcd(pts, 80, 5, gen)
        assert np.linalg.norm(est.mean) <= 0.5
        assert np.linalg.norm(pts.mean(axis=0)) >= 1.0

    def test_collinear_points_raise(self):
        t = np.linspace(0.0, 1.0, 40)
        pts = np.column_stack([t, 2.0 * t])
        with pytest.raises(SingularSubset):
            estimate_mcd(pts, 30, 3, RngState(1).generator())

    def test_argument_validation(self):
        gen = RngState(2).generator()
        pts = gen.standard_normal((20, 2))
        with pytest.raises(InvalidInput):
            estimate_mcd(pts, 2, 3, gen)
        with pytest.raises(InvalidInput):
            estimate_mcd(pts, 25, 3, gen)
        with pytest.raises(InvalidInput):
            estimate_mcd(pts, 15, 0, gen)
        with pytest.raises(InvalidInput):
            estimate_mcd(pts[0], 3, 3, gen)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        # One such point used to give RuntimeWarnings and a finite fit.
        pts = RngState(2).generator().standard_normal((20, 2))
        pts[7, 0] = bad
        with pytest.raises(InvalidInput, match="points"):
            estimate_mcd(pts, 15, 3, RngState(1).generator())

    def test_deterministic_given_state(self):
        pts = RngState(3).generator().standard_normal((100, 2))
        a = estimate_mcd(pts, 80, 4, RngState(8).generator())
        b = estimate_mcd(pts, 80, 4, RngState(8).generator())
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.cov.entries, b.cov.entries)

    @pytest.mark.parametrize("duplicated", [False, True])
    def test_generator_advances_as_one_draw_at_a_time(self, duplicated):
        # Batched restarts must consume exactly the draws of the sequential
        # loop, redraws included, and pick the same winner.
        total_failures = 0
        for seed in range(6):
            if duplicated:
                pts = duplicated_cloud(seed)
            else:
                pts = RngState(seed).generator().standard_normal((30, 2))
            gen_a = RngState(100 + seed).generator()
            gen_b = RngState(100 + seed).generator()
            est = estimate_mcd(pts, 20, 5, gen_a)
            mean, cov, failures = reference_estimate_mcd(pts, 20, 5, gen_b)
            np.testing.assert_array_equal(est.mean, mean)
            np.testing.assert_array_equal(est.cov.entries,
                                          certify_spd(cov).entries)
            assert gen_a.integers(2 ** 62) == gen_b.integers(2 ** 62)
            total_failures += failures
        assert (total_failures > 0) == duplicated


def report_bytes(rep):
    """Every float and count of a study report, as raw bytes."""
    parts = [np.array([rep.w2_sq_barycenter, rep.w2_sq_trimmed,
                       rep.w2_sq_linear]),
             np.asarray(rep.unit_outlier_counts, dtype=np.int64),
             rep.trimmed.active_weights]
    for p in (rep.barycenter, rep.trimmed.bary, rep.linear):
        parts += [p.mean, p.cov.entries]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in parts)


class TestConcentrationBlocks:
    """The unit stage steps its concentration paths in blocks of at most
    ``_BLOCK_POINTS`` points per ``(paths, n)`` array."""

    @staticmethod
    def block_constants(n):
        """Blocks of 1 and 7 paths of ``n`` points, the default block and
        one block of every path."""
        return n, 7 * n, simulation._BLOCK_POINTS, sys.maxsize

    def test_study_report_does_not_depend_on_the_block(self, monkeypatch):
        # 150 paths of 80 points: the default block holds 125 of them.
        cfg = HospitalConfig(k=30, n=80, seed=6, trim_restarts=4)
        reports = set()
        for points in self.block_constants(cfg.n):
            monkeypatch.setattr(simulation, "_BLOCK_POINTS", points)
            reports.add(report_bytes(hospital_experiment(cfg)))
        assert len(reports) == 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_fits_and_draws_do_not_depend_on_the_block(self, dim,
                                                        monkeypatch):
        # Every third cloud has 15 coincident points, so some starts are
        # singular and their units redraw in later rounds.
        clouds = RngState(70 + dim).generator().standard_normal((12, 30, dim))
        clouds[::3, :15] = clouds[::3, :1]
        outputs = []
        for points in self.block_constants(30):
            monkeypatch.setattr(simulation, "_BLOCK_POINTS", points)
            gens = [RngState(dim).split(i).generator() for i in range(12)]
            means, covs = _mcd_fits(clouds, 20, 5, gens)
            outputs.append((means, covs, [g.integers(2 ** 62) for g in gens]))
        for got in outputs[1:]:
            for a, b in zip(got, outputs[0]):
                np.testing.assert_array_equal(a, b)

    def test_unit_stage_memory_is_bounded(self):
        # All 1,000 paths of this study stepped as one batch peaked at
        # 36.8 MiB of traced memory; blocks of 25 paths stay under 4 MiB.
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _hospital_units(HospitalConfig(k=200, n=400, seed=7))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 15 * 2 ** 20

    def test_no_path_refits_the_support_it_just_had(self, monkeypatch):
        # A path whose new support equals its last one stops before the
        # refit, so every refit is a step that its path keeps.
        rows, outputs = [], []
        fits, paths = simulation._support_fits, simulation._c_step_paths

        def counting_fits(cols, own, support):
            rows.append(support.shape[0])
            return fits(cols, own, support)

        def recording_paths(*args):
            outputs.append(paths(*args))
            return outputs[-1]

        monkeypatch.setattr(simulation, "_support_fits", counting_fits)
        monkeypatch.setattr(simulation, "_c_step_paths", recording_paths)
        _hospital_units(HospitalConfig(k=20, n=60, seed=3))
        steps = np.concatenate([out[4] for out in outputs])
        assert not any(out[5].any() for out in outputs)
        assert steps.size == 100
        assert sum(rows) == steps.sum()


class TestHospitalExperiment:
    def test_zero_contamination_all_aggregates_near_target(self):
        # Beta(1e-9, 1e9) draws exactly 0.0: a clean study.
        cfg = HospitalConfig(k=30, n=80, contamination_beta=(1e-9, 1e9),
                             seed=3, mcd_restarts=3, trim_restarts=4)
        rep = hospital_experiment(cfg)
        assert rep.unit_outlier_counts == (0,) * 30
        assert rep.units_over_20pct == 0
        assert rep.w2_sq_barycenter <= 0.05
        assert rep.w2_sq_trimmed <= 0.05
        assert rep.w2_sq_linear <= 0.05
        assert abs(rep.w2_sq_trimmed - rep.w2_sq_barycenter) <= 0.02

    def test_contaminated_run_favors_trimming(self):
        cfg = HospitalConfig(k=40, n=60, seed=5, mcd_restarts=3,
                             trim_restarts=6)
        rep = hospital_experiment(cfg)
        assert rep.w2_sq_trimmed < rep.w2_sq_barycenter
        assert rep.w2_sq_trimmed < rep.w2_sq_linear

    def test_outlier_counts_follow_contamination_law(self):
        # Beta(4, 36) has mean 0.1, so unit contamination fractions
        # average near 10% and vary between units.
        cfg = HospitalConfig(k=40, n=60, seed=5, mcd_restarts=3,
                             trim_restarts=6)
        rep = hospital_experiment(cfg)
        fractions = np.array(rep.unit_outlier_counts) / cfg.n
        assert 0.06 <= fractions.mean() <= 0.14
        assert fractions.max() > fractions.min()
        expect_over = sum(1 for c in rep.unit_outlier_counts
                          if c > 0.2 * cfg.n)
        assert rep.units_over_20pct == expect_over

    def test_reports_are_deterministic(self):
        cfg = HospitalConfig(k=10, n=40, seed=2, mcd_restarts=2,
                             trim_restarts=3)
        a = hospital_experiment(cfg)
        b = hospital_experiment(cfg)
        assert a.w2_sq_barycenter == b.w2_sq_barycenter
        assert a.w2_sq_trimmed == b.w2_sq_trimmed
        assert a.w2_sq_linear == b.w2_sq_linear
        assert a.unit_outlier_counts == b.unit_outlier_counts

    @staticmethod
    def unit_cloud(cfg, i):
        """The per-unit recipe a replay of the study relies on: split
        stream i, contamination, mixture cloud.  Returns the points, the
        outlier count and the stream, ready for the MCD draws."""
        gen = RngState(cfg.seed).split(i).generator()
        p = gen.beta(*cfg.contamination_beta)
        mask = gen.random(cfg.n) < p
        clean = (cfg.inlier.mean + gen.standard_normal((cfg.n, 2))
                 @ cfg.inlier.cov.sqrt())
        bad = (cfg.outlier.mean + gen.standard_normal((cfg.n, 2))
               @ cfg.outlier.cov.sqrt())
        return np.where(mask[:, None], bad, clean), int(mask.sum()), gen

    def test_units_certify_each_estimate_once(self, monkeypatch):
        # Only the rescaled estimate is certified, not the raw fit too.
        calls = []
        certify = simulation.certify_spd

        def counting(m):
            calls.append(m)
            return certify(m)

        monkeypatch.setattr(simulation, "certify_spd", counting)
        cfg = HospitalConfig(k=15, n=50, seed=4, mcd_restarts=3,
                             trim_restarts=3)
        _hospital_units(cfg)
        assert len(calls) == cfg.k

    def test_units_equal_per_unit_estimate_then_rescale(self):
        # Recipe, then estimate_mcd from the same stream, then the
        # consistency rescaling.
        cfg = HospitalConfig(k=15, n=50, seed=4, mcd_restarts=3,
                             trim_restarts=3)
        estimates, counts = _hospital_units(cfg)
        h = round(cfg.mcd_fraction * cfg.n)
        factor = mcd_consistency_factor(cfg.mcd_fraction, 2)
        for i in range(cfg.k):
            points, count, gen = self.unit_cloud(cfg, i)
            est = estimate_mcd(points, h, cfg.mcd_restarts, gen)
            cov = certify_spd((1.0 / factor) * est.cov.entries)
            assert counts[i] == count
            np.testing.assert_array_equal(estimates[i].mean, est.mean)
            np.testing.assert_array_equal(estimates[i].cov.entries,
                                          cov.entries)

    def test_pinned_units_equal_the_solve_reference(self):
        # The units of the pinned report below, fitted by the one-path
        # loop that solves for every Mahalanobis distance: the closed-form
        # planar distances leave every unit, and so the report, unchanged.
        cfg = HospitalConfig(k=12, n=40, seed=1, mcd_restarts=3,
                             trim_restarts=3)
        estimates, _ = _hospital_units(cfg)
        h = round(cfg.mcd_fraction * cfg.n)
        factor = mcd_consistency_factor(cfg.mcd_fraction, 2)
        for i in range(cfg.k):
            points, _, gen = self.unit_cloud(cfg, i)
            mean, cov, _ = reference_estimate_mcd(points, h,
                                                  cfg.mcd_restarts, gen)
            np.testing.assert_array_equal(estimates[i].mean, mean)
            np.testing.assert_array_equal(
                estimates[i].cov.entries,
                certify_spd((1.0 / factor) * cov).entries)

    def test_report_bytes_are_pinned(self):
        # The batched unit stage reproduced bit for bit the report of commit
        # e937dd7, which fitted every unit's MCD restarts one concentration
        # path at a time (digest a6c7e07a...eb2b25).  The digest below was
        # re-pinned when scipy's chi2 gave way to the closed-form
        # consistency factor: at (0.8, 2) it is 0.5976405218914749, the
        # correctly rounded 1 + 0.25 ln 0.2, where scipy gave ...748.  With
        # mcd_consistency_factor patched back to scipy's value, the
        # scipy-free code still gives a6c7e07a...eb2b25, so that ulp is the
        # only change.  The digest was re-pinned once more when the scatter
        # iteration became Anderson-accelerated (plain iteration:
        # 41e9e812...3782e83c); the three distances moved by at most
        # 6.9e-13 and the scatters by 3.7e-13 relative, and the kept
        # weights and outlier counts stayed equal.  It was re-pinned again
        # when the planar Bures distance and scatter-step roots became
        # closed-form (general-d kernels: fa1c12c2...746d1ac0): the
        # trimmed distance moved by 7.7e-14 and the scatters by 8.7e-16
        # relative, and the kept weights and outlier counts stayed equal.
        # The closed-form Mahalanobis distances alone reproduce
        # fa1c12c2...746d1ac0 bit for bit.  It was re-pinned when trimming
        # inner solves began warm-starting (cold starts: 4962ebd7...9cbef0e1):
        # the distances moved by at most 1.9e-13 and the trimmed scatter
        # by 5.1e-14 relative, and the kept weights and outlier counts
        # stayed equal.  It was re-pinned when the planar scatter step
        # became one weighted sum (per-member roots: 78d6cf77...c1c793f0):
        # the distances moved by at most 1.9e-14 and the scatters by
        # 3.5e-16 relative, and the kept weights and outlier counts stayed
        # equal.  It was re-pinned when the planar step moved to Python
        # floats (step on arrays: 1efa364c...c3d54c35): the distances moved
        # by at most 3.9e-14 and the scatters by 1.8e-16 relative, and the
        # kept weights and outlier counts stayed equal.
        cfg = HospitalConfig(k=12, n=40, seed=1, mcd_restarts=3,
                             trim_restarts=3)
        rep = hospital_experiment(cfg)
        parts = [np.array([rep.w2_sq_barycenter, rep.w2_sq_trimmed,
                           rep.w2_sq_linear]),
                 np.asarray(rep.unit_outlier_counts, dtype=np.int64),
                 rep.trimmed.active_weights]
        for p in (rep.barycenter, rep.trimmed.bary, rep.linear):
            parts += [p.mean, p.cov.entries]
        digest = hashlib.sha256()
        for a in parts:
            digest.update(np.ascontiguousarray(
                a, dtype=a.dtype.newbyteorder("<")).tobytes())
        assert digest.hexdigest() == ("c65259c8de80322f769e9001b422d2b1"
                                      "6c2080833b0a7880edb1b1f8de48b1b1")

    def test_different_seeds_differ(self):
        base = dict(k=10, n=40, mcd_restarts=2, trim_restarts=3)
        a = hospital_experiment(HospitalConfig(seed=0, **base))
        b = hospital_experiment(HospitalConfig(seed=1, **base))
        assert a.w2_sq_barycenter != b.w2_sq_barycenter

    def test_config_validation(self):
        with pytest.raises(InvalidInput):
            HospitalConfig(k=0)
        with pytest.raises(InvalidInput):
            HospitalConfig(contamination_beta=(0.0, 36.0))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInput, match="Beta parameter a"):
                HospitalConfig(contamination_beta=(bad, 1.0))
            with pytest.raises(InvalidInput, match="Beta parameter b"):
                HospitalConfig(contamination_beta=(4.0, bad))
        # A boolean used to run as the fraction 1.0, and a string to end in
        # a bare TypeError.
        for bad in (0.0, True, "x"):
            with pytest.raises(InvalidInput, match="mcd_fraction"):
                HospitalConfig(mcd_fraction=bad)
        with pytest.raises(InvalidInput):
            HospitalConfig(alpha_trim=1.0)

    @pytest.mark.parametrize("seed", [0.9, "x", float("nan"), True, False])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(InvalidInput, match="seed must be an integer"):
            HospitalConfig(seed=seed)

    @pytest.mark.parametrize("beta", [(1.0, 2.0, 3.0), 4.0, None, (1.0,),
                                      ("4", "36")])
    def test_beta_must_be_two_numbers(self, beta):
        # A wrong length used to escape as a bare ValueError or TypeError.
        with pytest.raises(InvalidInput):
            HospitalConfig(contamination_beta=beta)


class TestConsistencyHarness:
    def test_constant_law_gives_zero_distances(self):
        member = LocScatter(np.array([0.3, -0.2]),
                            certify_spd([[1.5, 0.2], [0.2, 0.8]]))
        rep = consistency_harness(lambda gen: member, [5, 10], alpha=0.25,
                                  reps=3, seed=1)
        for row in rep.rows:
            assert row.median_w2_sq_to_reference <= 1e-12
            assert row.median_trimmed_variance <= 1e-12
            assert row.variance_gap <= 1e-12

    def test_random_law_rows_are_finite_and_ordered(self):
        rep = consistency_harness(gaussian_parameter_law(), [20, 40],
                                  alpha=0.2, reps=4, seed=7)
        assert [row.n for row in rep.rows] == [20, 40]
        for row in rep.rows:
            assert np.isfinite(row.median_w2_sq_to_reference)
            assert np.isfinite(row.median_trimmed_variance)
            assert row.median_w2_sq_to_reference >= 0.0

    def test_deterministic(self):
        law = gaussian_parameter_law()
        a = consistency_harness(law, [15, 30], alpha=0.2, reps=3, seed=4)
        b = consistency_harness(law, [15, 30], alpha=0.2, reps=3, seed=4)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.median_w2_sq_to_reference == rb.median_w2_sq_to_reference

    def test_sizes_must_ascend(self):
        law = gaussian_parameter_law()
        with pytest.raises(InvalidInput):
            consistency_harness(law, [30, 15], alpha=0.2, reps=3, seed=4)
        with pytest.raises(InvalidInput):
            consistency_harness(law, [], alpha=0.2, reps=3, seed=4)
        with pytest.raises(InvalidInput):
            consistency_harness(law, [10, 20], alpha=0.2, reps=0, seed=4)

    def test_parameter_law_draws_valid_members(self):
        law = gaussian_parameter_law(dim=3, mean_scale=0.5, condition_cap=9.0)
        gen = RngState(6).generator()
        for _ in range(20):
            member = law(gen)
            assert member.dim == 3
            w = np.linalg.eigvalsh(member.cov.entries)
            assert w[-1] / w[0] <= 9.0 * (1.0 + 1e-9)

    @pytest.mark.parametrize("dim", [0, 2.0])
    def test_parameter_law_checks_dimension_when_built(self, dim):
        # Used to build and fail only at the first draw, if at all.
        with pytest.raises(InvalidInput, match="must be an integer"):
            gaussian_parameter_law(dim=dim)

    @pytest.mark.parametrize("cap", [0.5, math.nan, math.inf, True, 1e12])
    def test_parameter_law_checks_condition_cap_when_built(self, cap):
        with pytest.raises(InvalidInput, match="condition cap"):
            gaussian_parameter_law(condition_cap=cap)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, "0.3", True, False])
    def test_parameter_law_checks_mean_scale_when_built(self, scale):
        # Used to build and fail only at the first draw.
        with pytest.raises(InvalidInput, match="mean_scale"):
            gaussian_parameter_law(mean_scale=scale)

    def test_parameter_law_allows_zero_and_negative_mean_scale(self):
        gen = RngState(6).generator()
        assert not gaussian_parameter_law(mean_scale=0.0)(gen).mean.any()
        assert gaussian_parameter_law(mean_scale=-0.5)(gen).dim == 2


class TestEllipsePoints:
    def test_points_lie_on_unit_quadric(self):
        gen = RngState(12).generator()
        cov = random_spd(2, 50.0, gen)
        p = LocScatter(np.array([1.0, -2.0]), cov)
        pts = ellipse_points(p, 64)
        inv = np.linalg.inv(cov.entries)
        for x in pts:
            delta = x - p.mean
            assert abs(delta @ inv @ delta - 1.0) <= 1e-10

    def test_count_and_dimension_validation(self):
        p = LocScatter(np.zeros(2), certify_spd(np.eye(2)))
        with pytest.raises(InvalidInput):
            ellipse_points(p, 0)
        q = LocScatter(np.zeros(3), certify_spd(np.eye(3)))
        with pytest.raises(InvalidInput):
            ellipse_points(q, 16)

    def test_rejects_non_integer_count(self):
        # Used to return 3 points on an open angle grid of step 2pi/2.5.
        p = LocScatter(np.zeros(2), certify_spd(np.eye(2)))
        with pytest.raises(InvalidInput, match="must be an integer"):
            ellipse_points(p, 2.5)


class TestPackagedToyEnsemble:
    def test_shape_and_labels(self):
        doc = ellipse_toy_ensemble()
        assert doc.ensemble.size == 6
        assert doc.ensemble.dim == 2
        np.testing.assert_allclose(doc.ensemble.weights,
                                   np.full(6, 1.0 / 6.0), rtol=1e-12)
        assert doc.labels == ("inlier-1", "inlier-2", "inlier-3", "inlier-4",
                              "outlier-far", "outlier-near")

    def test_outliers_are_well_separated(self):
        doc = ellipse_toy_ensemble()
        inliers = doc.ensemble.members[:4]
        for outlier in doc.ensemble.members[4:]:
            for inlier in inliers:
                assert w2_distance_sq(outlier, inlier) > 5.0

    def test_trimming_one_sixth_drops_far_outlier(self):
        doc = ellipse_toy_ensemble()
        res = trimmed_barycenter(doc.ensemble,
                                 TrimConfig(alpha=1.0 / 6.0, restarts=12,
                                            seed=0))
        assert res.active_weights[4] == 0.0
        assert np.all(res.active_weights[[0, 1, 2, 3, 5]] > 0.0)

    def test_trimming_one_third_drops_both_outliers(self):
        doc = ellipse_toy_ensemble()
        res = trimmed_barycenter(doc.ensemble,
                                 TrimConfig(alpha=2.0 / 6.0, restarts=12,
                                            seed=0))
        np.testing.assert_array_equal(res.active_weights[4:], [0.0, 0.0])
        np.testing.assert_allclose(res.active_weights[:4], np.full(4, 0.25),
                                   atol=1e-12)


def _toy():
    return ellipse_toy_ensemble().ensemble


def _cloud():
    return RngState(2).generator().standard_normal((40, 2))


# Each call passes a non-integer count that used to reach ``range`` or a
# sequence repetition and end in ``TypeError``, or a boolean that used to
# run as the count 0 or 1.
NON_INTEGER_COUNTS = {
    "TrimConfig.restarts": lambda: TrimConfig(alpha=0.2, restarts=2.5),
    "TrimConfig.restarts_bool": lambda: TrimConfig(alpha=0.2, restarts=True),
    "fixed_point_barycenter.max_iter": lambda: fixed_point_barycenter(
        _toy(), max_iter=2.5),
    "fixed_point_barycenter.max_iter_bool": lambda: fixed_point_barycenter(
        _toy(), max_iter=False),
    "HospitalConfig.k": lambda: HospitalConfig(k=3.5),
    "HospitalConfig.k_bool": lambda: HospitalConfig(k=True),
    "HospitalConfig.n": lambda: HospitalConfig(n=40.5),
    "HospitalConfig.mcd_restarts": lambda: HospitalConfig(mcd_restarts=2.5),
    "HospitalConfig.trim_restarts": lambda: HospitalConfig(trim_restarts=2.5),
    "consistency_harness.reps": lambda: consistency_harness(
        gaussian_parameter_law(), [10, 20], alpha=0.2, reps=1.5, seed=4),
    "consistency_harness.restarts": lambda: consistency_harness(
        gaussian_parameter_law(), [10, 20], alpha=0.2, reps=2, seed=4,
        restarts=1.5),
    "consistency_harness.n_values": lambda: consistency_harness(
        gaussian_parameter_law(), [10.7, 20], alpha=0.2, reps=2, seed=4),
    "estimate_mcd.h": lambda: estimate_mcd(_cloud(), 30.5, 3,
                                           RngState(2).generator()),
    "c_step_path.h": lambda: c_step_path(_cloud(), 30.5, np.zeros(2),
                                         np.eye(2)),
    "gaussian_quantiles.size": lambda: gaussian_quantiles(0.0, 1.0, 64.5),
}


@pytest.mark.parametrize("call", NON_INTEGER_COUNTS.values(),
                         ids=NON_INTEGER_COUNTS.keys())
def test_non_integer_counts_are_rejected(call):
    with pytest.raises(InvalidInput, match="must be an integer"):
        call()


def test_numpy_integer_counts_are_accepted():
    cfg = TrimConfig(alpha=0.2, restarts=np.int64(2))
    assert trimmed_barycenter(_toy(), cfg).restart_index in (0, 1)
    assert fixed_point_barycenter(_toy(), max_iter=np.int64(500)).iterations > 0
    rep = hospital_experiment(HospitalConfig(
        k=np.int64(6), n=np.int64(30), mcd_restarts=np.int64(2),
        trim_restarts=np.int64(2)))
    assert len(rep.unit_outlier_counts) == 6


def test_numpy_integer_sizes_are_accepted():
    pts = _cloud()
    est = estimate_mcd(pts, np.int64(30), np.int32(3),
                       RngState(2).generator())
    plain = estimate_mcd(pts, 30, 3, RngState(2).generator())
    np.testing.assert_array_equal(est.mean, plain.mean)
    np.testing.assert_array_equal(est.cov.entries, plain.cov.entries)
    *_, history = c_step_path(pts, np.int32(30), np.zeros(2), np.eye(2))
    assert 1 <= len(history) <= 2
    assert gaussian_quantiles(0.0, 1.0, np.int64(64)).size == 64
    rep = consistency_harness(gaussian_parameter_law(),
                              [np.int64(10), np.int32(20)], alpha=0.2,
                              reps=2, seed=4)
    assert [row.n for row in rep.rows] == [10, 20]
    assert all(type(row.n) is int for row in rep.rows)
