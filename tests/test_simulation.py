"""Seeded harnesses: random scatter generation, the concentration-step
estimator, the contaminated-units study, the growing-ensemble check and
the packaged planar toy ensemble.

splitmix64 reference values are the published first outputs for seeds 0
and 1234567.
"""

import hashlib
import math

import numpy as np
import pytest

from wcons import (InvalidInput, LocScatter, RngState, SingularSubset,
                   brute_force_trimmed, certify_spd, fixed_point_barycenter,
                   w2_distance_sq)
from wcons.rng import splitmix64
from wcons.simulation import (HospitalConfig, _c_step_paths,
                              _hospital_units, c_step_path,
                              consistency_harness, ellipse_points,
                              ellipse_toy_ensemble, estimate_mcd,
                              gaussian_parameter_law, hospital_experiment,
                              mcd_consistency_factor, random_spd)
from wcons.trimming import TrimConfig, trimmed_barycenter
from wcons.univariate import gaussian_quantiles


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

    def test_algorithm_tag(self):
        assert RngState(0).algorithm == "pcg64-splitmix64"


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

    @pytest.mark.parametrize("cap", [math.inf, math.nan])
    def test_rejects_non_finite_cap(self, cap):
        # Used to raise OverflowError from the uniform draw.
        with pytest.raises(InvalidInput, match="finite"):
            random_spd(2, cap, RngState(3).generator())

    def test_accepts_rng_state(self):
        a = random_spd(2, 4.0, RngState(11))
        b = random_spd(2, 4.0, RngState(11))
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_rejects_plain_seed(self):
        with pytest.raises(InvalidInput):
            random_spd(2, 4.0, 123)


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


class TestCStepKernel:
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
            estimate_mcd(pts, 30, 3, RngState(1))

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

    def test_deterministic_given_state(self):
        pts = RngState(3).generator().standard_normal((100, 2))
        a = estimate_mcd(pts, 80, 4, RngState(8))
        b = estimate_mcd(pts, 80, 4, RngState(8))
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


class TestHospitalExperiment:
    def test_zero_contamination_all_aggregates_near_target(self):
        cfg = HospitalConfig(k=30, n=80, contamination_beta=None, seed=3,
                             mcd_restarts=3, trim_restarts=4)
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
        # fa1c12c2...746d1ac0 bit for bit.
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
        assert digest.hexdigest() == ("4962ebd73921db7d8151d5ddfc5681c1"
                                      "5f3e2a21f8bc84fb9f52f73f9cbef0e1")

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
        with pytest.raises(InvalidInput):
            HospitalConfig(mcd_fraction=0.0)
        with pytest.raises(InvalidInput):
            HospitalConfig(alpha_trim=1.0)


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
# sequence repetition and end in ``TypeError``.
NON_INTEGER_COUNTS = {
    "TrimConfig.restarts": lambda: TrimConfig(alpha=0.2, restarts=2.5),
    "TrimConfig.outer_max_iter": lambda: TrimConfig(alpha=0.2,
                                                    outer_max_iter=2.5),
    "TrimConfig.inner_max_iter": lambda: TrimConfig(alpha=0.2,
                                                    inner_max_iter=3.5),
    "fixed_point_barycenter.max_iter": lambda: fixed_point_barycenter(
        _toy(), max_iter=2.5),
    "brute_force_trimmed.inner_max_iter": lambda: brute_force_trimmed(
        _toy(), 1.0 / 6.0, inner_max_iter=3.5),
    "HospitalConfig.k": lambda: HospitalConfig(k=3.5),
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
    "estimate_mcd.h": lambda: estimate_mcd(_cloud(), 30.5, 3, RngState(2)),
    "c_step_path.h": lambda: c_step_path(_cloud(), 30.5, np.zeros(2),
                                         np.eye(2)),
    "c_step_path.max_steps": lambda: c_step_path(
        _cloud(), 30, np.zeros(2), np.eye(2), max_steps=2.5),
    "gaussian_quantiles.size": lambda: gaussian_quantiles(0.0, 1.0, 64.5),
}


@pytest.mark.parametrize("call", NON_INTEGER_COUNTS.values(),
                         ids=NON_INTEGER_COUNTS.keys())
def test_non_integer_counts_are_rejected(call):
    with pytest.raises(InvalidInput, match="must be an integer"):
        call()


def test_numpy_integer_counts_are_accepted():
    cfg = TrimConfig(alpha=0.2, restarts=np.int64(2),
                     outer_max_iter=np.int32(50), inner_max_iter=np.int64(500))
    assert trimmed_barycenter(_toy(), cfg).restart_index in (0, 1)
    assert fixed_point_barycenter(_toy(), max_iter=np.int64(500)).iterations > 0
    rep = hospital_experiment(HospitalConfig(
        k=np.int64(6), n=np.int64(30), mcd_restarts=np.int64(2),
        trim_restarts=np.int64(2)))
    assert len(rep.unit_outlier_counts) == 6


def test_numpy_integer_sizes_are_accepted():
    pts = _cloud()
    est = estimate_mcd(pts, np.int64(30), np.int32(3), RngState(2))
    plain = estimate_mcd(pts, 30, 3, RngState(2))
    np.testing.assert_array_equal(est.mean, plain.mean)
    np.testing.assert_array_equal(est.cov.entries, plain.cov.entries)
    *_, history = c_step_path(pts, np.int32(30), np.zeros(2), np.eye(2),
                              max_steps=np.int64(2))
    assert 1 <= len(history) <= 2
    assert gaussian_quantiles(0.0, 1.0, np.int64(64)).size == 64
    rep = consistency_harness(gaussian_parameter_law(),
                              [np.int64(10), np.int32(20)], alpha=0.2,
                              reps=2, seed=4)
    assert [row.n for row in rep.rows] == [10, 20]
    assert all(type(row.n) is int for row in rep.rows)
