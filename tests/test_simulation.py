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
                   certify_spd, w2_distance_sq)
from wcons.rng import splitmix64
from wcons.runtime import map_indexed, worker_count
from wcons.simulation import (HospitalConfig, _c_step_paths,
                              _hospital_units, c_step_path,
                              consistency_harness, ellipse_points,
                              ellipse_toy_ensemble, estimate_mcd,
                              gaussian_parameter_law, hospital_experiment,
                              mcd_consistency_factor, random_spd)
from wcons.trimming import TrimConfig, trimmed_barycenter


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


class TestWorkerCount:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv("WCONS_THREADS", raising=False)
        assert worker_count() == 1

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.setenv("WCONS_THREADS", "0")
        assert worker_count() >= 1

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv("WCONS_THREADS", "3")
        assert worker_count() == 3

    def test_invalid_values_rejected(self, monkeypatch):
        monkeypatch.setenv("WCONS_THREADS", "abc")
        with pytest.raises(ValueError):
            worker_count()
        monkeypatch.setenv("WCONS_THREADS", "-1")
        with pytest.raises(ValueError):
            worker_count()

    def test_map_indexed_preserves_order_with_threads(self, monkeypatch):
        import time

        monkeypatch.setenv("WCONS_THREADS", "4")

        def slow_identity(i):
            time.sleep(0.002 * (7 - i))
            return i

        assert map_indexed(slow_identity, range(8)) == list(range(8))

    def test_map_indexed_sequential(self, monkeypatch):
        monkeypatch.delenv("WCONS_THREADS", raising=False)
        assert map_indexed(lambda x: x * x, [1, 2, 3]) == [1, 4, 9]


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

    def test_accepts_rng_state(self):
        a = random_spd(2, 4.0, RngState(11))
        b = random_spd(2, 4.0, RngState(11))
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_rejects_plain_seed(self):
        with pytest.raises(InvalidInput):
            random_spd(2, 4.0, 123)


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

    def test_units_equal_per_unit_estimate_then_rescale(self):
        # The per-unit recipe a replay of the study relies on: split
        # stream i, contamination, mixture cloud, estimate_mcd from the
        # same stream, then the consistency rescaling.
        cfg = HospitalConfig(k=15, n=50, seed=4, mcd_restarts=3,
                             trim_restarts=3)
        estimates, counts = _hospital_units(cfg)
        h = round(cfg.mcd_fraction * cfg.n)
        factor = mcd_consistency_factor(cfg.mcd_fraction, 2)
        for i in range(cfg.k):
            gen = RngState(cfg.seed).split(i).generator()
            p = gen.beta(*cfg.contamination_beta)
            mask = gen.random(cfg.n) < p
            clean = (cfg.inlier.mean + gen.standard_normal((cfg.n, 2))
                     @ cfg.inlier.cov.sqrt())
            bad = (cfg.outlier.mean + gen.standard_normal((cfg.n, 2))
                   @ cfg.outlier.cov.sqrt())
            points = np.where(mask[:, None], bad, clean)
            est = estimate_mcd(points, h, cfg.mcd_restarts, gen)
            cov = certify_spd((1.0 / factor) * est.cov.entries)
            assert counts[i] == int(mask.sum())
            np.testing.assert_array_equal(estimates[i].mean, est.mean)
            np.testing.assert_array_equal(estimates[i].cov.entries,
                                          cov.entries)

    def test_report_bytes_are_pinned(self):
        # Digest computed at commit e937dd7, which fitted every unit's MCD
        # restarts one concentration path at a time; the batched unit stage
        # must reproduce that report bit for bit.
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
        assert digest.hexdigest() == ("a6c7e07ac8946a8ea1497e65151b5377"
                                      "e072400014d02737ded81e23edeb2b25")

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
