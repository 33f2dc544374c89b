"""Trimmed barycenters: weight concentration, the iterative search, the
ball-shape verification, variance curves and the subset-scan oracle.

The three-member 1D configuration (two near-identical unit Gaussians plus
one at mean 10) has a hand-checkable optimum: drop the outlier, average
the pair, variance 2 * (1/2) * 0.05^2 = 0.0025.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import wcons.barycenter as barycenter
import wcons.locscatter as locscatter
import wcons.trimming as trimming
from wcons import (BadWeights, DegenerateTrim, InvalidInput, LocScatter,
                   TrimConfig, TrimmedResult, UnsupportedConfiguration,
                   WeightedEnsemble, barycenter_variance, brute_force_trimmed,
                   certify_spd, ellipse_toy_ensemble, fixed_point_barycenter,
                   g_map, trim_weights, trimmed_barycenter, variance_curve,
                   verify_ball_property, w2_distance_sq, w2_distances_sq)

from helpers import (far_outlier_ensemble, far_outlier_trio, gauss_1d,
                     random_ensemble, wide_grid)


class TestTrimWeights:
    def test_alpha_zero_returns_copy(self):
        w = np.array([0.2, 0.3, 0.5])
        out = trim_weights(np.array([3.0, 1.0, 2.0]), w, 0.0)
        np.testing.assert_array_equal(out, w)
        out[0] = 9.0
        assert w[0] == 0.2

    def test_boundary_on_exact_atom(self):
        # Cumulative thirds reach 2/3 at the second-nearest atom, so the
        # third is dropped and the kept pair renormalizes to halves.
        out = trim_weights([1.0, 2.0, 9.0], np.full(3, 1.0 / 3.0), 1.0 / 3.0)
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0], atol=1e-12)

    def test_partial_boundary_weight(self):
        # Cumulative 0.5 < 0.6 <= 0.8: the second atom keeps 0.1 raw,
        # normalized (5/6, 1/6, 0).
        out = trim_weights([1.0, 2.0, 3.0], [0.5, 0.3, 0.2], 0.4)
        np.testing.assert_allclose(out, [5.0 / 6.0, 1.0 / 6.0, 0.0],
                                   atol=1e-12)

    def test_order_follows_distances(self):
        out = trim_weights([9.0, 1.0, 2.0], np.full(3, 1.0 / 3.0), 1.0 / 3.0)
        np.testing.assert_allclose(out, [0.0, 0.5, 0.5], atol=1e-12)

    def test_ties_break_by_original_index(self):
        out = trim_weights([1.0, 1.0, 1.0], np.full(3, 1.0 / 3.0), 1.0 / 3.0)
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0], atol=1e-12)

    def test_strictly_partial_atom(self):
        out = trim_weights([1.0, 2.0, 3.0], [0.6, 0.3, 0.1], 0.25)
        np.testing.assert_allclose(out, [0.8, 0.2, 0.0], atol=1e-12)

    def test_output_sums_to_one(self):
        gen = np.random.default_rng(71)
        for _ in range(50):
            k = int(gen.integers(1, 12))
            w = gen.uniform(0.1, 1.0, size=k)
            w = w / w.sum()
            d = gen.uniform(0.0, 10.0, size=k)
            alpha = float(gen.uniform(0.0, 0.9))
            out = trim_weights(d, w, alpha)
            assert abs(out.sum() - 1.0) <= 1e-9
            assert np.all(out >= 0.0)
            assert np.all(out <= w / (1.0 - alpha) + 1e-12)

    def test_at_most_one_partial_atom(self):
        gen = np.random.default_rng(72)
        for _ in range(50):
            k = int(gen.integers(2, 10))
            w = gen.uniform(0.1, 1.0, size=k)
            w = w / w.sum()
            d = gen.uniform(0.0, 10.0, size=k)
            alpha = float(gen.uniform(0.05, 0.9))
            out = trim_weights(d, w, alpha)
            full = w / (1.0 - alpha)
            partial = np.sum((out > 1e-12) & (out < full - 1e-12))
            assert partial <= 1

    def test_invalid_alpha(self):
        w = np.full(2, 0.5)
        for alpha in (-0.1, 1.0, 1.5):
            with pytest.raises(InvalidInput):
                trim_weights([1.0, 2.0], w, alpha)

    def test_mismatched_inputs(self):
        with pytest.raises(BadWeights):
            trim_weights([1.0, 2.0], [1.0], 0.1)
        with pytest.raises(BadWeights):
            trim_weights([1.0, 2.0], [0.5, -0.5], 0.1)

    @pytest.mark.parametrize("distances, weights, error, message", [
        ([1.0, np.nan, 2.0], [0.3, 0.3, 0.4], InvalidInput,
         "distances must be finite"),
        ([np.inf, 1.0], [0.5, 0.5], InvalidInput, "distances must be finite"),
        ([1.0, -np.inf], [0.5, 0.5], InvalidInput, "distances must be finite"),
        ([1.0, 2.0], [np.inf, 1.0], BadWeights,
         "weights must be finite and strictly positive"),
        ([1.0, 2.0], [0.5, np.nan], BadWeights,
         "weights must be finite and strictly positive"),
    ])
    def test_non_finite_inputs(self, distances, weights, error, message):
        with pytest.raises(error, match=message):
            trim_weights(distances, weights, 0.2)

    def test_insufficient_total_weight(self):
        with pytest.raises(DegenerateTrim):
            trim_weights([1.0, 2.0], [0.25, 0.25], 0.4)

    def test_lone_kept_atom_weighs_one(self):
        # 1 - 0.8 rounds below 0.2, so the whole weight 0.2 would normalize
        # to 1 + 2^-52; capped at 1 - alpha, the lone atom weighs exactly 1.
        out = trim_weights([3.0, 1.0, 2.0, 5.0, 4.0], np.full(5, 0.2), 0.8)
        assert out.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]

    def test_ranking_inside_the_kept_set_changes_no_bit(self):
        # Equal weights: the boundary atom's remainder covers its weight up
        # to the rounding of the cumulative sum, so it keeps that weight
        # whole and a kept set has one weight vector whatever its ranking.
        gen = np.random.default_rng(84)
        w = np.full(60, 1.0 / 60.0)
        for _ in range(50):
            d = gen.uniform(0.0, 1.0, size=60)
            inside = np.argsort(d)[:48]
            reranked = d.copy()
            reranked[inside] = gen.permutation(d[inside])
            out = trim_weights(d, w, 0.2)
            assert np.count_nonzero(out) == 48
            assert out.tobytes() == trim_weights(reranked, w, 0.2).tobytes()

    def test_private_selection_is_trim_weights(self):
        # Random distances and rounded ones (ties); random weights, and
        # equal weights at alpha = j/k (0 included), whose boundary
        # remainder covers its atom within the tolerance: the same bits
        # either way.
        gen = np.random.default_rng(73)
        for trial in range(300):
            k = int(gen.integers(1, 16))
            d = gen.uniform(0.0, 10.0, size=k)
            if trial % 2:
                d = np.round(d / 3.0)
            if trial % 3 == 0:
                w, alpha = np.full(k, 1.0 / k), float(gen.integers(k)) / k
            else:
                w = gen.uniform(0.1, 1.0, size=k)
                w = w / w.sum()
                alpha = 0.2 if trial % 3 == 1 else float(gen.uniform(0, 0.9))
            expect = trim_weights(d, w, alpha)
            assert trimming._trim(d, w, alpha).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("distances, weights", [
        ([1.0, np.nan], [0.5, 0.5]), ([np.inf, 1.0], [0.5, 0.5]),
        ([1.0, 2.0], [0.0, 1.0]), ([1.0, 2.0], [1.5, -0.5]),
        ([1.0, 2.0], [np.nan, 1.0])])
    def test_checks_run_before_the_selection(self, distances, weights,
                                             monkeypatch):
        calls = []
        monkeypatch.setattr(trimming, "_trim",
                            lambda *args: calls.append(args))
        with pytest.raises((InvalidInput, BadWeights)):
            trim_weights(distances, weights, 0.2)
        assert calls == []

    def test_restart_trims_skip_the_checks(self, monkeypatch):
        # The ensemble's weights, the config's alpha and the solver's
        # distances hold the checked conditions by construction.
        def checked(*args):
            raise AssertionError("a restart re-validated its trim")

        monkeypatch.setattr(trimming, "trim_weights", checked)
        res = trimmed_barycenter(far_outlier_ensemble(80, 20, 2),
                                 TrimConfig(alpha=0.2, restarts=5, seed=3))
        assert res.outer_iterations >= 1


class TestTrimConfig:
    def test_alpha_range(self):
        for alpha in (-0.01, 1.0):
            with pytest.raises(InvalidInput):
                TrimConfig(alpha=alpha)

    @pytest.mark.parametrize("alpha", ["0.2", None, 0.2j, np.complex128(0.2),
                                       True, False])
    def test_alpha_must_be_real(self, alpha):
        with pytest.raises(InvalidInput, match="alpha must lie in"):
            TrimConfig(alpha=alpha)
        with pytest.raises(InvalidInput, match="alpha must lie in"):
            trim_weights([1.0, 2.0], [0.5, 0.5], alpha)

    def test_numpy_real_alpha_runs_as_its_value(self):
        ens = far_outlier_trio()
        a = trimmed_barycenter(ens, TrimConfig(alpha=np.float32(0.25)))
        b = trimmed_barycenter(ens, TrimConfig(alpha=float(np.float32(0.25))))
        assert a.bary.cov.entries.tobytes() == b.bary.cov.entries.tobytes()

    def test_restart_count(self):
        with pytest.raises(InvalidInput):
            TrimConfig(alpha=0.1, restarts=0)

    @pytest.mark.parametrize("seed", [0.9, "x", float("nan"), True, False])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(InvalidInput, match="seed must be an integer"):
            TrimConfig(alpha=0.2, seed=seed)

    def test_numpy_integer_seed_runs_as_its_value(self):
        ens = far_outlier_trio()
        a = trimmed_barycenter(ens, TrimConfig(alpha=0.2, restarts=3,
                                               seed=np.uint64(7)))
        b = trimmed_barycenter(ens, TrimConfig(alpha=0.2, restarts=3, seed=7))
        assert a.bary.cov.entries.tobytes() == b.bary.cov.entries.tobytes()
        assert a.restart_variances == b.restart_variances


class TestTrimmedBarycenter:
    def test_alpha_zero_equals_plain_barycenter(self):
        gen = np.random.default_rng(73)
        ens = random_ensemble(gen, 5, 2)
        plain = fixed_point_barycenter(ens)
        res = trimmed_barycenter(ens, TrimConfig(alpha=0.0, restarts=3))
        gap = np.linalg.norm(res.bary.cov.entries - plain.bary.cov.entries)
        assert gap <= 1e-10 * np.linalg.norm(plain.bary.cov.entries)
        assert res.trimmed_variance == pytest.approx(plain.variance,
                                                     rel=1e-10)
        np.testing.assert_allclose(res.active_weights, ens.weights,
                                   rtol=1e-12)

    def test_far_outlier_is_dropped(self):
        ens = far_outlier_trio()
        res = trimmed_barycenter(ens, TrimConfig(alpha=1.0 / 3.0, restarts=6,
                                                 seed=0))
        np.testing.assert_allclose(res.active_weights, [0.5, 0.5, 0.0],
                                   atol=1e-9)
        assert res.bary.mean[0] == pytest.approx(0.05, abs=1e-10)
        assert res.bary.cov.entries[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert res.trimmed_variance == pytest.approx(0.0025, abs=1e-12)
        assert res.radius ** 2 == pytest.approx(0.0025, abs=1e-12)

    def test_matches_subset_oracle(self):
        ens = far_outlier_trio()
        res = trimmed_barycenter(ens, TrimConfig(alpha=1.0 / 3.0, restarts=6))
        oracle = brute_force_trimmed(ens, 1.0 / 3.0)
        assert res.trimmed_variance == pytest.approx(oracle.trimmed_variance,
                                                     rel=1e-10)
        np.testing.assert_allclose(res.active_weights, oracle.active_weights,
                                   atol=1e-9)

    def test_oracle_equivalence_on_random_ensembles(self):
        gen = np.random.default_rng(74)
        for _ in range(20):
            k = int(gen.integers(3, 9))
            dim = int(gen.integers(1, 4))
            ens = random_ensemble(gen, k, dim, mean_scale=2.0, equal=True)
            j = int(gen.integers(1, min(4, k - 1) + 1))
            alpha = j / k
            res = trimmed_barycenter(ens, TrimConfig(alpha=alpha,
                                                     restarts=2 * k, seed=7))
            oracle = brute_force_trimmed(ens, alpha)
            assert res.trimmed_variance <= oracle.trimmed_variance * (1 + 1e-8)
            assert res.trimmed_variance >= oracle.trimmed_variance * (1 - 1e-8)
            check = verify_ball_property(res, ens, alpha)
            assert check.ok, check.violations

    def test_deterministic_for_fixed_seed(self):
        gen = np.random.default_rng(75)
        ens = random_ensemble(gen, 6, 2, mean_scale=2.0)
        cfg = TrimConfig(alpha=0.3, restarts=8, seed=123)
        a = trimmed_barycenter(ens, cfg)
        b = trimmed_barycenter(ens, cfg)
        assert a.trimmed_variance == b.trimmed_variance
        assert a.restart_index == b.restart_index
        assert a.outer_iterations == b.outer_iterations
        np.testing.assert_array_equal(a.active_weights, b.active_weights)
        np.testing.assert_array_equal(a.bary.cov.entries, b.bary.cov.entries)
        np.testing.assert_array_equal(a.bary.mean, b.bary.mean)

    def test_variance_history_is_nonincreasing(self):
        gen = np.random.default_rng(76)
        for _ in range(10):
            ens = random_ensemble(gen, 7, 2, mean_scale=2.0)
            res = trimmed_barycenter(ens, TrimConfig(alpha=0.25, restarts=4))
            hist = np.array(res.variance_history)
            assert np.all(np.diff(hist) <= 1e-12 * (1.0 + hist[0]))

    def test_reported_quantities_are_consistent(self):
        gen = np.random.default_rng(77)
        for _ in range(10):
            k = int(gen.integers(4, 9))
            ens = random_ensemble(gen, k, 2, mean_scale=2.0)
            alpha = float(gen.uniform(0.1, 0.5))
            res = trimmed_barycenter(ens, TrimConfig(alpha=alpha, restarts=5))
            d2 = w2_distances_sq(res.bary, ens.members)
            recomputed = float(res.active_weights @ d2)
            assert res.trimmed_variance == pytest.approx(recomputed,
                                                         rel=1e-10)
            positive = res.active_weights > 0.0
            assert res.radius == pytest.approx(
                float(np.sqrt(np.max(d2[positive]))), rel=1e-12)
            assert abs(res.active_weights.sum() - 1.0) <= 1e-9
            bound = ens.weights / (1.0 - alpha)
            assert np.all(res.active_weights <= bound + 1e-12)

    def test_solution_is_self_consistent(self):
        gen = np.random.default_rng(78)
        for _ in range(5):
            ens = random_ensemble(gen, 6, 2, mean_scale=2.0)
            res = trimmed_barycenter(ens, TrimConfig(alpha=0.3, restarts=6))
            pos = res.active_weights > 0.0
            sub = WeightedEnsemble(
                res.active_weights[pos] / res.active_weights[pos].sum(),
                tuple(m for m, keep in zip(ens.members, pos) if keep))
            again = fixed_point_barycenter(sub)
            gap = np.linalg.norm(again.bary.cov.entries
                                 - res.bary.cov.entries)
            assert gap <= 1e-8 * np.linalg.norm(res.bary.cov.entries)
            np.testing.assert_allclose(again.bary.mean, res.bary.mean,
                                       atol=1e-10)

    def test_restart_variances_cover_all_restarts(self):
        ens = far_outlier_trio()
        cfg = TrimConfig(alpha=1.0 / 3.0, restarts=5, seed=2)
        res = trimmed_barycenter(ens, cfg)
        assert len(res.restart_variances) == 5
        assert res.trimmed_variance == min(res.restart_variances)
        assert res.restart_variances[res.restart_index] == res.trimmed_variance


def cold_trimmed_barycenter(ens, cfg, monkeypatch):
    """Every restart solves its kept sets afresh and from the weighted mean
    of the kept scatters; otherwise the same selection and packaging as
    ``trimmed_barycenter``."""
    solve = trimming._barycenter
    with monkeypatch.context() as m:
        m.setattr(trimming, "_barycenter",
                  lambda ens, lam, start: solve(ens, lam))
        paths = [trimming._restart_path(ens, cfg, r, {})
                 for r in range(cfg.restarts)]
    finals = [p[2] for p in paths]
    best = min(range(cfg.restarts), key=finals.__getitem__)
    center, lam_star, var, history, d2 = paths[best]
    return trimming._trimmed_result(center, d2, lam_star, var, len(history),
                                    best, history, finals)


def close_field(got, ref, rel=1e-10):
    """Within ``rel`` of the largest entry of the reference field."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return np.max(np.abs(got - ref), initial=0.0) <= rel * np.max(
        np.abs(ref), initial=0.0)


def field_bytes(value):
    """Bit pattern of one ``TrimmedResult`` field."""
    if isinstance(value, LocScatter):
        return value.mean.tobytes() + value.cov.entries.tobytes()
    return repr(type(value)).encode() + np.asarray(value).tobytes()


class TestSharedSolves:
    def test_each_distinct_kept_set_is_solved_once(self, monkeypatch):
        ens = far_outlier_ensemble(80, 20, 2)
        cfg = TrimConfig(alpha=0.2, restarts=10, seed=3)
        # One solve per outer step that does not stop on a revisited set.
        outer_steps = sum(len(trimming._restart_path(ens, cfg, r, {})[3])
                          for r in range(cfg.restarts))
        # A solve is identified by its kept set: the atoms it keeps and
        # which of them it keeps whole.
        whole = ens.weights / (1.0 - cfg.alpha)
        keys = []
        solve = trimming._barycenter

        def counting(ens, lam, *args):
            keys.append((lam > 0.0).tobytes() + (lam == whole).tobytes())
            return solve(ens, lam, *args)

        monkeypatch.setattr(trimming, "_barycenter", counting)
        trimmed_barycenter(ens, cfg)
        assert len(keys) == len(set(keys))
        assert len(keys) < outer_steps

    def test_restart_stops_at_its_first_revisited_set(self, monkeypatch):
        # Trims forced to cycle A, B, A, ... with B tighter than A: the
        # restart ends when A comes back, on its last solve, B.
        ens = WeightedEnsemble.equal_weights(tuple(
            gauss_1d(m, 1.0) for m in (0.0, 0.1, 5.0, 10.0)))
        a = np.array([0.5, 0.0, 0.0, 0.5])
        b = np.array([0.5, 0.5, 0.0, 0.0])
        trims = itertools.cycle([a, b])
        monkeypatch.setattr(trimming, "_trim",
                            lambda *args: next(trims).copy())
        res = trimmed_barycenter(ens, TrimConfig(alpha=0.5, restarts=1))
        assert res.outer_iterations == 2
        var_a, var_b = res.variance_history
        assert var_b < var_a
        np.testing.assert_array_equal(res.active_weights, b)
        assert res.trimmed_variance == var_b

    @pytest.mark.parametrize("case", ["toy", "d2_k80", "d8_k20"])
    def test_distances_once_per_solve_and_start(self, case, monkeypatch):
        # Each solve measures its barycenter against every atom once, and
        # those distances drive the next trim, the variance and the
        # radius; the only other distances are each restart's start.
        ens = {"toy": ellipse_toy_ensemble().ensemble,
               "d2_k80": far_outlier_ensemble(80, 80, 2),
               "d8_k20": far_outlier_ensemble(81, 20, 8)}[case]
        cfg = TrimConfig(alpha=0.2, restarts=7, seed=5)
        centers, solves = [], []
        measure, solve = WeightedEnsemble._distances_sq, trimming._barycenter

        def measuring(self, center):
            centers.append(center)
            return measure(self, center)

        def counting(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(WeightedEnsemble, "_distances_sq", measuring)
        monkeypatch.setattr(trimming, "_barycenter", counting)
        trimmed_barycenter(ens, cfg)
        assert len(centers) == cfg.restarts + len(solves)

    def test_planar_rows_formed_once(self, monkeypatch):
        # Solves, trims and checks read the d = 2 rows the ensemble forms
        # on first use, each solve through its kept mask.
        ens = far_outlier_ensemble(80, 80, 2)
        stack, formed = locscatter._planar_stack, []

        def counting(covs):
            formed.append(len(covs))
            return stack(covs)

        monkeypatch.setattr(locscatter, "_planar_stack", counting)
        monkeypatch.setattr(barycenter, "_planar_stack", counting)
        bary = fixed_point_barycenter(ens).bary
        res = trimmed_barycenter(ens, TrimConfig(alpha=0.2, restarts=7,
                                                 seed=5))
        assert verify_ball_property(res, ens, 0.2).ok
        barycenter_variance(ens, res.bary)
        g_map(ens, bary)
        assert formed == [ens.size]

    @pytest.mark.parametrize("restarts", [1, 7])
    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    @pytest.mark.parametrize("case", ["toy", "d8_k20"])
    def test_sharing_changes_no_field(self, case, alpha, restarts,
                                      monkeypatch):
        # Shared, warm-started solves against cold solves with nothing
        # shared: the kept weights, the winning restart and its outer
        # steps are the same bits; every float agrees within 1e-10 of
        # the largest entry of its field; two calls give the same bytes.
        ens = (ellipse_toy_ensemble().ensemble if case == "toy"
               else far_outlier_ensemble(81, 20, 8))
        cfg = TrimConfig(alpha=alpha, restarts=restarts, seed=5)
        shared = trimmed_barycenter(ens, cfg)
        again = trimmed_barycenter(ens, cfg)
        reference = cold_trimmed_barycenter(ens, cfg, monkeypatch)
        for f in dataclasses.fields(TrimmedResult):
            got, ref = getattr(shared, f.name), getattr(reference, f.name)
            assert field_bytes(got) == field_bytes(getattr(again, f.name))
            if f.name in ("active_weights", "restart_index",
                          "outer_iterations"):
                assert field_bytes(got) == field_bytes(ref), f.name
            elif isinstance(got, LocScatter):
                for a, b in ((got.mean, ref.mean),
                             (got.cov.entries, ref.cov.entries)):
                    assert close_field(a, b), f.name
            else:
                assert len(np.atleast_1d(got)) == len(np.atleast_1d(ref))
                assert close_field(got, ref), f.name


class TestWarmStarts:
    def test_new_solve_starts_from_the_last_new_solve(self, monkeypatch):
        # Trims forced to A, B, A in restart 0 and A, C, C in restart 1: A
        # starts cold, B from A, and C from B, the call's last new solve,
        # not from A, the set restart 1 reused just before it.
        ens = far_outlier_ensemble(82, 4, 3)
        a = np.array([0.5, 0.5, 0.0, 0.0])
        b = np.array([0.0, 0.5, 0.5, 0.0])
        c = np.array([0.5, 0.0, 0.5, 0.0])
        trims = iter([a, b, a, a, c, c])
        monkeypatch.setattr(trimming, "_trim",
                            lambda *args: next(trims).copy())
        starts, scatters = [], []
        solve = trimming._barycenter

        def recording(ens, lam, start):
            res = solve(ens, lam, start)
            starts.append(start)
            scatters.append(res[0].bary.cov.entries)
            return res

        monkeypatch.setattr(trimming, "_barycenter", recording)
        trimmed_barycenter(ens, TrimConfig(alpha=0.5, restarts=2))
        assert len(starts) == 3
        assert starts[0] is None
        assert starts[1] is scatters[0]
        assert starts[2] is scatters[1]
        # One kept atom starts at its own scatter whatever the warm start.
        lone, _ = solve(ens, np.array([0.0, 0.0, 1.0, 0.0]), scatters[0],
                        1e-12, 1000)
        assert lone.iterations == 0
        assert (lone.bary.cov.entries.tobytes()
                == ens.members[2].cov.entries.tobytes())

    @staticmethod
    def lone_atom_paths(ens):
        # Each restart keeps one atom at weight exactly 1, and later
        # restarts find earlier solves in the shared dict.
        cfg = TrimConfig(alpha=0.75, restarts=8, seed=4)
        solved = {}
        paths = [trimming._restart_path(ens, cfg, r, solved)
                 for r in range(cfg.restarts)]
        assert len({int(np.flatnonzero(p[1])[0]) for p in paths}) > 1
        return paths, trimmed_barycenter(ens, cfg)

    @pytest.mark.parametrize("dim", [1, 2, 8])
    def test_single_kept_atom_is_its_member(self, dim):
        # A lone atom is solved at its own scatter, so its barycenter is
        # its member bit for bit and its variance the kernel's distance
        # from the member to itself, at any conditioning.
        ens = random_ensemble(np.random.default_rng(83 + dim), 4, dim,
                              condition_cap=1e6, equal=True)
        paths, _ = self.lone_atom_paths(ens)
        for center, lam_star, var, _, _ in paths:
            (i,) = np.flatnonzero(lam_star)
            member = ens.members[i]
            assert center.mean.tobytes() == member.mean.tobytes()
            assert (center.cov.entries.tobytes()
                    == member.cov.entries.tobytes())
            assert var == w2_distance_sq(member, member)

    @pytest.mark.parametrize("dim", [1, 2, 8])
    def test_single_kept_atom_has_zero_variance(self, dim):
        # Diagonal scatters with power-of-two entries: the distance from a
        # member to itself is exactly zero.
        ens = WeightedEnsemble.equal_weights(tuple(
            LocScatter(np.full(dim, float(i)),
                       certify_spd(np.diag(2.0 ** np.arange(dim)) * 4.0 ** i))
            for i in range(4)))
        paths, res = self.lone_atom_paths(ens)
        assert [p[2] for p in paths] == [0.0] * len(paths)
        assert res.trimmed_variance == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ill_conditioned_lone_atom_trim(self, seed):
        # Member 3 alone does not converge by iterating (condition 1e6 at
        # d = 8); trimming down to it returns it with zero variance.
        ens = random_ensemble(np.random.default_rng(91), 4, 8,
                              condition_cap=1e6, equal=True)
        res = trimmed_barycenter(ens, TrimConfig(alpha=0.75, restarts=8,
                                                 seed=seed))
        assert res.trimmed_variance == 0.0
        (i,) = np.flatnonzero(res.active_weights)
        assert (res.bary.cov.entries.tobytes()
                == ens.members[i].cov.entries.tobytes())

    @staticmethod
    def inner_steps(ensembles, monkeypatch):
        # Summed inner steps of one trimmed call per ensemble.
        steps = []
        solve = trimming._barycenter

        def counting(*args):
            res = solve(*args)
            steps.append(res[0].iterations)
            return res

        monkeypatch.setattr(trimming, "_barycenter", counting)
        for ens in ensembles:
            trimmed_barycenter(ens, TrimConfig(alpha=0.2, restarts=3,
                                               seed=ens.dim + ens.size))
        return sum(steps)

    def test_wide_grid_inner_step_count(self, monkeypatch):
        # The wide-consensus grid.  Starts from the last new solve and
        # Newton steps take 201, as did starts from the nearest solved set;
        # cold starts take 246.  With Anderson mixing alone, warm starts
        # and a history of 8 took 760, cold starts 881 with a history of 8
        # and 957 with 4.
        assert self.inner_steps(wide_grid(), monkeypatch) <= 201

    def test_planar_grid_inner_step_count(self, monkeypatch):
        # The wide-consensus recipe at d = 2 with k = 20, 60 and 200.
        # Starts from the last new solve take 260, starts from the nearest
        # solved set 252 and cold starts 264.
        grid = (far_outlier_ensemble([2, k, exponent], k, 2, 10.0 ** exponent,
                                     every=8)
                for k in (20, 60, 200) for exponent in (2, 4, 6))
        assert self.inner_steps(grid, monkeypatch) <= 260


class TestBallProperty:
    def test_alpha_zero_solution_passes(self):
        gen = np.random.default_rng(79)
        ens = random_ensemble(gen, 5, 2)
        res = trimmed_barycenter(ens, TrimConfig(alpha=0.0, restarts=2))
        check = verify_ball_property(res, ens, 0.0)
        assert check.ok

    def test_far_outlier_solution_passes(self):
        ens = far_outlier_trio()
        res = trimmed_barycenter(ens, TrimConfig(alpha=1.0 / 3.0, restarts=6))
        check = verify_ball_property(res, ens, 1.0 / 3.0)
        assert check.ok
        assert check.radius ** 2 == pytest.approx(0.0025, abs=1e-12)

    def test_swapped_weights_fail(self):
        # Moving the kept weight from the near atom onto the far outlier
        # breaks the ball shape.
        ens = far_outlier_trio()
        res = trimmed_barycenter(ens, TrimConfig(alpha=1.0 / 3.0, restarts=6))
        forged = TrimmedResult(
            bary=res.bary,
            active_weights=np.array([0.5, 0.0, 0.5]),
            trimmed_variance=res.trimmed_variance,
            outer_iterations=res.outer_iterations,
            restart_index=res.restart_index,
            radius=res.radius,
            variance_history=res.variance_history,
            restart_variances=res.restart_variances)
        check = verify_ball_property(forged, ens, 1.0 / 3.0)
        assert not check.ok
        assert check.violations

    def test_weight_shape_mismatch(self):
        ens = far_outlier_trio()
        res = trimmed_barycenter(ens, TrimConfig(alpha=1.0 / 3.0, restarts=2))
        forged = dataclasses.replace(res, active_weights=np.array([1.0]))
        with pytest.raises(BadWeights):
            verify_ball_property(forged, ens, 1.0 / 3.0)

    @pytest.mark.parametrize("alpha, weights, message", [
        (0.25, [0.0, 0.0, 0.0, 0.0], "no atom kept positive weight"),
        (0.25, [0.5, 0.0, 0.5, 0.0],
         "atom 1 strictly inside keeps 0.0 instead of full weight "
         "0.3333333333333333"),
        # Only a negative weight can sit beyond the radius, which is the
        # largest distance among atoms of positive weight.
        (0.25, [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0 + 0.1, -0.1],
         "atom 3 strictly outside keeps weight -0.1"),
        (0.5, [0.25, 0.5, 0.25, 0.0],
         "2 atoms are partially kept, expected <= 1"),
        (0.25, [0.4, 0.2, 0.4, 0.0],
         "partially kept atom 1 is off the boundary shell"),
        (0.25, [1.0 / 3.0, 1.0 / 3.0, 0.0, 0.0],
         "active weights sum to 0.6666666666666666"),
    ])
    def test_each_violation_is_named(self, alpha, weights, message):
        # Unit-scatter atoms at -1, 0, 1 and 10 around the solved center 0:
        # atoms 0 and 2 sit on the unit shell, atom 1 inside, atom 3 far.
        ens = WeightedEnsemble.equal_weights(
            tuple(gauss_1d(m, 1.0) for m in (-1.0, 0.0, 1.0, 10.0)))
        res = trimmed_barycenter(ens, TrimConfig(alpha=0.25, restarts=2))
        assert verify_ball_property(res, ens, 0.25).ok
        forged = dataclasses.replace(res, active_weights=np.array(weights))
        check = verify_ball_property(forged, ens, alpha)
        assert not check.ok
        assert message in check.violations

    @pytest.mark.parametrize("weights, atoms", [
        ([0.4, 1.0 / 3.0, 1.0 - 0.4 - 1.0 / 3.0, 0.0], (0,)),   # 0.2667
        ([0.7, 1.0 / 3.0, 1.0 - 0.7 - 1.0 / 3.0, 0.0], (0, 2)),  # -0.0333
    ])
    def test_shell_weight_outside_its_bounds_fails(self, weights, atoms):
        # Atoms 0 and 2 sit on the unit shell; each vector sums to one
        # within the tolerance and has at most one partial atom, so only
        # the bound on a shell atom's weight rejects it.
        ens = WeightedEnsemble.equal_weights(
            tuple(gauss_1d(m, 1.0) for m in (-1.0, 0.0, 1.0, 10.0)))
        res = trimmed_barycenter(ens, TrimConfig(alpha=0.25, restarts=2))
        forged = dataclasses.replace(res, active_weights=np.array(weights))
        check = verify_ball_property(forged, ens, 0.25)
        assert not check.ok
        assert check.violations == tuple(
            f"atom {i} on the boundary shell keeps {weights[i]!r}, "
            f"outside [0, 0.3333333333333333]" for i in atoms)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.3, 0.5])
    def test_partial_shell_weights_of_solves_pass(self, alpha):
        # A genuine solve keeps min(target - below, w_i) / target on its
        # partial atom, never more than the full weight.
        for seed in range(6):
            ens = random_ensemble(np.random.default_rng([31, seed]), 7, 2)
            res = trimmed_barycenter(ens, TrimConfig(alpha=alpha, restarts=3))
            full = ens.weights / (1.0 - alpha)
            assert np.all(res.active_weights <= full * (1 + 1e-12))
            assert verify_ball_property(res, ens, alpha).ok


class TestVarianceCurve:
    def test_single_zero_alpha(self):
        gen = np.random.default_rng(81)
        ens = random_ensemble(gen, 4, 2)
        points = variance_curve(ens, [0.0], restarts=3)
        assert len(points) == 1
        assert points[0].variance == pytest.approx(
            fixed_point_barycenter(ens).variance, rel=1e-10)

    def test_far_outlier_curve_values(self):
        # At alpha 0 only the means matter (all sigmas equal 1):
        # (0 + 0.01 + 100) / 3 - ((0 + 0.1 + 10) / 3)^2 = 22.00222...
        points = variance_curve(far_outlier_trio(), [0.0, 1.0 / 3.0],
                                restarts=6)
        assert points[0].variance == pytest.approx(22.002222222222223,
                                                   rel=1e-9)
        assert points[1].variance == pytest.approx(0.0025, abs=1e-12)

    def test_nonincreasing_in_alpha(self):
        gen = np.random.default_rng(82)
        for _ in range(5):
            ens = random_ensemble(gen, 6, 2, mean_scale=2.0, equal=True)
            points = variance_curve(ens, [0.0, 1.0 / 6.0, 2.0 / 6.0,
                                          3.0 / 6.0], restarts=12, seed=11)
            values = [p.variance for p in points]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-10

    def test_alphas_must_ascend(self):
        ens = far_outlier_trio()
        with pytest.raises(InvalidInput, match="ascending"):
            variance_curve(ens, [0.2, 0.1], 2)
        with pytest.raises(InvalidInput):
            variance_curve(ens, [0.0, 1.0], 2)


class TestBruteForce:
    def test_zero_trim_is_full_barycenter(self):
        gen = np.random.default_rng(83)
        ens = random_ensemble(gen, 5, 2, equal=True)
        res = brute_force_trimmed(ens, 0.0)
        plain = fixed_point_barycenter(ens)
        assert res.trimmed_variance == pytest.approx(plain.variance,
                                                     rel=1e-10)

    def test_far_outlier_keeps_near_pair(self):
        res = brute_force_trimmed(far_outlier_trio(), 1.0 / 3.0)
        np.testing.assert_allclose(res.active_weights, [0.5, 0.5, 0.0],
                                   atol=1e-12)
        assert res.trimmed_variance == pytest.approx(0.0025, abs=1e-12)

    def test_rejects_large_ensembles(self):
        members = tuple(gauss_1d(float(i), 1.0) for i in range(13))
        ens = WeightedEnsemble.equal_weights(members)
        with pytest.raises(UnsupportedConfiguration):
            brute_force_trimmed(ens, 0.0)

    def test_rejects_unequal_weights(self):
        ens = WeightedEnsemble(np.array([0.7, 0.3]),
                               (gauss_1d(0.0, 1.0), gauss_1d(1.0, 1.0)))
        with pytest.raises(UnsupportedConfiguration):
            brute_force_trimmed(ens, 0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), "0.2"])
    def test_rejects_invalid_alpha(self, alpha):
        with pytest.raises(InvalidInput, match="alpha must lie in"):
            brute_force_trimmed(far_outlier_trio(), alpha)

    def test_rejects_fractional_trim_levels(self):
        with pytest.raises(UnsupportedConfiguration):
            brute_force_trimmed(far_outlier_trio(), 0.25)

    def test_tie_breaks_toward_smallest_subset(self):
        # Perfectly symmetric pair of candidates: keeping {0,1} and {1,2}
        # give the same variance; the scan keeps the first.
        ens = WeightedEnsemble.equal_weights(
            (gauss_1d(-1.0, 1.0), gauss_1d(0.0, 1.0), gauss_1d(1.0, 1.0)))
        res = brute_force_trimmed(ens, 1.0 / 3.0)
        np.testing.assert_allclose(res.active_weights, [0.5, 0.5, 0.0],
                                   atol=1e-12)
