"""Fixed-point barycenters, the Anderson-accelerated solver against the
plain iteration, the one-step averaged-transport map and the
Log-Euclidean / linear baselines.

Commuting ensembles give closed forms (the barycenter's per-direction
sigma is the weighted mean of the member sigmas), which anchor most of
the numeric oracles here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wcons.barycenter as barycenter_module
import wcons.trimming as trimming_module
from wcons import (BadWeights, DimensionMismatch, InvalidInput, LocScatter,
                   MaxIterationsExceeded, NotPositiveDefinite, RngState,
                   TrimConfig, WeightedEnsemble, barycenter_variance,
                   certify_spd, fixed_point_barycenter, g_map,
                   gaussian_parameter_law, gaussian_quantiles,
                   linear_mean, log_euclidean_mean, quantile_barycenter,
                   trimmed_barycenter, variance_1d, w2_distance_sq)
from wcons.barycenter import (BarycenterResult, _barycenter, _gmres,
                              _jacobian, _planar_step, _scatter_step)
from wcons.locscatter import _bures_sq, _planar_stack
from wcons.spd import _certify_planar

from helpers import (ENVELOPE, commuting_ensemble, directional_sigmas, gauss,
                     gauss_1d, planar_psd, random_ensemble, random_member,
                     random_orthogonal, sigma_trio, wide_grid)


def as_matrix(s):
    a, b, c = s
    return np.array([[a, b], [b, c]])


def planar_step(spd, covs, lam):
    """The float step from a certified 2 x 2 scatter, as 2 x 2 arrays."""
    a, b, _, c = spd.entries.ravel().tolist()
    return tuple(map(as_matrix, _planar_step(
        (a, b, c), _certify_planar(a, b, c), lam, _planar_stack(covs))))


def planar_gap(u, v, norm):
    """Relative Frobenius distance of 2 x 2 matrices held as ``(a, b, c)``,
    in the solver's operation order."""
    d0, d1, d2 = u[0] - v[0], u[1] - v[1], u[2] - v[2]
    return math.hypot(d0, d1, d1, d2) / norm


def plain_barycenter(ens, tol=1e-12, max_iter=1000):
    """The unaccelerated scatter iteration with the solver's stopping rule:
    the reference the Anderson-accelerated solver is checked against."""
    lam, means, covs = ens.weights, ens.means(), ens.covs()
    s = np.einsum("k,kij->ij", lam, covs)
    for step in range(max_iter + 1):
        spd = certify_spd(s)
        if ens.dim == 2:
            a, b, _, c = spd.entries.ravel().tolist()
            mixed, s_next = _planar_step((a, b, c), _certify_planar(a, b, c),
                                         lam, _planar_stack(covs))
            norm_s = math.hypot(a, b, b, c)
            residual = planar_gap(mixed, (a, b, c), norm_s)
            change = planar_gap(s_next, (a, b, c), norm_s)
            s_next = as_matrix(s_next)
        else:
            mixed, s_next, _ = _scatter_step(spd, covs, lam)
            norm_s = np.linalg.norm(s)
            residual = np.linalg.norm(mixed - s) / norm_s
            change = np.linalg.norm(s_next - s) / norm_s
        if change < tol and residual <= 10.0 * tol:
            bary = LocScatter(lam @ means, spd)
            return BarycenterResult(
                bary=bary, iterations=step, residual=float(residual),
                variance=float(lam @ _bures_sq(bary, means, covs)))
        s = s_next
    raise MaxIterationsExceeded("plain iteration did not converge")


def assert_same_barycenter(res, ref, rel=1e-10):
    np.testing.assert_array_equal(res.bary.mean, ref.bary.mean)
    gap = np.linalg.norm(res.bary.cov.entries - ref.bary.cov.entries)
    assert gap <= rel * np.linalg.norm(ref.bary.cov.entries)
    assert abs(res.variance - ref.variance) <= rel * ref.variance


class TestWeightedEnsemble:
    def test_weight_count_must_match(self):
        with pytest.raises(BadWeights):
            WeightedEnsemble(np.array([1.0]),
                             (gauss_1d(0.0, 1.0), gauss_1d(1.0, 1.0)))

    def test_weights_must_be_positive(self):
        with pytest.raises(BadWeights):
            WeightedEnsemble(np.array([1.5, -0.5]),
                             (gauss_1d(0.0, 1.0), gauss_1d(1.0, 1.0)))

    def test_weights_must_be_numeric(self):
        # Used to raise numpy's ValueError from the float conversion.
        with pytest.raises(BadWeights, match="numeric"):
            WeightedEnsemble(["a"], (gauss_1d(0.0, 1.0),))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(BadWeights):
            WeightedEnsemble(np.array([0.5, 0.6]),
                             (gauss_1d(0.0, 1.0), gauss_1d(1.0, 1.0)))

    def test_must_not_be_empty(self):
        with pytest.raises(BadWeights):
            WeightedEnsemble(np.zeros(0), ())
        with pytest.raises(BadWeights):
            WeightedEnsemble.equal_weights(())

    def test_members_must_share_dimension(self):
        with pytest.raises(DimensionMismatch):
            WeightedEnsemble(np.array([0.5, 0.5]),
                             (gauss_1d(0.0, 1.0),
                              gauss([0.0, 0.0], np.eye(2))))

    def test_equal_weights(self):
        ens = WeightedEnsemble.equal_weights(
            tuple(gauss_1d(float(i), 1.0) for i in range(4)))
        np.testing.assert_allclose(ens.weights, np.full(4, 0.25), rtol=1e-15)
        assert ens.size == 4 and ens.dim == 1

    def test_stackers(self):
        ens = sigma_trio()
        assert ens.means().shape == (3, 1)
        assert ens.covs().shape == (3, 1, 1)

    def test_stacks_are_built_once_read_only(self):
        ens = sigma_trio()
        assert ens.means() is ens.means() and ens.covs() is ens.covs()
        for i, m in enumerate(ens.members):
            np.testing.assert_array_equal(ens.means()[i], m.mean)
            np.testing.assert_array_equal(ens.covs()[i], m.cov.entries)
        with pytest.raises(ValueError):
            ens.covs()[0, 0, 0] = 9.0
        with pytest.raises(ValueError):
            ens.means()[0, 0] = 9.0

    def test_weights_read_only(self):
        ens = sigma_trio()
        with pytest.raises(ValueError):
            ens.weights[0] = 0.9


class TestFixedPointBarycenter:
    def test_single_member_is_fixed_point(self):
        p = gauss([1.0, -1.0], [[2.0, 0.4], [0.4, 1.0]])
        res = fixed_point_barycenter(WeightedEnsemble.equal_weights((p,)))
        np.testing.assert_array_equal(res.bary.cov.entries, p.cov.entries)
        np.testing.assert_array_equal(res.bary.mean, p.mean)
        assert res.iterations == 0
        assert res.residual <= 1e-14
        assert res.variance <= 1e-12

    def test_ill_conditioned_single_member_is_returned(self):
        # Condition 1e6 at d = 8: the round-off of the plain step keeps its
        # relative change above tol, so iterating would never stop.  A lone
        # member is its own barycenter and comes back at step 0.
        ens = random_ensemble(np.random.default_rng(91), 4, 8,
                              condition_cap=1e6, equal=True)
        p = ens.members[3]
        res = fixed_point_barycenter(WeightedEnsemble.equal_weights((p,)))
        assert res.iterations == 0
        assert res.bary.mean.tobytes() == p.mean.tobytes()
        assert res.bary.cov.entries.tobytes() == p.cov.entries.tobytes()
        assert 0.0 < res.residual <= 1e-10

    def test_isotropic_pair(self):
        # Coordinate-wise 1D: sigma = (1 + 3) / 2 = 2 per direction.
        ens = WeightedEnsemble.equal_weights(
            (gauss([0.0, 0.0], np.eye(2)), gauss([0.0, 0.0], 9.0 * np.eye(2))))
        res = fixed_point_barycenter(ens)
        np.testing.assert_allclose(res.bary.cov.entries, 4.0 * np.eye(2),
                                   atol=1e-12)

    def test_three_sigma_values(self):
        # sigma values 0.2, 1, 2: the barycenter sigma is their mean 16/15,
        # the ensemble variance is 1.68 - (16/15)^2 = 122/225.
        res = fixed_point_barycenter(sigma_trio())
        sigma_bar = math.sqrt(res.bary.cov.entries[0, 0])
        assert sigma_bar == pytest.approx(16.0 / 15.0, abs=1e-9)
        assert sigma_bar == pytest.approx(1.067, abs=1e-3)
        assert res.bary.cov.entries[0, 0] == pytest.approx(1.1378, abs=1e-3)
        assert res.variance == pytest.approx(122.0 / 225.0, abs=1e-9)
        assert res.residual <= 1e-11

    def test_mean_is_exact_weighted_average(self):
        gen = np.random.default_rng(51)
        ens = random_ensemble(gen, 5, 3)
        res = fixed_point_barycenter(ens)
        np.testing.assert_allclose(res.bary.mean, ens.weights @ ens.means(),
                                   rtol=1e-14, atol=1e-16)

    def test_residual_small_on_random_ensembles(self):
        gen = np.random.default_rng(52)
        for _ in range(20):
            k = int(gen.integers(2, 51))
            dim = int(gen.integers(1, 11))
            ens = random_ensemble(gen, k, dim, condition_cap=1e4)
            res = fixed_point_barycenter(ens)
            assert res.residual <= 1e-8

    def test_permutation_invariance(self):
        gen = np.random.default_rng(53)
        for _ in range(10):
            ens = random_ensemble(gen, 6, 3)
            perm = gen.permutation(6)
            shuffled = WeightedEnsemble(ens.weights[perm],
                                        tuple(ens.members[i] for i in perm))
            a = fixed_point_barycenter(ens).bary
            b = fixed_point_barycenter(shuffled).bary
            gap = np.linalg.norm(a.cov.entries - b.cov.entries)
            assert gap <= 1e-10 * np.linalg.norm(a.cov.entries)
            np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)

    def test_equivariance_under_similarity(self):
        from wcons import similarity_pushforward
        gen = np.random.default_rng(54)
        for _ in range(20):
            dim = int(gen.integers(1, 6))
            ens = random_ensemble(gen, 4, dim)
            c = float(gen.uniform(0.3, 3.0))
            rot = random_orthogonal(gen, dim)
            shift = gen.standard_normal(dim)
            pushed_ens = WeightedEnsemble(
                ens.weights,
                tuple(similarity_pushforward(m, c, rot, shift)
                      for m in ens.members))
            direct = fixed_point_barycenter(pushed_ens).bary
            moved = similarity_pushforward(fixed_point_barycenter(ens).bary,
                                           c, rot, shift)
            assert w2_distance_sq(direct, moved) <= 1e-8 * c * c

    def test_commuting_chain_log_euclidean_below_linear(self):
        gen = np.random.default_rng(55)
        for _ in range(30):
            dim = int(gen.integers(1, 5))
            k = int(gen.integers(2, 7))
            ens, q, _ = commuting_ensemble(gen, k, dim)
            s_bary = directional_sigmas(
                fixed_point_barycenter(ens).bary.cov.entries, q)
            s_log = directional_sigmas(log_euclidean_mean(ens).cov.entries, q)
            s_lin = directional_sigmas(linear_mean(ens).cov.entries, q)
            assert np.all(s_log <= s_bary + 1e-10)
            assert np.all(s_bary <= s_lin + 1e-10)

    def test_centered_trace_bound(self):
        gen = np.random.default_rng(56)
        for _ in range(50):
            dim = int(gen.integers(1, 5))
            k = int(gen.integers(2, 7))
            ens = random_ensemble(gen, k, dim, mean_scale=0.0)
            bary = fixed_point_barycenter(ens).bary
            lhs = math.sqrt(bary.cov.trace())
            rhs = float(ens.weights @ [math.sqrt(m.cov.trace())
                                       for m in ens.members])
            assert lhs <= rhs + 1e-10

    def test_variance_identities(self):
        gen = np.random.default_rng(57)
        for _ in range(30):
            k = int(gen.integers(2, 12))
            dim = int(gen.integers(1, 6))
            ens = random_ensemble(gen, k, dim)
            res = fixed_point_barycenter(ens)
            m_bar = res.bary.mean
            s_bar = res.bary.cov
            mean_part = float(ens.weights @
                              ((ens.means() - m_bar) ** 2).sum(axis=1))
            trace_part = float(ens.weights @
                               (np.trace(ens.covs(), axis1=1, axis2=2)
                                - s_bar.trace()))
            line1 = mean_part + trace_part
            raw = float(ens.weights @ ((ens.means() ** 2).sum(axis=1)
                                       + np.trace(ens.covs(), axis1=1, axis2=2)))
            line2 = raw - (float(m_bar @ m_bar) + s_bar.trace())
            assert res.variance == pytest.approx(line1, rel=1e-8)
            assert res.variance == pytest.approx(line2, rel=1e-8)

    def test_one_dimensional_closed_form(self):
        gen = np.random.default_rng(58)
        for _ in range(20):
            k = int(gen.integers(2, 10))
            sigmas = gen.uniform(0.2, 3.0, size=k)
            means = gen.uniform(-2.0, 2.0, size=k)
            w = gen.uniform(0.5, 1.5, size=k)
            w = w / w.sum()
            ens = WeightedEnsemble(
                w, tuple(gauss_1d(m, s) for m, s in zip(means, sigmas)))
            res = fixed_point_barycenter(ens)
            expect = float(w @ sigmas) ** 2
            assert abs(res.bary.cov.entries[0, 0] - expect) <= 1e-10

    def test_matches_quantile_barycenter(self):
        means = [0.0, 2.0]
        sigmas = [1.0, 3.0]
        weights = [0.5, 0.5]
        ens = WeightedEnsemble(
            np.array(weights),
            tuple(gauss_1d(m, s) for m, s in zip(means, sigmas)))
        matrix_var = fixed_point_barycenter(ens).variance
        grids = [gaussian_quantiles(m, s) for m, s in zip(means, sigmas)]
        bary_grid = quantile_barycenter(weights, grids)
        grid_var = variance_1d(weights, grids, bary_grid)
        assert matrix_var == pytest.approx(grid_var, abs=5e-3)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_max_iterations_exceeded(self, dim):
        # The weighted mean of the scatters is not the barycenter of
        # distinct members, so the step from it misses a tolerance of
        # 1e-300.  Later steps may not: at d = 1 the first step can land
        # on a floating-point fixed point, where the change is exactly 0.
        # In every dimension the failure carries the last iterate as a
        # symmetric (d, d) float array and the residual as a float.
        ens = random_ensemble(np.random.default_rng(dim), 4, dim)
        with pytest.raises(MaxIterationsExceeded) as err:
            fixed_point_barycenter(ens, tol=1e-300, max_iter=0)
        last = err.value.last_iterate
        assert type(last) is np.ndarray and last.dtype == np.float64
        assert last.shape == (dim, dim)
        np.testing.assert_array_equal(last, last.T)
        assert type(err.value.residual) is float

    def test_bad_budgets_rejected(self):
        ens = sigma_trio()
        for kwargs in ({"max_iter": -1}, {"tol": 0.0}, {"tol": -1e-12},
                       {"tol": float("nan")}, {"tol": float("inf")},
                       {"tol": True}):
            with pytest.raises(InvalidInput):
                fixed_point_barycenter(ens, **kwargs)

    def test_zero_budget_accepts_a_converged_start(self):
        p = gauss([1.0, -1.0], [[2.0, 0.4], [0.4, 1.0]])
        res = fixed_point_barycenter(WeightedEnsemble.equal_weights((p,)),
                                     max_iter=0)
        assert res.iterations == 0

    def test_init_at_solution_converges_immediately(self):
        # The private start argument is how trimming warm-starts a solve.
        ens = sigma_trio()
        solved = fixed_point_barycenter(ens)
        again, _ = _barycenter(ens, ens.weights, solved.bary.cov.entries,
                               1e-12, 1000)
        assert again.iterations == 0
        np.testing.assert_allclose(again.bary.cov.entries,
                                   solved.bary.cov.entries, rtol=1e-12)


class TestAndersonAcceleration:
    def test_agrees_with_plain_iteration_in_fewer_steps(self):
        # Near tol both iterations can wander at the rounding floor of the
        # relative change for a step or two; on a wider probe of 549
        # converged ensembles one case took 22 accelerated steps against
        # 20 plain ones.  Per case that much slack is allowed, while the
        # grid as a whole must take at most half the plain steps.
        slack = 2
        plain_steps = fast_steps = 0
        covered = set()
        for dim in (1, 2, 5, 8, 16):
            for k in (2, 20, 60):
                for exponent in (2, 4, 6, 8):
                    gen = np.random.default_rng([dim, k, exponent])
                    ens = random_ensemble(gen, k, dim,
                                          condition_cap=10.0 ** exponent)
                    try:
                        # Converged grid cases take at most 177 plain
                        # steps; the rest stall at the rounding floor.
                        ref = plain_barycenter(ens, max_iter=400)
                    except MaxIterationsExceeded:
                        # The plain relative change floors above tol at
                        # the highest caps; there is nothing to compare.
                        continue
                    res = fixed_point_barycenter(ens)
                    assert_same_barycenter(res, ref)
                    assert res.iterations <= ref.iterations + slack
                    plain_steps += ref.iterations
                    fast_steps += res.iterations
                    covered.add((dim, exponent))
        assert {d for d, _ in covered} == {1, 2, 5, 8, 16}
        assert {e for _, e in covered} == {2, 4, 6, 8}
        assert fast_steps <= 0.5 * plain_steps

    def test_wide_grid_step_count(self):
        # Twelve seeded ensembles of the wide-consensus shape, d 8/16,
        # k 20/60, condition numbers up to 1e2/1e4/1e6.  Newton steps take
        # 61 steps in all; Anderson mixing alone took 201 with a history
        # of 8 and 220 with 4.
        steps = sum(fixed_point_barycenter(ens).iterations
                    for ens in wide_grid())
        assert steps <= 61

    @pytest.mark.parametrize("dim, cap, bound", [(5, 1e8, 86),
                                                 (16, 1e6, 80)])
    def test_converging_stall_rows_step_count(self, dim, cap, bound):
        # The two rows of the stall table (twelve seeds of twenty members)
        # in which every seed converges; Anderson mixing alone took 378
        # steps at d = 5, cap 1e8 and 304 at d = 16, cap 1e6.
        steps = sum(fixed_point_barycenter(random_ensemble(
            np.random.default_rng(seed), 20, dim, condition_cap=cap))
            .iterations for seed in range(12))
        assert steps <= bound

    def test_rejected_candidate_falls_back_to_plain_step(self, monkeypatch):
        # The first Newton candidate is refused; the next iterate certified
        # is the plain step it would have replaced.
        ens = random_ensemble(np.random.default_rng(71), 20, 5,
                              condition_cap=1e4)
        newton = barycenter_module._newton
        certify = barycenter_module.certify_spd
        pending = []
        rejected = []
        after = []

        def first_candidate(f, lin, change):
            cand = newton(f, lin, change)
            if cand is not None and not rejected:
                pending.append((cand, lin[-1]))
            return cand

        def reject_first_candidate(m):
            if pending:
                rejected.append(pending.pop())
                assert np.array_equal(m, rejected[0][0])
                raise NotPositiveDefinite("rejected for the test")
            if rejected and not after:
                after.append(m)
            return certify(m)

        monkeypatch.setattr(barycenter_module, "_newton", first_candidate)
        monkeypatch.setattr(barycenter_module, "certify_spd",
                            reject_first_candidate)
        res = fixed_point_barycenter(ens)
        assert len(rejected) == 1
        np.testing.assert_array_equal(after[0], rejected[0][1])
        assert_same_barycenter(res, plain_barycenter(ens))
        assert res.residual <= 10.0 * 1e-12

    def test_singular_gram_takes_plain_step(self, monkeypatch):
        # In one dimension the iteration reaches its fixed point in one
        # step; with a tolerance no relative change can beat, it then
        # repeats the same residual, so the 1 x 1 Gram matrix of residual
        # differences is exactly zero.
        solve = np.linalg.solve
        singular = []

        def watch(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(a.shape)
                raise

        monkeypatch.setattr(np.linalg, "solve", watch)
        with pytest.raises(MaxIterationsExceeded) as err:
            fixed_point_barycenter(sigma_trio(), tol=1e-300, max_iter=12)
        assert singular and all(shape == (1, 1) for shape in singular)
        assert err.value.last_iterate[0, 0] == pytest.approx(
            (16.0 / 15.0) ** 2, rel=1e-14)

    def test_non_finite_gram_solution_takes_plain_step(self, monkeypatch):
        # A Krylov or Gram solution with a NaN is no candidate: every step
        # falls back to the plain one, so the solve retraces the plain
        # iteration.  Past its floor the plain change stops shrinking and
        # the solve switches to Anderson mixing, whose Gram solutions are
        # NaN too.
        krylov = []
        calls = []

        def nan_krylov(apply, b, rtol):
            krylov.append(b.shape)
            return np.full(b.shape, np.nan)

        def nan_solution(a, b):
            calls.append(a.shape)
            return np.full(b.shape, np.nan)

        monkeypatch.setattr(barycenter_module, "_gmres", nan_krylov)
        monkeypatch.setattr(np.linalg, "solve", nan_solution)
        ens = random_ensemble(np.random.default_rng(71), 20, 5,
                              condition_cap=1e4)
        res = fixed_point_barycenter(ens)
        ref = plain_barycenter(ens)
        assert krylov and all(shape == (5, 5) for shape in krylov)
        assert res.iterations == ref.iterations
        np.testing.assert_array_equal(res.bary.cov.entries,
                                      ref.bary.cov.entries)
        with pytest.raises(MaxIterationsExceeded) as err:
            fixed_point_barycenter(ens, tol=1e-300, max_iter=60)
        # The raise carries the iterate after steps 0 to 60.
        s = np.einsum("k,kij->ij", ens.weights, ens.covs())
        for _ in range(61):
            s = _scatter_step(certify_spd(s), ens.covs(), ens.weights)[1]
        assert calls and all(shape == (1, 1) for shape in calls)
        np.testing.assert_array_equal(err.value.last_iterate, s)

    def test_switches_to_anderson_once_change_stops_shrinking(
            self, monkeypatch):
        # Newton candidates while each plain relative change is below the
        # one before, then Anderson mixing for the rest of the solve.
        kinds = []
        changes = []
        extrapolate = barycenter_module._Arrays.extrapolate

        def watch(self, g, f, history, change):
            changes.append(change)
            return extrapolate(self, g, f, history, change)

        monkeypatch.setattr(barycenter_module._Arrays, "extrapolate", watch)
        for name in ("_newton", "_extrapolate"):
            def record(*args, name=name, fn=getattr(barycenter_module, name)):
                kinds.append(name)
                return fn(*args)
            monkeypatch.setattr(barycenter_module, name, record)
        ens = random_ensemble(np.random.default_rng(71), 20, 5,
                              condition_cap=1e4)
        with pytest.raises(MaxIterationsExceeded):
            fixed_point_barycenter(ens, tol=1e-300, max_iter=40)
        newton = kinds.count("_newton")
        assert 1 < newton < len(changes)
        assert kinds[:newton] == ["_newton"] * newton
        assert set(kinds[newton:]) == {"_extrapolate"}
        assert all(b < a for a, b in zip(changes[:newton - 1],
                                         changes[1:newton]))
        assert changes[newton] >= changes[newton - 1]

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_jacobian_product_matches_finite_difference(self, dim):
        # J E against the central difference (S'(S + hE) - S'(S - hE)) / 2h
        # at the weighted mean of the scatters, with |E| = |S| and h = 1e-5,
        # within 1e-8 |E|.  They agree to about 2e-10 |E|, where |J E| is
        # about 0.1 |E| at d = 3 and 8; at d = 1 one step reaches the
        # fixed point from any start, so J is zero.
        gen = np.random.default_rng([dim, 9])
        ens = random_ensemble(gen, 6, dim, condition_cap=1e3)
        lam, covs = ens.weights, ens.covs()
        s = np.einsum("k,kij->ij", lam, covs)
        e = gen.standard_normal((dim, dim))
        e = (e + e.T) * (np.linalg.norm(s) / np.linalg.norm(e + e.T))
        h = 1e-5
        plus, minus = (_scatter_step(certify_spd(s + x * e), covs, lam)[1]
                       for x in (h, -h))
        diff = (plus - minus) / (2.0 * h)
        product = _jacobian(*_scatter_step(certify_spd(s), covs, lam)[2])
        gap = np.linalg.norm(product(e) - diff)
        assert gap <= 1e-8 * np.linalg.norm(e)

    def test_zero_root_denominator_gives_no_jacobian(self):
        # A member transported to rank d - 2 has two zero roots, so
        # sqrt(a_i) + sqrt(a_k) is zero and no Newton candidate is formed.
        spd = certify_spd(np.eye(3))
        root_w = np.array([[0.0, 0.0, 1.0]])
        vecs = np.eye(3)[None]
        assert _jacobian(spd, np.eye(3), vecs, vecs, root_w, np.ones(1),
                         np.eye(3), np.eye(3)) is None

    def test_krylov_solve_matches_dense_solve(self):
        # Six unknowns: GMRES is exact by its sixth product.
        gen = np.random.default_rng(6)
        a = np.eye(6) + 0.5 * gen.standard_normal((6, 6))
        b = gen.standard_normal(6)
        products = []

        def apply(x):
            products.append(x)
            return a @ x

        x = _gmres(apply, b, 1e-12)
        assert len(products) <= 6
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-10,
                                   atol=0.0)

    def test_planar_rejected_candidate_falls_back_to_plain_step(
            self, monkeypatch):
        # At d = 2 the candidate is certified on floats; after the first
        # one is rejected, the next iterate certified is the plain step.
        ens = random_ensemble(np.random.default_rng(71), 20, 2,
                              condition_cap=1e4)
        extrapolate = barycenter_module._planar_extrapolate
        certify = barycenter_module._certify_planar
        pending = []
        rejected = []
        after = []

        def first_candidate(g, f, history):
            cand = extrapolate(g, f, history)
            if cand is not None and not rejected:
                pending.append((cand, g))
            return cand

        def reject_first_candidate(*s):
            if pending:
                rejected.append(pending.pop())
                assert s == rejected[0][0]
                raise NotPositiveDefinite("rejected for the test")
            if rejected and not after:
                after.append(s)
            return certify(*s)

        monkeypatch.setattr(barycenter_module, "_planar_extrapolate",
                            first_candidate)
        monkeypatch.setattr(barycenter_module, "_certify_planar",
                            reject_first_candidate)
        res = fixed_point_barycenter(ens)
        assert len(rejected) == 1
        assert after == [rejected[0][1]]
        assert_same_barycenter(res, plain_barycenter(ens))
        assert res.residual <= 10.0 * 1e-12

    def test_planar_singular_gram_takes_plain_step(self, monkeypatch):
        # Diagonal members: every iterate is diagonal, so the residual
        # differences span two of the three entries and the Gram matrix of
        # three of them is singular.  Each singular solve restarts the
        # history from the plain step, so the next solve has one pair.
        solve = barycenter_module._gram_solve
        sizes = []

        def watch(gram, rhs):
            x = solve(gram, rhs)
            sizes.append((len(rhs), x is None))
            return x

        monkeypatch.setattr(barycenter_module, "_gram_solve", watch)
        ens = WeightedEnsemble.equal_weights(tuple(
            gauss([0.0, 0.0], np.diag(d))
            for d in ((0.04, 1.0), (1.0, 2.0), (4.0, 0.5))))
        with pytest.raises(MaxIterationsExceeded) as err:
            fixed_point_barycenter(ens, tol=1e-300, max_iter=12)
        singular = [i for i, (_, none) in enumerate(sizes) if none]
        assert singular
        assert all(sizes[i + 1][0] == 1 for i in singular
                   if i + 1 < len(sizes))
        expected = np.diag([(3.2 / 3.0) ** 2,
                            ((1.0 + math.sqrt(2.0) + math.sqrt(0.5)) / 3.0)
                            ** 2])
        np.testing.assert_allclose(err.value.last_iterate, expected,
                                   rtol=1e-14, atol=0.0)

    def test_planar_non_finite_gram_solution_takes_plain_step(
            self, monkeypatch):
        # A NaN Gram solution is no candidate: the float solve retraces
        # the plain iteration bit for bit.
        calls = []

        def nan_solution(gram, rhs):
            calls.append(len(rhs))
            return [math.nan] * len(rhs)

        monkeypatch.setattr(barycenter_module, "_gram_solve", nan_solution)
        ens = random_ensemble(np.random.default_rng(71), 20, 2,
                              condition_cap=1e4)
        res = fixed_point_barycenter(ens)
        ref = plain_barycenter(ens)
        assert calls and all(m == 1 for m in calls)
        assert res.iterations == ref.iterations
        assert res.residual == ref.residual
        np.testing.assert_array_equal(res.bary.cov.entries,
                                      ref.bary.cov.entries)


class TestGMap:
    def test_barycenter_is_fixed_point(self):
        gen = np.random.default_rng(61)
        ens = random_ensemble(gen, 5, 3)
        bary = fixed_point_barycenter(ens).bary
        mapped = g_map(ens, bary)
        gap = np.linalg.norm(mapped.cov.entries - bary.cov.entries)
        assert gap <= 1e-10 * np.linalg.norm(bary.cov.entries)
        np.testing.assert_allclose(mapped.mean, bary.mean, atol=1e-12)

    def test_commuting_one_step_update(self):
        # Starting scatter 1 with member sigmas 1 and 3: the update is
        # ((1 + 3) / 2)^2 = 4.
        ens = WeightedEnsemble.equal_weights(
            (gauss_1d(0.0, 1.0), gauss_1d(0.0, 3.0)))
        out = g_map(ens, gauss_1d(0.0, 1.0))
        assert out.cov.entries[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_mean_is_weighted_average(self):
        gen = np.random.default_rng(62)
        ens = random_ensemble(gen, 4, 2)
        out = g_map(ens, random_member(gen, 2))
        np.testing.assert_allclose(out.mean, ens.weights @ ens.means(),
                                   rtol=1e-14, atol=1e-16)

    def test_descent_on_random_pairs(self):
        gen = np.random.default_rng(63)
        for _ in range(100):
            dim = int(gen.integers(1, 5))
            ens = random_ensemble(gen, int(gen.integers(2, 7)), dim)
            eta = random_member(gen, dim)
            v0 = barycenter_variance(ens, eta)
            v1 = barycenter_variance(ens, g_map(ens, eta))
            assert v1 <= v0 + 1e-12 * v0
            gap = w2_distance_sq(eta, g_map(ens, eta))
            if gap > 1e-8 * (1.0 + v0):
                assert v1 < v0

    def test_descent_along_full_iteration(self):
        gen = np.random.default_rng(64)
        for _ in range(10):
            ens = random_ensemble(gen, 5, 3)
            eta = random_member(gen, 3)
            v0 = barycenter_variance(ens, eta)
            prev = v0
            for _ in range(30):
                eta = g_map(ens, eta)
                now = barycenter_variance(ens, eta)
                assert now <= prev + 1e-12 * v0
                prev = now

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            g_map(sigma_trio(), gauss([0.0, 0.0], np.eye(2)))


# Envelope of the planar step: scales 1e-6 to 1e6, condition numbers up to
# 1e8 (as far as certification admits at the scale), any orientation.
PLANAR_SPEC = st.tuples(st.floats(-6.0, 6.0), st.floats(0.0, 8.0),
                        st.floats(0.0, math.pi))


def certified_planar(e, c, angle):
    scale = 10.0 ** e
    cap = min(10.0 ** c, 1e9 * scale / max(1.0, scale))
    return certify_spd(planar_psd(scale, cap, angle))


def eigen_step(s, covs, lam):
    """The scatter step through eigendecompositions: S^{1/2} and S^{-1/2}
    from ``eigh``, each member root (R S_j R)^{1/2} as U diag(sv) U^T from
    the SVD of L_j^T R (L_j the Cholesky factor of S_j).  Taking that root
    from ``eigh`` of R S_j R instead loses up to the square root of the
    round-off on near-singular products (2.9e-10 of the sum measured)."""
    w, v = np.linalg.eigh(s)
    root = (v * np.sqrt(w)) @ v.T
    inv_root = (v / np.sqrt(w)) @ v.T
    mixed = np.zeros((2, 2))
    for weight, c in zip(lam, covs):
        _, sv, ut = np.linalg.svd(np.linalg.cholesky(c).T @ root)
        mixed += weight * ((ut.T * sv) @ ut)
    return mixed, inv_root @ mixed @ mixed @ inv_root


class TestPlanarStep:
    """The d = 2 step on floats, R A R + sigma I and A S A + 2 sigma A +
    sigma^2 S^{-1}, against the eigendecomposition route.  The sum of roots is
    compared within 1e-12 of sum_j lam_j sqrt(|S| |S_j|) (spectral norms),
    the scale its products are formed at; the next iterate within 1e-12
    of |S^{-1}| |mixed|^2, the scale of the products S^{-1/2} mixed^2
    S^{-1/2} that the reference forms.  Over 8,000 draws biased to the
    envelope's edges and 5,000 further examples the largest gaps of the
    step on arrays were 2.9e-13 and 2.1e-13 of those scales; on another
    8,000 edge-biased draws the step on floats and the step on arrays
    both reached 3.3e-13 and 4.1e-13."""

    @ENVELOPE
    @given(PLANAR_SPEC, st.lists(st.tuples(PLANAR_SPEC,
                                           st.floats(0.5, 1.5)),
                                 min_size=1, max_size=8))
    def test_matches_eigendecomposition_reference(self, spec, members):
        spd = certified_planar(*spec)
        covs = np.array([certified_planar(*m).entries for m, _ in members])
        lam = np.array([w for _, w in members])
        lam /= lam.sum()
        mixed, s_next = planar_step(spd, covs, lam)
        ref_mixed, ref_next = eigen_step(spd.entries, covs, lam)
        top = spd.eigenvalues[0]
        scale = float(lam @ np.sqrt(top * np.linalg.eigvalsh(covs)[:, -1]))
        assert np.abs(mixed - ref_mixed).max() <= 1e-12 * scale
        scale = np.linalg.eigvalsh(ref_mixed)[-1] ** 2 / spd.eigenvalues[1]
        assert np.abs(s_next - ref_next).max() <= 1e-12 * scale
        np.testing.assert_array_equal(mixed, mixed.T)
        np.testing.assert_array_equal(s_next, s_next.T)

    @ENVELOPE
    @given(st.floats(-6.0, 6.0), st.floats(0.0, 8.0),
           st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_variance_is_barycenter_variance(self, e, c, k, seed):
        # Members within a decade of 10^e, means at that scale.
        gen = np.random.default_rng(seed)
        scale = 10.0 ** e
        members = tuple(
            LocScatter(math.sqrt(scale) * gen.standard_normal(2),
                       certified_planar(e + gen.uniform(-1.0, 1.0),
                                        gen.uniform(0.0, c),
                                        gen.uniform(0.0, math.pi)))
            for _ in range(k))
        w = gen.uniform(0.5, 1.5, size=k)
        ens = WeightedEnsemble(w / w.sum(), members)
        res = fixed_point_barycenter(ens)
        # A solve's variance is the Bures kernel at its certified iterate,
        # bit for bit.
        assert res.variance == barycenter_variance(ens, res.bary)

    @pytest.mark.parametrize("k", [1, 2, 50])
    def test_lone_solve_is_the_kernel_bit_for_bit(self, k):
        # One planar problem solved on its own: its variance is the Bures
        # kernel at the certified iterate, and a trimmed_barycenter call
        # at alpha 0, which solves the same problem and shares one planar
        # stack among its distances, returns the same bits.
        gen = RngState(k).generator()
        law = gaussian_parameter_law()
        ens = WeightedEnsemble.equal_weights(tuple(law(gen)
                                                   for _ in range(k)))
        res = fixed_point_barycenter(ens)
        assert res.variance == barycenter_variance(ens, res.bary)
        if k == 1:
            assert res.iterations == 0
            np.testing.assert_array_equal(res.bary.cov.entries,
                                          ens.covs()[0])
        trim = trimmed_barycenter(ens, TrimConfig(alpha=0.0, restarts=1))
        np.testing.assert_array_equal(trim.bary.cov.entries,
                                      res.bary.cov.entries)
        assert trim.trimmed_variance == res.variance
        d2 = _bures_sq(res.bary, ens.means(), ens.covs())
        assert trim.radius == float(np.sqrt(np.max(d2)))

    @pytest.mark.parametrize("scale", [1e78, 1e120, 1e150])
    def test_huge_scale_is_the_scaled_solve(self, scale):
        # Past scale 1e77 the product det S det S_j overflows, so the cross
        # terms take the product of the roots of the determinants instead:
        # the solve, the trimming and the distances then hold up to about
        # 1e154 without a warning (past it they raise ArithmeticError).
        ens = random_ensemble(np.random.default_rng(5), 6, 2,
                              condition_cap=10.0)
        big = WeightedEnsemble(ens.weights, tuple(
            LocScatter(math.sqrt(scale) * m.mean,
                       certify_spd(scale * m.cov.entries))
            for m in ens.members))
        ref, res = fixed_point_barycenter(ens), fixed_point_barycenter(big)
        assert res.iterations == ref.iterations
        gap = np.linalg.norm(res.bary.cov.entries
                             - scale * ref.bary.cov.entries)
        assert gap <= 1e-12 * scale * np.linalg.norm(ref.bary.cov.entries)
        cfg = TrimConfig(alpha=0.2)
        np.testing.assert_array_equal(
            trimmed_barycenter(big, cfg).active_weights,
            trimmed_barycenter(ens, cfg).active_weights)
        assert math.isfinite(w2_distance_sq(big.members[0], big.members[1]))

    def test_growing_inputs_take_the_same_steps(self, monkeypatch):
        # Law ensembles of sizes 50 and 200, seeds 0-5, trimmed at 0.2 with
        # three restarts.  The step with per-member roots (commit 091c027)
        # took 452 inner steps in 126 solves; the weighted sum on arrays
        # took the same, and so does the step on floats.  Stopping a
        # restart at its first revisited kept set drops 13 zero-step
        # re-solves of kept sets already solved: 452 steps in 113 solves.
        steps = []
        solve = trimming_module._barycenter

        def counting(*args):
            res = solve(*args)
            steps.append(res[0].iterations)
            return res

        monkeypatch.setattr(trimming_module, "_barycenter", counting)
        law = gaussian_parameter_law()
        for seed in range(6):
            for n in (50, 200):
                gen = RngState(seed).generator()
                ens = WeightedEnsemble.equal_weights(
                    tuple(law(gen) for _ in range(n)))
                trimmed_barycenter(ens, TrimConfig(alpha=0.2, restarts=3,
                                                   seed=seed))
        assert (sum(steps), len(steps)) == (452, 113)


class TestVariance:
    def test_identical_members(self):
        p = gauss([1.0, 2.0], [[2.0, 0.3], [0.3, 1.5]])
        ens = WeightedEnsemble.equal_weights((p, p, p))
        res = fixed_point_barycenter(ens)
        assert res.variance <= 1e-12

    def test_two_shifted_unit_gaussians(self):
        ens = WeightedEnsemble.equal_weights(
            (gauss_1d(0.0, 1.0), gauss_1d(2.0, 1.0)))
        res = fixed_point_barycenter(ens)
        assert res.bary.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert res.bary.cov.entries[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert res.variance == pytest.approx(1.0, abs=1e-10)

    def test_candidate_of_other_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            barycenter_variance(sigma_trio(), gauss([0.0, 0.0], np.eye(2)))

    def test_direct_sum_definition(self):
        gen = np.random.default_rng(65)
        ens = random_ensemble(gen, 6, 2)
        eta = random_member(gen, 2)
        direct = sum(float(w) * w2_distance_sq(m, eta)
                     for w, m in zip(ens.weights, ens.members))
        assert barycenter_variance(ens, eta) == pytest.approx(direct,
                                                              rel=1e-10)


class TestBaselines:
    def test_log_euclidean_of_identical_members(self):
        p = gauss([0.5], [[2.5]])
        ens = WeightedEnsemble.equal_weights((p, p))
        out = log_euclidean_mean(ens)
        np.testing.assert_allclose(out.cov.entries, p.cov.entries,
                                   rtol=1e-12)

    def test_log_euclidean_three_sigmas(self):
        # Geometric mean of 0.2, 1, 2 is 0.4^(1/3) = 0.7368.
        out = log_euclidean_mean(sigma_trio())
        sigma = math.sqrt(out.cov.entries[0, 0])
        assert sigma == pytest.approx((0.2 * 1.0 * 2.0) ** (1.0 / 3.0),
                                      abs=1e-9)
        assert sigma == pytest.approx(0.737, abs=1e-3)

    def test_log_euclidean_swapped_diagonals(self):
        ens = WeightedEnsemble.equal_weights(
            (gauss([0.0, 0.0], np.diag([1.0, 4.0])),
             gauss([0.0, 0.0], np.diag([4.0, 1.0]))))
        np.testing.assert_allclose(log_euclidean_mean(ens).cov.entries,
                                   2.0 * np.eye(2), atol=1e-12)

    def test_linear_mean_three_sigmas(self):
        # Mean of the variances 0.04, 1 and 4 is 1.68, sigma 1.296.
        out = linear_mean(sigma_trio())
        assert out.cov.entries[0, 0] == pytest.approx(1.68, abs=1e-12)
        assert math.sqrt(out.cov.entries[0, 0]) == pytest.approx(1.296,
                                                                 abs=1e-3)

    def test_linear_mean_entrywise(self):
        ens = WeightedEnsemble.equal_weights(
            (gauss([0.0, 0.0], np.diag([1.0, 4.0])),
             gauss([0.0, 0.0], np.diag([3.0, 2.0]))))
        np.testing.assert_allclose(linear_mean(ens).cov.entries,
                                   np.diag([2.0, 3.0]), atol=1e-14)

    def test_baseline_means_are_weighted_averages(self):
        gen = np.random.default_rng(66)
        ens = random_ensemble(gen, 4, 3)
        expect = ens.weights @ ens.means()
        np.testing.assert_allclose(log_euclidean_mean(ens).mean, expect,
                                   rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(linear_mean(ens).mean, expect,
                                   rtol=1e-14, atol=1e-16)
