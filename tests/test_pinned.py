"""Bit-for-bit pins of the solvers' outputs.

Every digest below was computed once at commit 2a51b01, which stacked the
ensemble arrays from the member objects on every call, rebuilt a
sub-ensemble of members at every trimming step, and kept separate code
for the single-pair distance, the scatter step of ``g_map`` and the two
trimmed-result builders.  The array-backed code must reproduce those
outputs exactly.
"""

import hashlib

import numpy as np

from helpers import random_ensemble
from wcons import (RngState, TrimConfig, WeightedEnsemble,
                   brute_force_trimmed, consistency_harness,
                   ellipse_toy_ensemble, fixed_point_barycenter, g_map,
                   gaussian_parameter_law, trimmed_barycenter)


def sha256(parts):
    digest = hashlib.sha256()
    for a in parts:
        a = np.asarray(a)
        digest.update(np.ascontiguousarray(
            a, dtype=a.dtype.newbyteorder("<")).tobytes())
    return digest.hexdigest()


def member_parts(p):
    return [p.mean, p.cov.entries]


def trimmed_parts(res):
    return member_parts(res.bary) + [
        res.active_weights,
        np.array([res.trimmed_variance, res.radius]),
        np.array([res.outer_iterations, res.restart_index], dtype=np.int64),
        np.array(res.variance_history),
        np.array(res.restart_variances)]


def law_ensemble():
    gen = RngState(11).generator()
    law = gaussian_parameter_law(dim=2)
    return WeightedEnsemble.equal_weights(tuple(law(gen) for _ in range(200)))


def ill_conditioned_ensemble():
    return random_ensemble(RngState(12).generator(), 20, 8,
                           condition_cap=1e6)


def law_trim_digest():
    cfg = TrimConfig(alpha=0.2, restarts=3, seed=5)
    return sha256(trimmed_parts(trimmed_barycenter(law_ensemble(), cfg)))


def ill_conditioned_digest():
    ens = ill_conditioned_ensemble()
    res = fixed_point_barycenter(ens)
    trim = trimmed_barycenter(ens, TrimConfig(alpha=0.2, restarts=3, seed=6))
    return sha256(member_parts(res.bary)
                  + [np.array([res.residual, res.variance]),
                     np.array([res.iterations], dtype=np.int64)]
                  + trimmed_parts(trim))


def g_map_digest():
    ens = ill_conditioned_ensemble()
    return sha256(member_parts(g_map(ens, ens.members[3])))


def brute_force_digest():
    ens = ellipse_toy_ensemble().ensemble
    return sha256(trimmed_parts(brute_force_trimmed(ens, 1.0 / 6.0)))


def harness_digest():
    rep = consistency_harness(gaussian_parameter_law(), [8, 16], alpha=0.25,
                              reps=2, seed=9, restarts=2)
    parts = trimmed_parts(rep.reference)
    for row in rep.rows:
        parts += [np.array([row.n], dtype=np.int64),
                  np.array([row.median_w2_sq_to_reference,
                            row.median_trimmed_variance, row.variance_gap])]
    return sha256(parts)


def test_trimmed_law_ensemble_is_pinned():
    assert law_trim_digest() == (
        "edaa671b3906498d3e72eca670b5a7e7"
        "b8f1b90eaede57b36dcd47e6a5fbc688")


def test_ill_conditioned_barycenters_are_pinned():
    assert ill_conditioned_digest() == (
        "b1caf446599c3815f7b25c9a5ef078a8"
        "c3ef53a0e53d03cfc72ae31abb48dada")


def test_g_map_is_pinned():
    assert g_map_digest() == (
        "d83049e6f2c7e277c7e86c4f73ab2b7a"
        "6530dea96bea3c41828ba692664bb9ad")


def test_brute_force_toy_is_pinned():
    assert brute_force_digest() == (
        "2576c3c58dbcf26867da0dbc628ff2f9"
        "f71b5916bad22ec449dc05d8c55df138")


def test_consistency_harness_is_pinned():
    assert harness_digest() == (
        "9c1677056dcdbe3e1a58a5f568d5f85a"
        "02a78a95a545f36fc74cc12a12099a79")
