"""Bit-for-bit pins of the solvers' outputs.

The digests were first computed at commit 2a51b01, and the array-backed
code reproduced them exactly.  When the scatter iteration became
Anderson-accelerated, every digest whose objects come out of a barycenter
solve was re-pinned once: against the plain iteration of commit 95931c0,
each float array pinned below moved by at most 4.4e-12 relative to its
largest entry, every kept-weight vector, restart index and outer-iteration
count stayed equal, and only the ill-conditioned fixed point's iteration
count changed (76 to 27).  ``g_map`` is one plain step and did not move.
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
    # Plain iteration: edaa671b...a6fbc688; scatter moved 1.2e-13 relative.
    assert law_trim_digest() == (
        "fc245ed288dbc1c8c7668f968c2a7695"
        "24f959e8d84f8a8762f80018cf454195")


def test_ill_conditioned_barycenters_are_pinned():
    # Plain iteration: b1caf446...bb48dada; fixed-point scatter moved
    # 4.4e-12 and trimmed scatter 2.5e-12 relative, iterations 76 to 27.
    assert ill_conditioned_digest() == (
        "068b08c6e3afb6c5e0dfbc5692f005f3"
        "b4b3775fef21789ec8806f79edbc6f17")


def test_g_map_is_pinned():
    assert g_map_digest() == (
        "d83049e6f2c7e277c7e86c4f73ab2b7a"
        "6530dea96bea3c41828ba692664bb9ad")


def test_brute_force_toy_is_pinned():
    # Plain iteration: 2576c3c5...5df138; scatter moved 7.9e-13 relative.
    assert brute_force_digest() == (
        "adcaf316778c05a74afecfc001e1964f"
        "944e598057d35f01b4b6ce0924414a40")


def test_consistency_harness_is_pinned():
    # Plain iteration: 9c167705...12099a79; rows moved 1.5e-13 relative.
    assert harness_digest() == (
        "5584fb6280cecdc68c68ef61e47dd9e6"
        "99a48f4a68dcdc1ac6228f17b1699381")
