"""Bit-for-bit pins of the solvers' outputs.

The digests were first computed at commit 2a51b01, and the array-backed
code reproduced them exactly.  When the scatter iteration became
Anderson-accelerated, every digest whose objects come out of a barycenter
solve was re-pinned once: against the plain iteration of commit 95931c0,
each float array pinned below moved by at most 4.4e-12 relative to its
largest entry, every kept-weight vector, restart index and outer-iteration
count stayed equal, and only the ill-conditioned fixed point's iteration
count changed (76 to 27).  ``g_map`` is one plain step and did not move.

The d = 2 digests (law trim, brute force, harness) were re-pinned once
more when the planar Bures distance and scatter-step square roots became
closed-form: against the general eigenvalue path of commit f160ccd, each
float array moved by at most 1.0e-14 relative to its largest entry (each
harness row column by at most 2.0e-14 relative to its own largest), and
every kept-weight vector, restart index and outer-iteration count stayed
equal.  The d = 8 ill-conditioned and ``g_map`` digests did not move.
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
    # General-d kernels: fc245ed2...cf454195; scatter moved 2.1e-15 and
    # restart variances 1.0e-14 relative.
    assert law_trim_digest() == (
        "a9a9c0ecd0d7228b838ca744b42c7ac3"
        "1d2138a86f8fcb55b663dcb120d92409")


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
    # General-d kernels: adcaf316...24414a40; scatter moved 4.5e-16
    # relative.
    assert brute_force_digest() == (
        "6de2abfd9cc057a409aee37ba7772798"
        "182fa7b3f44b39aef896a935d993dfaf")


def test_consistency_harness_is_pinned():
    # Plain iteration: 9c167705...12099a79; rows moved 1.5e-13 relative.
    # General-d kernels: 5584fb62...b1699381; rows moved 2.0e-14 relative.
    assert harness_digest() == (
        "d39b18e845747db0c9defb3f371e6305"
        "2513398507759d20ccdf8266733f7c92")
