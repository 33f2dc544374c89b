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

The law trim and harness digests were re-pinned a third time when
``random_spd`` began building its planar Haar factor in closed form
instead of by ``np.linalg.qr``: against commit fb91617 the member scatters
moved by at most 4.5e-16 and each float array pinned below by at most
3.1e-15 relative to its largest entry (each harness row entry by at most
7.8e-15 relative to itself); every kept-weight vector, restart index and
outer-iteration count stayed equal.  The brute-force toy, d = 8
ill-conditioned and ``g_map`` digests did not move, and the
general-dimension digest, d = 3 and d = 8 draws and eigenpairs, was
computed at that commit.

The law trim, ill-conditioned and harness digests were re-pinned a fourth
time when trimming inner solves began warm-starting from the nearest
solved kept set, the Anderson history grew from 4 to 8 steps, and rows
of the general-dimension Bures kernel within 1e-8 of their scale of zero
began taking the nuclear-norm route: against commit 19ffbd8 each float
array pinned below moved by at most 2.5e-12 relative to its largest
entry, every kept-weight vector, restart index and outer-iteration count
stayed equal, and only the ill-conditioned fixed point's iteration count
changed (27 to 23).  The brute-force toy, ``g_map`` and general-dimension
digests did not move.

The law trim, brute-force and harness digests were re-pinned a fifth
time when the planar scatter step became one weighted sum over the
members, R A R + sigma I with the next iterate A S A + 2 sigma A +
sigma^2 S^{-1}, and a solve's variance began reusing the step's cross
terms: against commit 091c027 each float array pinned below moved by at
most 2.5e-15 relative to its largest entry (each harness row entry by at
most 4.7e-15 relative to itself), and every kept-weight vector, restart
index and outer-iteration count stayed equal, as did the inner-step
counts.  The ill-conditioned, ``g_map`` and general-dimension digests did
not move.

The law trim, brute-force and harness digests were re-pinned a sixth
time when the planar scatter step, its Anderson mixing and the
certification of each iterate moved from 2 x 2 arrays to Python floats
(the Gram system solved by LDL^T, the norms by ``math.hypot``): against
commit 9811b1a each float array pinned below moved by at most 5.7e-15
relative to its largest entry (each harness row entry by at most 1.8e-14
relative to itself), and every kept-weight vector, restart index and
outer-iteration count stayed equal, as did the inner-step counts.  The
ill-conditioned, ``g_map`` and general-dimension digests did not move.

The law trim digest was re-pinned a seventh time when a trimming restart
began stopping at the first kept set it revisits, a kept set being named
by its kept atoms and which of them it keeps whole, and a boundary atom
whose remainder covers its weight began keeping that whole weight: against
commit f9e4a3c the restart's trailing re-solve of the kept set it already
had is gone, so its outer iterations went from 6 to 5 and its variance
history lost a sixth entry equal to the fifth bit for bit; the kept
weights moved by at most 1.1e-13 relative, the mean by 1.6e-14 and every
other float array by at most 2.8e-15 relative to its largest entry, and
the kept atoms and restart index stayed equal.  Every other digest did
not move.

The ill-conditioned digest was re-pinned a fifth time when the scatter
steps off d = 2 became Newton steps, (I - J) delta = S' - S solved by
GMRES on Jacobian products formed from the step's own eigenpairs, until
the plain change stops shrinking and Anderson mixing takes over: against
commit d51405c the fixed-point scatter moved by 1.6e-12 and the trimmed
scatter by 1.5e-12 relative to their largest entries, the variances, the
radius, the variance history and the restart variances by at most
3.2e-14 relative, the means and kept weights kept their bits, and the
kept atoms, restart index and outer-iteration count stayed equal.  The
fixed point's iteration count went from 23 to 6 and its residual, the
solve's own measure of its distance from the fixed point, from 2.0e-13
to 1.7e-13.  Every other digest did not move.

The law trim and harness digests were re-pinned once more when each new
kept set of a trimming call began starting from the scatter of the call's
last new solve instead of the nearest solved set: against commit ebf0ad4
the law trim scatter moved by 8.6e-17 and its variance history by 1.2e-15
relative to their largest entries, the harness reference scatter by
4.5e-13, its radius by 1.3e-13 and the harness rows by 3.3e-15 (9.4e-13
entry by entry), and every kept-weight vector, restart index and
outer-iteration count stayed equal.  Every other digest did not move.

Every digest here was computed with numpy 2.4.6 on OpenBLAS 0.3.31
(scipy-openblas, Python 3.11); another BLAS build can round differently.
"""

import hashlib

import numpy as np

from helpers import random_ensemble
from wcons import (RngState, SymMatrix, TrimConfig, WeightedEnsemble,
                   brute_force_trimmed, consistency_harness,
                   ellipse_toy_ensemble, fixed_point_barycenter, g_map,
                   gaussian_parameter_law, random_spd, sym_eigen,
                   trimmed_barycenter)


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


def general_dimension_digest():
    # Draws, certified eigenpairs and the eigenpairs of indefinite and
    # tied matrices off the planar path.
    gen = RngState(13).generator()
    parts = []
    for dim in (3, 8):
        for _ in range(10):
            spd = random_spd(dim, 1e6, gen)
            x = gen.standard_normal((dim, dim))
            parts += [spd.entries, spd.eigenvalues, spd.eigenvectors,
                      *sym_eigen(SymMatrix(x)),
                      *sym_eigen(SymMatrix(np.diag(np.round(x[0]))))]
    return sha256(parts)


def test_trimmed_law_ensemble_is_pinned():
    # Plain iteration: edaa671b...a6fbc688; scatter moved 1.2e-13 relative.
    # General-d kernels: fc245ed2...cf454195; scatter moved 2.1e-15 and
    # restart variances 1.0e-14 relative.
    # QR Haar factor: a9a9c0ec...20d92409; scatter moved 4.3e-16 and
    # restart variances 2.6e-15 relative.
    # Cold inner solves, history 4: 72100eb0...3d004668; scatter moved
    # 1.5e-15 and restart variances 2.3e-15 relative.
    # Per-member roots: 92800c07...8d4f5abf; scatter moved 1.7e-15 and
    # the variance history 2.5e-15 relative.
    # Planar step on arrays: 4bfd27a8...2289affd4; scatter moved 4.2e-16
    # and the variance history 1.5e-15 relative.
    # Variance-stall stop: 878bca4b...e3769590f4; outer iterations 6 to 5,
    # kept weights moved 1.1e-13 and scatter 1.3e-15 relative.
    # Nearest-set warm starts: 1f84394d...dc4e35c2; scatter moved 8.6e-17
    # and the variance history 1.2e-15 relative.
    assert law_trim_digest() == (
        "4a2408ea4027a9024048fc7b86ce7323"
        "7dc7a97063aecc655608178fd129fad4")


def test_ill_conditioned_barycenters_are_pinned():
    # Plain iteration: b1caf446...bb48dada; fixed-point scatter moved
    # 4.4e-12 and trimmed scatter 2.5e-12 relative, iterations 76 to 27.
    # Cold inner solves, history 4: 068b08c6...edbc6f17; fixed-point
    # scatter moved 1.2e-12 and trimmed scatter 2.5e-12 relative,
    # iterations 27 to 23.
    # Anderson mixing alone: 9c9e273f...fe7c93e2053d; fixed-point scatter
    # moved 1.6e-12 and trimmed scatter 1.5e-12 relative, iterations 23 to
    # 6, residual 2.0e-13 to 1.7e-13.
    assert ill_conditioned_digest() == (
        "8b8e20b06bad51862b29ea425efb2935"
        "2346636ce6eca93b54421c9ce0cad8c0")


def test_g_map_is_pinned():
    assert g_map_digest() == (
        "d83049e6f2c7e277c7e86c4f73ab2b7a"
        "6530dea96bea3c41828ba692664bb9ad")


def test_brute_force_toy_is_pinned():
    # Plain iteration: 2576c3c5...5df138; scatter moved 7.9e-13 relative.
    # General-d kernels: adcaf316...24414a40; scatter moved 4.5e-16
    # relative.
    # Per-member roots: 6de2abfd...d993dfaf; scatter moved 7.5e-16 and
    # the variances 1.6e-16 relative.
    # Planar step on arrays: 2fb9c4a7...1d83dd8d; scatter moved 1.5e-16
    # relative, and the variances kept their bits.
    assert brute_force_digest() == (
        "1af23663bbc616d2ca398e90ef7e5098"
        "0802e94e1fd2d1068c31d2215eec32d2")


def test_consistency_harness_is_pinned():
    # Plain iteration: 9c167705...12099a79; rows moved 1.5e-13 relative.
    # General-d kernels: 5584fb62...b1699381; rows moved 2.0e-14 relative.
    # QR Haar factor: d39b18e8...733f7c92; rows moved 3.1e-15
    # relative (7.8e-15 entry by entry).
    # Cold inner solves, history 4: 6bd82db7...0f69b8f4; reference
    # scatter moved 1.9e-13 and rows 1.3e-13 relative (3.4e-13 entry by
    # entry).
    # Per-member roots: 620bfc78...ecde2b8e; reference scatter moved
    # 3.4e-16 and rows 1.9e-15 relative (4.7e-15 entry by entry).
    # Planar step on arrays: 75571bb8...acc9460ec; reference scatter moved
    # 4.6e-16 and rows 5.7e-15 relative (1.8e-14 entry by entry).
    # Nearest-set warm starts: a82b30f5...85ed913a; reference scatter
    # moved 4.5e-13 and rows 3.3e-15 relative (9.4e-13 entry by entry).
    assert harness_digest() == (
        "ed04ca74f12f251824f588da8ce7b175"
        "3d9df5f1ec45106b8a95efcae3210dd5")


def test_general_dimension_draws_are_pinned():
    # Computed at commit fb91617: the planar closed forms leave every
    # other dimension's bits as they were.
    assert general_dimension_digest() == (
        "bfd480c70a38067cdccb3298eae3d385"
        "9479dc03262035618385dff37cf5b527")
