"""Trimming a planar toy ensemble with two planted outliers.

The packaged six-member ensemble has four overlapping ellipses near the
origin plus a far outlier (index 4) and a nearer one (index 5).  Raising
the trimming level alpha first removes the far outlier, then both, and
the trimmed variance drops sharply at each step.  The ball property of
every solution is verified: kept members lie inside a distance ball
around the trimmed barycenter, discarded ones outside.
"""

import numpy as np

from wcons import TrimConfig, trimmed_barycenter, verify_ball_property
from wcons.simulation import ellipse_toy_ensemble
from wcons.trimming import variance_curve


def main():
    doc = ellipse_toy_ensemble()
    ens = doc.ensemble
    print("members:")
    for label, member in zip(doc.labels, ens.members):
        print(f"  {label:13s} mean = {np.round(member.mean, 2)}")

    for alpha in (0.0, 1.0 / 6.0, 2.0 / 6.0):
        res = trimmed_barycenter(ens, TrimConfig(alpha=alpha, seed=0))
        kept = [doc.labels[i] for i in np.flatnonzero(res.active_weights)]
        check = verify_ball_property(res, ens, alpha)
        print(f"\nalpha = {alpha:.3f}")
        print(f"  trimmed variance = {res.trimmed_variance:.4f}, "
              f"support radius = {res.radius:.3f}")
        print(f"  kept: {', '.join(kept)}")
        print(f"  ball property: {'ok' if check.ok else check.violations}")

    alphas = np.arange(0.0, 0.51, 0.1)
    points = variance_curve(ens, alphas, seed=0)
    print("\nvariance curve:")
    for pt in points:
        print(f"  alpha = {pt.alpha:.1f} -> var = {pt.variance:8.4f}")


if __name__ == "__main__":
    main()
