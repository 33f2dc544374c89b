"""Command-line interface.

Summaries go to stdout with six significant digits; machine-readable
artifacts are written to ``--out`` paths as JSON or CSV with full
round-trip float precision.  Exit status is 0 on success, 1 on any
validation or I/O problem (bad flags, malformed or too deeply nested
documents, non-certifiable inputs, files that cannot be read or decoded as
UTF-8, unwritable files) and 2 when a solver gives up, loses numerical
positivity or meets a closed form that overflows (planar scatters past a
scale of about 1e154).  Every failure is reported as one line on stderr, and a
command that fails writes no ``--out`` file.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .barycenter import (DEFAULT_MAX_ITER, DEFAULT_TOL,
                         fixed_point_barycenter, linear_mean,
                         log_euclidean_mean)
from .errors import (DegenerateTrim, InvalidInput, MaxIterationsExceeded,
                     NotPositiveDefinite, ParseError, SingularSubset,
                     UnsupportedConfiguration)
from .ensemble_io import (_write_csv, _write_json, loc_scatter_obj,
                          parse_ensemble, read_quantile_grid,
                          write_quantile_grid)
from .locscatter import w2_distance_sq
from .trimming import TrimConfig, trimmed_barycenter, variance_curve
from .univariate import quantile_barycenter, variance_1d

__all__ = ["run_command", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_single(path):
    ens = parse_ensemble(path, normalize=True).ensemble
    if ens.size != 1:
        raise InvalidInput(
            f"{path}: expected exactly one distribution, found {ens.size}")
    return ens.members[0]


def _list(text, what, kind):
    try:
        return [kind(x) for x in text.split(",") if x != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise _UsageError(f"{what} must be comma-separated {noun}: {text!r}")


_MAX_ALPHAS = 10_000


def _alpha_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--alphas expects START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--alphas expects numbers, got {text!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise _UsageError(f"--alphas expects finite numbers, got {text!r}")
    if step <= 0.0:
        raise _UsageError("--alphas step must be positive")
    values = []
    while True:
        a = start + len(values) * step
        if a > stop + 1e-12:
            break
        if len(values) == _MAX_ALPHAS:
            raise _UsageError(
                f"--alphas range has more than {_MAX_ALPHAS} points")
        values.append(min(a, stop))
    if not values:
        raise _UsageError("--alphas range is empty")
    return values


def _trim_payload(res):
    return {
        "barycenter": loc_scatter_obj(res.bary),
        "active_weights": [float(w) for w in res.active_weights],
        "trimmed_variance": res.trimmed_variance,
        "radius": res.radius,
        "outer_iterations": res.outer_iterations,
        "restart_index": res.restart_index,
        "variance_history": list(res.variance_history),
        "restart_variances": list(res.restart_variances),
    }


def cmd_distance(args):
    p = _load_single(args.first)
    q = _load_single(args.second)
    d2 = w2_distance_sq(p, q)
    print(f"w2_sq = {d2:.6g}")
    print(f"w2 = {math.sqrt(d2):.6g}")
    return 0


def cmd_barycenter(args):
    ens = parse_ensemble(args.ensemble, args.normalize).ensemble
    res = fixed_point_barycenter(ens, tol=args.tol, max_iter=args.max_iter)
    print(f"mean = [{', '.join(f'{x:.6g}' for x in res.bary.mean)}]")
    for row in res.bary.cov.entries:
        print(f"cov = [{', '.join(f'{x:.6g}' for x in row)}]")
    print(f"variance = {res.variance:.6g}")
    print(f"iterations = {res.iterations}")
    print(f"residual = {res.residual:.6g}")
    if args.out:
        _write_json(args.out, {
            "barycenter": loc_scatter_obj(res.bary),
            "variance": res.variance,
            "iterations": res.iterations,
            "residual": res.residual,
        })
    return 0


def cmd_trim(args):
    ens = parse_ensemble(args.ensemble, args.normalize).ensemble
    cfg = TrimConfig(alpha=args.alpha, restarts=args.restarts, seed=args.seed)
    res = trimmed_barycenter(ens, cfg)
    print(f"active_weights = [{', '.join(f'{w:.6g}' for w in res.active_weights)}]")
    print(f"trimmed_variance = {res.trimmed_variance:.6g}")
    print(f"radius = {res.radius:.6g}")
    print(f"outer_iterations = {res.outer_iterations}")
    print(f"restart_index = {res.restart_index}")
    if args.out:
        _write_json(args.out, _trim_payload(res))
    return 0


def cmd_variance_curve(args):
    ens = parse_ensemble(args.ensemble, args.normalize).ensemble
    points = variance_curve(ens, _alpha_range(args.alphas), args.restarts,
                            args.seed)
    _write_csv(args.out, ("alpha", "var_alpha"),
               [(pt.alpha, pt.variance) for pt in points])
    for pt in points:
        print(f"alpha = {pt.alpha:.6g} -> var = {pt.variance:.6g}")
    return 0


def cmd_compare(args):
    ens = parse_ensemble(args.ensemble, args.normalize).ensemble
    bary = fixed_point_barycenter(ens).bary
    logeuc = log_euclidean_mean(ens)
    linear = linear_mean(ens)
    pairs = {
        "barycenter_log_euclidean": w2_distance_sq(bary, logeuc),
        "barycenter_linear": w2_distance_sq(bary, linear),
        "log_euclidean_linear": w2_distance_sq(logeuc, linear),
    }
    for name, agg in (("barycenter", bary), ("log_euclidean", logeuc),
                      ("linear_mean", linear)):
        print(f"{name}: trace = {agg.cov.trace():.6g}")
    for name, value in pairs.items():
        print(f"w2_sq {name} = {value:.6g}")
    if args.out:
        _write_json(args.out, {
            "barycenter": loc_scatter_obj(bary),
            "log_euclidean": loc_scatter_obj(logeuc),
            "linear_mean": loc_scatter_obj(linear),
            "pairwise_w2_sq": pairs,
        })
    return 0


def cmd_ellipse(args):
    from .simulation import ellipse_points
    doc = parse_ensemble(args.ensemble, args.normalize)
    rows = [(doc.labels[i] or f"entry-{i}", float(x), float(y))
            for i, member in enumerate(doc.ensemble.members)
            for x, y in ellipse_points(member, args.count)]
    _write_csv(args.out, ("label", "x", "y"), rows)
    print(f"wrote {doc.ensemble.size * args.count} points to {args.out}")
    return 0


def cmd_bary1d(args):
    grids = [read_quantile_grid(path) for path in args.grids]
    if args.weights is None:
        weights = np.full(len(grids), 1.0 / len(grids))
    else:
        weights = np.asarray(_list(args.weights, "--weights", float))
    bary = quantile_barycenter(weights, grids)
    # All three figures first, so an overflow prints no partial summary.
    mean, var = bary.mean(), bary.variance()
    ens_var = variance_1d(weights, grids, bary)
    print(f"mean = {mean:.6g}")
    print(f"variance = {var:.6g}")
    print(f"ensemble_variance = {ens_var:.6g}")
    if args.out:
        write_quantile_grid(args.out, bary)
    return 0


def cmd_simulate_hospitals(args):
    from .simulation import HospitalConfig, hospital_experiment
    beta = tuple(_list(args.beta, "--beta", float))
    cfg = HospitalConfig(k=args.k, n=args.n, contamination_beta=beta,
                         mcd_fraction=args.mcd_fraction,
                         alpha_trim=args.alpha, seed=args.seed)
    report = hospital_experiment(cfg)
    print(f"w2_sq barycenter = {report.w2_sq_barycenter:.6g}")
    print(f"w2_sq trimmed = {report.w2_sq_trimmed:.6g}")
    print(f"w2_sq linear = {report.w2_sq_linear:.6g}")
    print(f"units_over_20pct = {report.units_over_20pct}")
    if args.out:
        _write_json(args.out, {
            "w2_sq_barycenter": report.w2_sq_barycenter,
            "w2_sq_trimmed": report.w2_sq_trimmed,
            "w2_sq_linear": report.w2_sq_linear,
            "units_over_20pct": report.units_over_20pct,
            "unit_outlier_counts": list(report.unit_outlier_counts),
            "barycenter": loc_scatter_obj(report.barycenter),
            "trimmed": _trim_payload(report.trimmed),
            "linear": loc_scatter_obj(report.linear),
            "config": {
                "k": cfg.k, "n": cfg.n,
                "inlier": loc_scatter_obj(cfg.inlier),
                "outlier": loc_scatter_obj(cfg.outlier),
                "contamination_beta": list(cfg.contamination_beta),
                "mcd_fraction": cfg.mcd_fraction,
                "alpha_trim": cfg.alpha_trim,
                "seed": cfg.seed,
                "mcd_restarts": cfg.mcd_restarts,
                "trim_restarts": cfg.trim_restarts,
            },
        })
    return 0


def cmd_simulate_consistency(args):
    from .simulation import consistency_harness, gaussian_parameter_law
    sizes = _list(args.n, "--n", int)
    report = consistency_harness(gaussian_parameter_law(), sizes,
                                 alpha=args.alpha, reps=args.reps,
                                 seed=args.seed)
    _write_csv(args.out, ("n", "median_w2_sq_to_reference",
                          "median_trimmed_variance", "variance_gap"),
               [(row.n, row.median_w2_sq_to_reference,
                 row.median_trimmed_variance, row.variance_gap)
                for row in report.rows])
    for row in report.rows:
        print(f"n = {row.n}: median w2_sq = "
              f"{row.median_w2_sq_to_reference:.6g}, "
              f"variance gap = {row.variance_gap:.6g}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="wcons", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def ens_arg(p):
        p.add_argument("ensemble", help="ensemble JSON document")
        p.add_argument("--normalize", action="store_true",
                       help="rescale weights to sum to one")

    p = sub.add_parser("distance", help="distance between two members")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("barycenter", help="barycenter of an ensemble")
    ens_arg(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_barycenter)

    p = sub.add_parser("trim", help="trimmed barycenter")
    ens_arg(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--restarts", type=int, default=TrimConfig.restarts)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_trim)

    p = sub.add_parser("variance-curve",
                       help="trimmed variance over a range of alphas")
    ens_arg(p)
    p.add_argument("--alphas", required=True, metavar="START:STOP:STEP")
    p.add_argument("--restarts", type=int, default=TrimConfig.restarts)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_variance_curve)

    p = sub.add_parser("compare",
                       help="barycenter vs log-Euclidean vs linear mean")
    ens_arg(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("ellipse", help="trace member ellipses to CSV")
    ens_arg(p)
    p.add_argument("--count", type=int, default=256)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ellipse)

    p = sub.add_parser("bary1d", help="quantile-grid barycenter")
    p.add_argument("grids", nargs="+", help="quantile CSV files")
    p.add_argument("--weights", help="comma-separated weights")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bary1d)

    sim = sub.add_parser("simulate", help="seeded simulation studies")
    simsub = sim.add_subparsers(dest="study", required=True)

    p = simsub.add_parser("hospitals", help="contaminated units study")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--beta", default="4,36")
    p.add_argument("--mcd-fraction", type=float, default=0.8)
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_simulate_hospitals)

    p = simsub.add_parser("consistency", help="growing-ensemble study")
    p.add_argument("--n", default="50,200,800")
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate_consistency)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (_UsageError, ParseError, InvalidInput, NotPositiveDefinite,
            DegenerateTrim, UnsupportedConfiguration, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MaxIterationsExceeded, SingularSubset, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
