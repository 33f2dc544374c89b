"""Per-layer measurements for the traced run.

Layers that an op reaches only inside the program (spd, locscatter, the MCD
estimator) are measured by replaying the op's own inputs through that
layer's public function, with a span around each call.  Layers a workload
never reaches are measured once per traced run by small probes on inputs
made from the same seed, so every traced run reports every layer.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

import numpy as np

import inputs
from spans import Tracer, duration_ms

from wcons import (HospitalConfig, LocScatter, MaxIterationsExceeded,
                   RngState, SingularSubset, TrimConfig, WeightedEnsemble,
                   c_step_path, certify_spd, estimate_mcd,
                   fixed_point_barycenter, gaussian_parameter_law,
                   linear_mean, trimmed_barycenter, w2_distances_sq)
from wcons.barycenter import DEFAULT_TOL
from wcons.simulation import mcd_consistency_factor
from wcons.spd import sqrt_psd_batch

# Split index hospital_experiment reserves for its aggregation stage.
HOSPITAL_AGGREGATE_TAG = 0x5EED
# Solver failures a replay may meet; they are counted, never raised.
SOLVER_FAILURES = (ArithmeticError, MaxIterationsExceeded)
PROBE_UNITS = 20
PROBE_DRAW = 200
ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict:
    """Environment for a fresh interpreter that imports wcons from source."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def fixed_point_problems(res) -> list[str]:
    if not (np.isfinite(res.residual) and res.residual <= 10.0 * DEFAULT_TOL):
        return [f"fixed-point residual {res.residual!r} above 10*tol"]
    return []


def traced_fixed_point(tr, ens, account=False):
    with tr.span("barycenter.fixed_point_barycenter", account=account) as rec:
        res = fixed_point_barycenter(ens)
        rec["iterations"] = res.iterations
    return res


def traced_trim(tr, ens, cfg, account=False):
    with tr.span("trimming.trimmed_barycenter", account=account,
                 restarts=cfg.restarts) as rec:
        res = trimmed_barycenter(ens, cfg)
        rec["outer_iterations"] = res.outer_iterations
    return res


def replay_stack(tr: Tracer, failures: Counter, weights, means, covs,
                 center: LocScatter, fixed_point: bool) -> list[str]:
    """Replay one op's ensemble through spd, locscatter and barycenter.

    Returns output-check problems of the replayed fixed point.
    """
    k = covs.shape[0]
    with tr.span("spd.certify_spd", count=k):
        for c in covs:
            certify_spd(c)
    with tr.span("locscatter.build", count=k):
        members = tuple(LocScatter(m, certify_spd(c))
                        for m, c in zip(means, covs))
        ens = WeightedEnsemble(weights, members)
    root = center.cov.sqrt()
    inner = root @ covs @ root
    inner = 0.5 * (inner + np.swapaxes(inner, -1, -2))
    with tr.span("spd.sqrt_psd_batch", count=k):
        sqrt_psd_batch(inner)
    try:
        with tr.span("locscatter.w2_distances_sq", count=k):
            w2_distances_sq(center, members)
        if fixed_point:
            return fixed_point_problems(traced_fixed_point(tr, ens))
    except SOLVER_FAILURES as exc:
        failures[type(exc).__name__] += 1
    return []


def hospital_units(cfg: HospitalConfig, tr, count: int | None = None,
                   probe_paths: bool = False):
    """Recompute a study's per-unit estimates through public calls.

    Mirrors the unit recipe of ``hospital_experiment``: per-unit stream,
    contamination draw, mixture sample, ``estimate_mcd`` and the clean-data
    consistency rescaling (recomputed per unit, as the study does).  With
    ``probe_paths`` one extra concentration path per unit is timed from a
    random (d+1)-point start drawn from a separate stream.
    """
    n, d = cfg.n, cfg.inlier.dim
    h = round(cfg.mcd_fraction * cfg.n)
    estimates, counts = [], []
    for i in range(cfg.k if count is None else count):
        gen = RngState(cfg.seed).split(i).generator()
        p = gen.beta(*cfg.contamination_beta)
        mask = gen.random(n) < p
        clean = cfg.inlier.mean + gen.standard_normal((n, d)) @ cfg.inlier.cov.sqrt()
        bad = cfg.outlier.mean + gen.standard_normal((n, d)) @ cfg.outlier.cov.sqrt()
        points = np.where(mask[:, None], bad, clean)
        with tr.span("simulation.estimate_mcd", account=True):
            est = estimate_mcd(points, h, cfg.mcd_restarts, gen)
        with tr.span("simulation.mcd_consistency_factor", account=True):
            factor = mcd_consistency_factor(cfg.mcd_fraction, d)
        estimates.append(LocScatter(
            est.mean, certify_spd((1.0 / factor) * est.cov.entries)))
        counts.append(int(mask.sum()))
        if probe_paths:
            start = points[inputs.stream(cfg.seed, inputs.HOSPITAL, i)
                           .choice(n, size=d + 1, replace=False)]
            mean0 = start.mean(axis=0)
            cov0 = (start - mean0).T @ (start - mean0) / start.shape[0]
            try:
                with tr.span("simulation.c_step_path") as rec:
                    rec["steps"] = len(c_step_path(points, h, mean0, cov0)[3])
            except SingularSubset:
                pass
    return estimates, counts


def replay_hospital_aggregation(tr, cfg: HospitalConfig, estimates) -> None:
    with tr.span("barycenter.equal_weights", account=True):
        ens = WeightedEnsemble.equal_weights(estimates)
    traced_fixed_point(tr, ens, account=True)
    seed = RngState(cfg.seed).split(HOSPITAL_AGGREGATE_TAG).seed
    traced_trim(tr, ens, TrimConfig(alpha=cfg.alpha_trim,
                                    restarts=cfg.trim_restarts, seed=seed),
                account=True)
    with tr.span("barycenter.linear_mean", account=True):
        linear_mean(ens)


# --- probes --------------------------------------------------------------

IMPORT_CODE = ("import time; t = time.perf_counter(); import wcons; "
               "print((time.perf_counter() - t) * 1e3)")


def probe_startup(tr: Tracer, samples: dict, repeats: int = 3) -> None:
    """Interpreter start alone, and a fresh ``import wcons`` timed inside."""
    env = child_env()
    for _ in range(repeats):
        with tr.span("cli.interpreter", probe=True):
            subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT,
                           check=True, timeout=60)
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env,
                             cwd=ROOT,
                             check=True, timeout=60, capture_output=True,
                             text=True)
        samples.setdefault("cli.import_ms", []).append(float(out.stdout))


def probe_law_draw(tr: Tracer, seed: int) -> None:
    law = gaussian_parameter_law()
    for r in range(3):
        gen = inputs.stream(seed, inputs.GROWING, 10 ** 6 + r)
        with tr.span("simulation.law_draw", probe=True, n=PROBE_DRAW):
            tuple(law(gen) for _ in range(PROBE_DRAW))


def probe_mcd(tr: Tracer, seed: int) -> None:
    cfg = HospitalConfig(seed=inputs.hospital_seed(seed, 0))
    hospital_units(cfg, tr, count=PROBE_UNITS, probe_paths=True)


def pool_speedup(task, budget_s: float = 2.0) -> float:
    """Wall time with WCONS_THREADS=1 over that with =2, median of pairs."""
    saved = os.environ.get("WCONS_THREADS")
    times = {"1": [], "2": []}
    start = time.perf_counter()
    try:
        for pair in range(5):
            for threads in (("1", "2") if pair % 2 == 0 else ("2", "1")):
                os.environ["WCONS_THREADS"] = threads
                t = time.perf_counter()
                task()
                times[threads].append(time.perf_counter() - t)
            if time.perf_counter() - start > budget_s:
                break
    finally:
        if saved is None:
            os.environ.pop("WCONS_THREADS", None)
        else:
            os.environ["WCONS_THREADS"] = saved
    return median(times["1"]) / median(times["2"])


# --- metric assembly -----------------------------------------------------

def _median(values):
    values = list(values)
    return float(median(values)) if values else None


def layer_metrics(tr: Tracer, samples: dict, failures: Counter,
                  ops: list[dict], startup_accounted: bool) -> dict:
    """Every per-layer metric, from the spans and counters of one run.

    Times are medians over the spans that ended without an exception; a
    ``count`` attribute turns a batch span into a per-item time.
    """
    def done(name):
        return [s for s in tr.named(name) if "error" not in s]

    def ms(name, per=None, scale=1.0):
        return _median(scale * duration_ms(s) / (per(s) if per else 1)
                       for s in done(name))

    def us_each(name):
        return ms(name, per=lambda s: s["count"], scale=1e3)

    def attr(name, key):
        return _median(s[key] for s in done(name) if key in s)

    interp = ms("cli.interpreter")
    import_ms = _median(samples["cli.import_ms"])
    startup = interp + import_ms if startup_accounted else 0.0
    shares = [(startup + sum(duration_ms(s) for s in tr.spans
                             if s["op"] == o["index"] and s.get("account")))
              / (o["traced_seconds"] * 1e3) for o in ops]
    fixed = "barycenter.fixed_point_barycenter"
    trim = "trimming.trimmed_barycenter"
    path = "simulation.c_step_path"
    return {
        "cli.interpreter_ms": (interp, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.run_command_ms": (ms("cli.run_command"), "ms"),
        "ensemble_io.parse_ms": (ms("ensemble_io.parse_ensemble_text"), "ms"),
        "spd.certify_us": (us_each("spd.certify_spd"), "us"),
        "spd.sqrt_psd_batch_us": (us_each("spd.sqrt_psd_batch"), "us"),
        "locscatter.build_ms": (ms("locscatter.build"), "ms"),
        "locscatter.w2_distances_sq_us": (
            us_each("locscatter.w2_distances_sq"), "us"),
        "locscatter.positivity_failures": (failures["ArithmeticError"],
                                           "count"),
        "barycenter.fixed_point_ms": (ms(fixed), "ms"),
        "barycenter.iterations": (attr(fixed, "iterations"), "count"),
        # Per fixed-point step evaluated: the solver reports steps - 1.
        "barycenter.ms_per_iteration": (
            ms(fixed, per=lambda s: s["iterations"] + 1), "ms"),
        "barycenter.max_iter_failures": (failures["MaxIterationsExceeded"],
                                         "count"),
        "trimming.trimmed_barycenter_ms": (ms(trim), "ms"),
        "trimming.outer_iterations": (attr(trim, "outer_iterations"), "count"),
        "trimming.ms_per_restart": (ms(trim, per=lambda s: s["restarts"]),
                                    "ms"),
        "simulation.law_draw_ms": (ms("simulation.law_draw"), "ms"),
        "simulation.estimate_mcd_ms": (ms("simulation.estimate_mcd"), "ms"),
        "simulation.c_step_path_ms": (ms(path), "ms"),
        "simulation.c_steps": (attr(path, "steps"), "count"),
        "simulation.consistency_factor_ms": (
            ms("simulation.mcd_consistency_factor"), "ms"),
        "runtime.pool_speedup": (samples["runtime.pool_speedup"], "ratio"),
        "bench.trace_overhead": (
            median(o["traced_seconds"] for o in ops)
            / median(o["seconds"] for o in ops), "ratio"),
        "bench.accounted_share": (median(shares), "ratio"),
    }
