"""The four workloads: how each op is made, run, checked and replayed.

Each workload object offers

* ``make_input(i)``: the generated input of op ``i`` (untimed);
* ``run_op(inp, tr)``: the op itself, the only timed code, with spans
  around its calls into wcons when ``tr`` is a tracer;
* ``check(inp, out, tr)``: the output checks (untimed), which also replay
  the op's inputs through internal layers when ``tr`` is a tracer;
* ``layer_probes(tr)``: probes for layers its ops do not reach, returning
  extra report lines;
* ``pool_task()``: one call of its main solver, for the thread-pool ratio;
* ``finish()``: run-level checks and extra report lines.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
from collections import Counter

import numpy as np

import inputs
import layers
from layers import ROOT
from spans import NULL

from wcons import (HospitalConfig, LocScatter, TrimConfig, WeightedEnsemble,
                   certify_spd, fixed_point_barycenter, gaussian_parameter_law,
                   hospital_experiment, linear_mean, log_euclidean_mean,
                   parse_ensemble_text, quantile_barycenter,
                   read_quantile_grid, trimmed_barycenter,
                   verify_ball_property, w2_distance_sq)
from wcons.cli import run_command

ALPHA = inputs.TRIM_ALPHA
CHILD_TIMEOUT_S = 60.0


def ball_problems(res, ens, alpha) -> list[str]:
    check = verify_ball_property(res, ens, alpha)
    return [] if check.ok else ["ball property: " + check.violations[0]]


def close(a, b, rel: float = 1e-9) -> bool:
    """Structural equality of JSON values, floats within ``rel``."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b))


def member_obj(p: LocScatter) -> dict:
    return {"mean": p.mean.tolist(), "cov": p.cov.entries.tolist()}


class Workload:
    name = ""
    cycle = 1
    # The op is a fresh interpreter: interpreter start and import are part
    # of it, measured by the startup probes.
    startup_accounted = False

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.failures: Counter = Counter()
        self.replay_failures: Counter = Counter()
        self.probe_failures: Counter = Counter()

    def layer_probes(self, tr) -> list[str]:
        """Probe every layer this workload's ops do not reach."""
        cli_mix_probe(self.seed, self.workdir, tr)
        layers.probe_law_draw(tr, self.seed)
        layers.probe_mcd(tr, self.seed)
        return []

    def finish(self) -> tuple[list[str], list[str]]:
        return [], []

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the process that ran the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- cli_mix -------------------------------------------------------------

def cli_entries(paths, out_dir, trim_seed) -> list[tuple[str, list[str], str | None]]:
    """(name, argv, out file) for each entry of the mix, in cycle order."""
    ens = str(paths["ensemble.json"])
    out = {name: str(out_dir / f"{name}.out") for name in
           ("barycenter", "trim", "compare", "bary1d")}
    return [
        ("distance", ["distance", str(paths["single_a.json"]),
                      str(paths["single_b.json"])], None),
        ("barycenter", ["barycenter", ens, "--out", out["barycenter"]],
         out["barycenter"]),
        ("trim", ["trim", ens, "--alpha", str(ALPHA), "--restarts", "10",
                  "--seed", str(trim_seed), "--out", out["trim"]],
         out["trim"]),
        ("compare", ["compare", ens, "--out", out["compare"]], out["compare"]),
        ("bary1d", ["bary1d", str(paths["grid_a.csv"]),
                    str(paths["grid_b.csv"]), "--weights", "0.3,0.7",
                    "--out", out["bary1d"]], out["bary1d"]),
        ("invalid", ["barycenter", str(paths["not_spd.json"])], None),
    ]


def cli_references(paths, trim_seed):
    """In-process library results for every mix entry, their checks, and
    the ensemble with its barycenter."""
    text = paths["ensemble.json"].read_text(encoding="utf-8")
    ens = parse_ensemble_text(text).ensemble
    p = parse_ensemble_text(paths["single_a.json"].read_text()).ensemble.members[0]
    q = parse_ensemble_text(paths["single_b.json"].read_text()).ensemble.members[0]
    d2 = w2_distance_sq(p, q)
    bary = fixed_point_barycenter(ens)
    trim = trimmed_barycenter(ens, TrimConfig(alpha=ALPHA, restarts=10,
                                              seed=trim_seed))
    logeuc, linear = log_euclidean_mean(ens), linear_mean(ens)
    grids = [read_quantile_grid(paths[n]) for n in ("grid_a.csv", "grid_b.csv")]
    refs = {
        "distance": f"w2_sq = {d2:.6g}",
        "barycenter": {"barycenter": member_obj(bary.bary),
                       "variance": bary.variance,
                       "iterations": bary.iterations,
                       "residual": bary.residual},
        "trim": {"barycenter": member_obj(trim.bary),
                 "active_weights": trim.active_weights.tolist(),
                 "trimmed_variance": trim.trimmed_variance,
                 "radius": trim.radius,
                 "outer_iterations": trim.outer_iterations,
                 "restart_index": trim.restart_index,
                 "variance_history": list(trim.variance_history),
                 "restart_variances": list(trim.restart_variances)},
        "compare": {"barycenter": member_obj(bary.bary),
                    "log_euclidean": member_obj(logeuc),
                    "linear_mean": member_obj(linear),
                    "pairwise_w2_sq": {
                        "barycenter_log_euclidean": w2_distance_sq(bary.bary, logeuc),
                        "barycenter_linear": w2_distance_sq(bary.bary, linear),
                        "log_euclidean_linear": w2_distance_sq(logeuc, linear)}},
        "bary1d": quantile_barycenter(np.array([0.3, 0.7]), grids).values.tolist(),
    }
    problems = layers.fixed_point_problems(bary) + ball_problems(trim, ens, ALPHA)
    return refs, problems, ens, bary.bary


def cli_mix_probe(seed, workdir, tr) -> None:
    """Run each mix entry once in-process, plus the parse of the ensemble."""
    paths = inputs.write_cli_files(seed, workdir / "probe")
    text = paths["ensemble.json"].read_text(encoding="utf-8")
    with tr.span("ensemble_io.parse_ensemble_text", probe=True):
        parse_ensemble_text(text)
    for name, argv, _ in cli_entries(paths, workdir / "probe",
                                     inputs.cli_seed(seed)):
        in_process_command(tr, name, argv, probe=True)


def in_process_command(tr, name, argv, **attrs) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with tr.span("cli.run_command", entry=name, **attrs):
            return run_command(argv)


class ChildExit(Exception):
    """A CLI child exited with a status other than the entry expects."""


class CliMix(Workload):
    name = "cli_mix"
    cycle = 6
    startup_accounted = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.child_rss_kb = 0
        self.paths = inputs.write_cli_files(seed, workdir)
        self.trim_seed = inputs.cli_seed(seed)
        self.entries = cli_entries(self.paths, workdir, self.trim_seed)
        self.refs, self.ref_problems, self.ens, self.center = cli_references(
            self.paths, self.trim_seed)
        self.env = layers.child_env()
        self.ensemble_text = self.paths["ensemble.json"].read_text(encoding="utf-8")

    def make_input(self, i):
        name, argv, out = self.entries[i % self.cycle]
        if out is not None and os.path.exists(out):
            os.remove(out)
        return {"entry": name, "argv": argv, "out": out,
                "stdout": self.workdir / "child.stdout",
                "stderr": self.workdir / "child.stderr"}

    def run_op(self, inp, tr):
        with open(inp["stdout"], "wb") as fo, open(inp["stderr"], "wb") as fe:
            with tr.span("cli.subprocess", entry=inp["entry"]):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "wcons.cli", *inp["argv"]],
                    cwd=ROOT, env=self.env, stdout=fo, stderr=fe)
                timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    timer.cancel()
                proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        expected = 1 if inp["entry"] == "invalid" else 0
        if proc.returncode != expected:
            raise ChildExit(f"exit status {proc.returncode}, "
                            f"expected {expected}")
        return proc.returncode

    def check(self, inp, out, tr):
        name = inp["entry"]
        stdout = inp["stdout"].read_text(encoding="utf-8")
        stderr = inp["stderr"].read_text(encoding="utf-8")
        problems = list(self.ref_problems) if name in ("barycenter", "trim") else []
        if name == "invalid":
            lines = stderr.splitlines()
            if len(lines) != 1 or not lines[0].startswith("error:"):
                problems.append(f"invalid input gave stderr {stderr!r}")
        elif name == "distance":
            if stdout.splitlines()[:1] != [self.refs["distance"]]:
                problems.append(f"distance printed {stdout!r}")
        elif name == "bary1d":
            got = read_quantile_grid(inp["out"]).values.tolist()
            if not close(got, self.refs["bary1d"]):
                problems.append("bary1d output differs from the library")
        else:
            with open(inp["out"], encoding="utf-8") as fh:
                got = json.load(fh)
            if not close(got, self.refs[name]):
                problems.append(f"{name} output differs from the library")
        if tr is not NULL:
            self.replay(inp, tr)
        return problems

    def replay(self, inp, tr):
        in_process_command(tr, inp["entry"], inp["argv"], account=True)
        with tr.span("ensemble_io.parse_ensemble_text"):
            parse_ensemble_text(self.ensemble_text)
        ens = self.ens
        layers.replay_stack(tr, self.replay_failures, ens.weights, ens.means(),
                            ens.covs(), self.center, fixed_point=True)
        layers.traced_trim(tr, ens, TrimConfig(alpha=ALPHA, restarts=10,
                                               seed=self.trim_seed))

    def layer_probes(self, tr):
        layers.probe_law_draw(tr, self.seed)
        layers.probe_mcd(tr, self.seed)
        return []

    def peak_rss_kb(self):
        return self.child_rss_kb

    def pool_task(self):
        cfg = TrimConfig(alpha=ALPHA, restarts=10, seed=self.trim_seed)
        return lambda: trimmed_barycenter(self.ens, cfg)


# --- growing_ensembles ---------------------------------------------------

class GrowingEnsembles(Workload):
    name = "growing_ensembles"
    cycle = len(inputs.GROWING_SIZES)

    def make_input(self, i):
        return inputs.growing_input(self.seed, i)

    def run_op(self, inp, tr):
        law = gaussian_parameter_law()
        gen = inp["gen"]
        with tr.span("simulation.law_draw", account=True, n=inp["n"]):
            members = tuple(law(gen) for _ in range(inp["n"]))
        with tr.span("barycenter.equal_weights", account=True):
            ens = WeightedEnsemble.equal_weights(members)
        res = layers.traced_trim(tr, ens, TrimConfig(
            alpha=ALPHA, restarts=3, seed=inp["trim_seed"]), account=True)
        return ens, res

    def check(self, inp, out, tr):
        ens, res = out
        problems = ball_problems(res, ens, ALPHA)
        if not np.isfinite(res.trimmed_variance):
            problems.append("trimmed variance is not finite")
        if tr is not NULL:
            problems += layers.replay_stack(
                tr, self.replay_failures, ens.weights, ens.means(), ens.covs(),
                res.bary, fixed_point=True)
        return problems

    def layer_probes(self, tr):
        cli_mix_probe(self.seed, self.workdir, tr)
        layers.probe_mcd(tr, self.seed)
        return []

    def pool_task(self):
        inp = self.make_input(self.cycle - 1)
        ens = self.run_op(inp, NULL)[0]
        cfg = TrimConfig(alpha=ALPHA, restarts=3, seed=inp["trim_seed"])
        return lambda: trimmed_barycenter(ens, cfg)


# --- wide_consensus ------------------------------------------------------

class WideConsensus(Workload):
    name = "wide_consensus"
    cycle = len(inputs.WIDE_SHAPES)

    def make_input(self, i):
        return inputs.wide_input(self.seed, i)

    def run_op(self, inp, tr):
        with tr.span("locscatter.build", account=True, count=inp["k"]):
            members = tuple(LocScatter(m, certify_spd(c))
                            for m, c in zip(inp["means"], inp["covs"]))
            ens = WeightedEnsemble.equal_weights(members)
        fp = layers.traced_fixed_point(tr, ens, account=True)
        res = layers.traced_trim(tr, ens, TrimConfig(
            alpha=ALPHA, restarts=3, seed=inp["trim_seed"]), account=True)
        return ens, fp, res

    def check(self, inp, out, tr):
        ens, fp, res = out
        problems = layers.fixed_point_problems(fp) + ball_problems(res, ens, ALPHA)
        if not res.trimmed_variance <= fp.variance * (1.0 + 1e-9):
            problems.append(f"trimmed variance {res.trimmed_variance!r} above "
                            f"untrimmed {fp.variance!r}")
        if tr is not NULL:
            problems += layers.replay_stack(
                tr, self.replay_failures, ens.weights, inp["means"], inp["covs"],
                fp.bary, fixed_point=False)
        return problems

    def layer_probes(self, tr):
        """The usual probes, plus the stall probe: the fixed ensembles of
        ``inputs.stall_input`` solved untraced, failures counted by type."""
        lines = super().layer_probes(tr)
        for i in range(inputs.STALL_OPS):
            inp = inputs.stall_input(i)
            try:
                found = self.check(inp, self.run_op(inp, NULL), NULL)
            except layers.SOLVER_FAILURES as exc:
                self.probe_failures[type(exc).__name__] += 1
                continue
            if found:
                self.probe_failures["CheckFailed"] += 1
        failed = sum(self.probe_failures.values())
        lo, hi = inputs.STALL_CONDITION
        lines.append(
            f"metric stall_fail_ratio = {failed / inputs.STALL_OPS:.6g} ratio "
            f"({failed} of {inputs.STALL_OPS} stall-probe ensembles with "
            f"condition numbers {lo:g}-{hi:g}; by type "
            f"{json.dumps(dict(sorted(self.probe_failures.items())))})")
        return lines

    def pool_task(self):
        for i in range(4 * self.cycle):
            inp = self.make_input(i)
            try:
                ens = self.run_op(inp, NULL)[0]
            except layers.SOLVER_FAILURES:
                continue
            cfg = TrimConfig(alpha=ALPHA, restarts=3, seed=inp["trim_seed"])
            return lambda: trimmed_barycenter(ens, cfg)
        raise RuntimeError("no wide_consensus input solved for the pool probe")


# --- hospital_study ------------------------------------------------------

def report_bits(rep) -> bytes:
    """Every float and count of a study report, as raw bytes."""
    parts = [np.array([rep.w2_sq_barycenter, rep.w2_sq_trimmed,
                       rep.w2_sq_linear]),
             np.asarray(rep.unit_outlier_counts, dtype=np.int64),
             rep.trimmed.active_weights]
    for p in (rep.barycenter, rep.trimmed.bary, rep.linear):
        parts += [p.mean, p.cov.entries]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in parts)


class HospitalStudy(Workload):
    name = "hospital_study"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.first = None
        self.wins = 0
        self.seeds = 0

    def make_input(self, i):
        return HospitalConfig(seed=inputs.hospital_seed(self.seed, i))

    def run_op(self, cfg, tr):
        with tr.span("simulation.hospital_experiment"):
            return hospital_experiment(cfg)

    def check(self, cfg, rep, tr):
        if self.first is None:
            self.first = (cfg, report_bits(rep))
        values = (rep.w2_sq_barycenter, rep.w2_sq_trimmed, rep.w2_sq_linear)
        self.seeds += 1
        self.wins += rep.w2_sq_trimmed < min(rep.w2_sq_barycenter,
                                             rep.w2_sq_linear)
        problems = [] if np.all(np.isfinite(values)) else ["non-finite score"]
        estimates, counts = layers.hospital_units(cfg, tr,
                                                  probe_paths=tr is not NULL)
        ens = WeightedEnsemble.equal_weights(estimates)
        lin = linear_mean(ens)
        if (tuple(counts) != rep.unit_outlier_counts
                or not np.array_equal(lin.cov.entries, rep.linear.cov.entries)):
            problems.append("replayed units do not reproduce the study")
            return problems
        problems += ball_problems(rep.trimmed, ens, cfg.alpha_trim)
        if tr is not NULL:
            layers.replay_hospital_aggregation(tr, cfg, estimates)
            layers.replay_stack(tr, self.replay_failures, ens.weights, ens.means(),
                                ens.covs(), rep.barycenter, fixed_point=False)
        return problems

    def layer_probes(self, tr):
        cli_mix_probe(self.seed, self.workdir, tr)
        layers.probe_law_draw(tr, self.seed)
        return []

    def pool_task(self):
        cfg = self.make_input(0)
        return lambda: hospital_experiment(cfg)

    def finish(self):
        problems = []
        if self.first is not None:
            cfg, bits = self.first
            if report_bits(hospital_experiment(cfg)) != bits:
                problems.append(f"rerun of study seed {cfg.seed} differs")
        ratio = self.wins / self.seeds if self.seeds else float("nan")
        lines = [f"metric trimmed_win_ratio = {ratio:.4f} ratio "
                 f"({self.wins} of {self.seeds} seeds where the trimmed "
                 f"aggregate is closest to the clean target)"]
        return problems, lines


WORKLOADS = {w.name: w for w in (CliMix, GrowingEnsembles, WideConsensus,
                                 HospitalStudy)}
