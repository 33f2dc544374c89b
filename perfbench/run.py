"""Benchmark of wcons: four seeded, closed-loop, single-client workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hospital_study --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--workload all`` runs the four workloads one after the other.  Each run
prints its machine facts and every metric by name, with unit and sample
count, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones, and the spans are written to
``.perfbench_work/spans-<workload>-seed<seed>.jsonl``.

End-to-end metrics (untraced runs only):

* ``setup_s``: median over three fresh interpreters of the wall time from
  spawning the interpreter until ``import wcons`` has returned.
* ``op_p50_ms``: median op wall time over every attempted op, failed ones
  included.
* ``peak_rss_mb``: peak resident memory of the process that ran the ops
  (for ``cli_mix``, the largest CLI child).

Printed as report lines, not in the JSON result:

* ``op_p90_ms``, where the run has at least 100 ops.
* ``ops_per_s``: ops that succeeded over the seconds spent in ops.  Checks
  run between ops, outside the timed region.
* ``fail_ratio`` (also as ``failed`` over ``attempted``): ops that raised,
  exited with an unexpected status or failed an output check, split by
  exception type.

In the traced run every input runs once untraced and once traced, so
``bench.trace_overhead`` compares the same ops, and
``bench.accounted_share`` is the share of a traced op's wall time that its
accounted layer spans cover (for ``cli_mix``, interpreter start and import
from the probes plus the in-process command).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("cli_mix", "growing_ensembles", "wide_consensus",
                  "hospital_study")
SETUP_REPEATS = 3
SETUP_CODE = "import time, wcons; print(time.monotonic_ns())"
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_facts() -> dict:
    import numpy
    import scipy
    facts = {"nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)),
             "cpu_model": "unknown",
             "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "blas": "unknown", "blas_threads": None,
             "WCONS_THREADS": os.environ.get("WCONS_THREADS")}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass
    facts["blas_threads"] = blas_threads(numpy)
    return facts


def blas_threads(numpy):
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getattr(handle, fn).restype = ctypes.c_int
                return getattr(handle, fn)()
    return None


def setup_seconds(env) -> list[float]:
    """Fresh-interpreter time to a returned ``import wcons``, per repeat.

    One untimed start first writes the bytecode cache, as an installed
    package would have it.
    """
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120,
                   capture_output=True)
    out = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic_ns()
        done = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120,
                              capture_output=True, text=True)
        out.append((int(done.stdout) - start) / 1e9)
    return out


def timed_op(wl, inp, tr):
    """Run one op; return (output, failure type or None, seconds)."""
    out, failure = None, None
    start = time.perf_counter()
    try:
        with tr.span("op", workload=wl.name):
            out = wl.run_op(inp, tr)
    except Exception as exc:  # an op failure is a result, never fatal
        failure = type(exc).__name__
        if failure not in wl.failures:
            traceback.print_exc(file=sys.stderr)
    return out, failure, time.perf_counter() - start


def run_ops(wl, seconds, tracer, null):
    """Closed loop with one client until ``seconds`` of op time are spent.

    With a tracer every input runs twice, untraced and traced, in
    alternating order; the traced run's output is the one checked.
    """
    ops, problems = [], Counter()
    spent = 0.0
    i = 0
    while spent < seconds or not ops:
        op = {"index": i}
        if tracer is not None:
            tracer.op = i
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                run_inp = wl.make_input(i)
                run_out, run_failure, elapsed = timed_op(
                    wl, run_inp, tracer if traced else null)
                spent += elapsed
                op["traced_seconds" if traced else "seconds"] = elapsed
                if traced:
                    inp, out, failure = run_inp, run_out, run_failure
            tr = tracer
        else:
            inp = wl.make_input(i)
            out, failure, op["seconds"] = timed_op(wl, inp, null)
            spent += op["seconds"]
            tr = null
        if failure is None:
            found = wl.check(inp, out, tr)
            if found:
                failure = "CheckFailed"
                problems.update(found)
        if failure is not None:
            wl.failures[failure] += 1
        if tracer is not None:
            tracer.op = None
        op["failure"] = failure
        ops.append(op)
        i += 1
    return ops, spent, problems


def end_to_end(wl, ops, spent, setup):
    times_ms = [o["seconds"] * 1e3 for o in ops]
    ok = sum(1 for o in ops if o["failure"] is None)
    metrics = {"setup_s": (median(setup), "s"),
               "op_p50_ms": (median(times_ms), "ms"),
               "peak_rss_mb": (wl.peak_rss_kb() / 1024.0, "MB")}
    notes = {"setup_s": f"median of {len(setup)} fresh interpreters",
             "op_p50_ms": f"{len(ops)} ops, failed ones included",
             "peak_rss_mb": "process that ran the ops"}
    lines = [f"metric {k} = {v:.6g} {u} ({notes[k]})"
             for k, (v, u) in metrics.items()]
    lines.append(f"metric ops_per_s = {ok / spent:.6g} 1/s "
                 f"({ok} succeeded / {spent:.3f} s in ops)")
    if len(ops) >= P90_MIN_OPS:
        p90 = quantiles(times_ms, n=10)[-1]
        lines.append(f"metric op_p90_ms = {p90:.6g} ms ({len(ops)} ops)")
    else:
        lines.append(f"metric op_p90_ms omitted ({len(ops)} ops < "
                     f"{P90_MIN_OPS})")
    return metrics, lines


def run_workload(name, seed, seconds, trace) -> dict:
    import layers
    import workloads
    from spans import NULL, Tracer

    setup = None if trace else setup_seconds(layers.child_env())
    workdir = ROOT / ".perfbench_work" / f"{name}-seed{seed}-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        wl = workloads.WORKLOADS[name](seed, workdir)
        ops, spent, problems = run_ops(wl, seconds, tracer, NULL)
        run_problems, extra = wl.finish()
        if trace:
            samples: dict = {}
            layers.probe_startup(tracer, samples)
            extra += wl.layer_probes(tracer)
            samples["runtime.pool_speedup"] = layers.pool_speedup(wl.pool_task())
            metrics = layers.layer_metrics(
                tracer, samples,
                wl.failures + wl.replay_failures + wl.probe_failures, ops,
                wl.startup_accounted)
            span_file = ROOT / ".perfbench_work" / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(span_file)
            lines = [f"metric {k} = {v:.6g} {u}" if v is not None
                     else f"metric {k} unavailable (no sample)"
                     for k, (v, u) in metrics.items()]
            lines.append(f"spans written to {span_file.relative_to(ROOT)} "
                         f"({len(tracer.spans)} spans)")
        else:
            metrics, lines = end_to_end(wl, ops, spent, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops)
    failed = sum(1 for o in ops if o["failure"] is not None)
    by_type = dict(sorted(wl.failures.items()))
    print(f"# workload {name} seed={seed} seconds={seconds:g} trace={trace} "
          f"loop=closed clients=1 cycle={wl.cycle}")
    print("# machine " + json.dumps(machine_facts(), sort_keys=True))
    for line in lines + extra:
        print(line)
    print(f"metric fail_ratio = {failed / attempted:.6g} ratio ({failed} of "
          f"{attempted} attempted; by type {json.dumps(by_type)})")
    for problem, count in sorted((problems + Counter(run_problems)).items()):
        print(f"check failed x{count}: {problem}")
    return {"correct": not problems and not run_problems,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wcons" / "__init__.py").is_file():
        print(f"error: no wcons sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
