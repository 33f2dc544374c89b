"""Self-tests of the benchmark: seeded inputs, output checks, metric names.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import workloads  # noqa: E402
from spans import NULL  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Printed for people, not part of the JSON result.
REPORT_ONLY = {"op_p90_ms", "ops_per_s", "fail_ratio", "trimmed_win_ratio",
               "stall_fail_ratio"}


@pytest.fixture
def work():
    """Scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def array_bytes(d: dict) -> bytes:
    return b"".join(np.asarray(v).tobytes() for k, v in sorted(d.items())
                    if k != "gen")


def test_same_seed_gives_identical_inputs(work):
    assert inputs.cli_files(7) == inputs.cli_files(7)
    assert inputs.cli_files(7) != inputs.cli_files(8)
    a = inputs.write_cli_files(7, work / "a")
    b = inputs.write_cli_files(7, work / "b")
    assert all(a[n].read_bytes() == b[n].read_bytes() for n in a)
    for i in range(4):
        assert (array_bytes(inputs.wide_input(7, i))
                == array_bytes(inputs.wide_input(7, i)))
        g1, g2 = inputs.growing_input(7, i), inputs.growing_input(7, i)
        assert g1["gen"].bytes(64) == g2["gen"].bytes(64)
        assert array_bytes(g1) == array_bytes(g2)
    assert (array_bytes(inputs.wide_input(7, 0))
            != array_bytes(inputs.wide_input(8, 0)))


def test_wide_inputs_have_the_stated_conditioning():
    inp = inputs.wide_input(3, 3)
    assert inp["covs"].shape == (60, 16, 16)
    cond = np.linalg.cond(inp["covs"])
    assert np.all((cond > 0.99e2) & (cond < 1.01e6))
    stall = inputs.stall_input(3)
    assert stall["covs"].shape == (60, 16, 16)
    cond = np.linalg.cond(stall["covs"])
    assert np.all((cond > 0.99e2) & (cond < 1.01e8)) and cond.max() > 1e6


def test_checker_rejects_a_perturbed_active_weight(work):
    wl = workloads.GrowingEnsembles(0, work)
    inp = wl.make_input(0)
    ens, res = wl.run_op(inp, NULL)
    assert wl.check(inp, (ens, res), NULL) == []
    weights = res.active_weights.copy()
    j = int(np.argmax(weights))
    weights[j] *= 1.0 + 1e-6
    bad = dataclasses.replace(res, active_weights=weights)
    assert wl.check(inp, (ens, bad), NULL)


def test_checker_rejects_trimmed_variance_above_untrimmed(work):
    wl = workloads.WideConsensus(0, work)
    for i in range(8):
        inp = wl.make_input(i)
        try:
            ens, fp, res = wl.run_op(inp, NULL)
        except (ArithmeticError, RuntimeError):
            continue
        assert wl.check(inp, (ens, fp, res), NULL) == []
        bad = dataclasses.replace(res, trimmed_variance=2.0 * fp.variance)
        assert wl.check(inp, (ens, fp, bad), NULL)
        return
    pytest.fail("no wide_consensus op solved in eight tries")


def test_close_compares_within_relative_tolerance():
    ref = {"a": [1.0, 2.0], "n": 3}
    assert workloads.close(ref, {"a": [1.0, 2.0 * (1 + 1e-12)], "n": 3})
    assert not workloads.close(ref, {"a": [1.0, 2.0 * (1 + 1e-6)], "n": 3})
    assert not workloads.close(ref, {"a": [1.0, 2.0], "n": 4})


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec[section]}
    out = run_bench("--workload", "growing_ensembles", "--seed", "0",
                    "--seconds", "0.5", "--trace", trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == declared
    printed = {ln.split()[1] for ln in lines if ln.startswith("metric ")}
    assert all(NAME.fullmatch(n) for n in printed | declared)
    assert printed <= declared | REPORT_ONLY


def test_refuses_to_run_without_sources(work):
    shutil.copy(ROOT / "BENCHMARK.json", work)
    shutil.copytree(HERE, work / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "cli_mix", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=work)
    assert out.returncode != 0
    assert out.stdout == ""
