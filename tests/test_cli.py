"""Command-line interface: stdout summaries, JSON and CSV artifacts,
exit codes, and byte-stable reruns."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wcons.cli import run_command
from wcons.ensemble_io import read_quantile_grid, write_quantile_grid
from wcons.univariate import gaussian_quantiles


def member_obj(weight, mean, cov, label=None):
    obj = {"weight": weight, "mean": mean, "cov": cov}
    if label is not None:
        obj["label"] = label
    return obj


def write_doc(path, entries):
    path.write_text(json.dumps({"distributions": entries}), encoding="utf-8")
    return str(path)


def gauss_doc(path, params):
    """params: list of (weight, mean list, cov rows)."""
    return write_doc(path, [member_obj(*p) for p in params])


def planar_doc(path, scale):
    """Six planar members, all scatters ``scale`` times a fixed one."""
    root = scale ** 0.5
    return gauss_doc(path, [
        (1.0 / 6.0, [i * root, -i * root],
         [[(1 + i) * scale, 0.3 * scale], [0.3 * scale, (2 + i % 3) * scale]])
        for i in range(6)])


def mixed_scale_doc(path):
    """Six planar members, five at scale 1e75 and one at 1e80."""
    return gauss_doc(path, [
        (1.0 / 6.0, [i * scale ** 0.5, -i * scale ** 0.5],
         [[(1 + i % 3) * scale, 0.3 * scale],
          [0.3 * scale, (2 - i % 2) * scale]])
        for i, scale in enumerate([1e75] * 5 + [1e80])])


def cli_process(args):
    """Run the CLI in a fresh interpreter on this checkout's sources."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "wcons.cli"] + args,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})


def parse_summary(text):
    """Collect 'key = value' stdout lines; repeated keys become lists."""
    out = {}
    for line in text.splitlines():
        if " = " not in line:
            continue
        key, _, value = line.partition(" = ")
        if key in out:
            prev = out[key]
            out[key] = prev + [value] if isinstance(prev, list) else [prev,
                                                                      value]
        else:
            out[key] = value
    return out


def bracket_floats(text):
    return [float(x) for x in text.strip()[1:-1].split(",")]


@pytest.fixture
def sigma_trio_path(tmp_path):
    params = [(1.0 / 3.0, [0.0], [[s * s]]) for s in (0.2, 1.0, 2.0)]
    return gauss_doc(tmp_path / "trio.json", params)


@pytest.fixture
def far_outlier_path(tmp_path):
    params = [(1.0 / 3.0, [0.0], [[1.0]]),
              (1.0 / 3.0, [0.1], [[1.0]]),
              (1.0 / 3.0, [10.0], [[1.0]])]
    return gauss_doc(tmp_path / "outlier.json", params)


class TestDistance:
    def test_identical_members(self, tmp_path, capsys):
        a = gauss_doc(tmp_path / "a.json",
                      [(1.0, [0.5, -0.5], [[2.0, 0.3], [0.3, 1.0]])])
        b = gauss_doc(tmp_path / "b.json",
                      [(1.0, [0.5, -0.5], [[2.0, 0.3], [0.3, 1.0]])])
        assert run_command(["distance", a, b]) == 0
        summary = parse_summary(capsys.readouterr().out)
        assert abs(float(summary["w2_sq"])) <= 1e-12
        assert abs(float(summary["w2"])) <= 1e-6

    def test_mean_shift_only(self, tmp_path, capsys):
        a = gauss_doc(tmp_path / "a.json",
                      [(1.0, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])])
        b = gauss_doc(tmp_path / "b.json",
                      [(1.0, [3.0, 4.0], [[1.0, 0.0], [0.0, 1.0]])])
        assert run_command(["distance", a, b]) == 0
        summary = parse_summary(capsys.readouterr().out)
        assert float(summary["w2_sq"]) == pytest.approx(25.0, abs=1e-9)
        assert float(summary["w2"]) == pytest.approx(5.0, abs=1e-9)

    def test_multi_entry_file_rejected(self, tmp_path, capsys):
        a = gauss_doc(tmp_path / "a.json",
                      [(0.5, [0.0], [[1.0]]), (0.5, [1.0], [[1.0]])])
        b = gauss_doc(tmp_path / "b.json", [(1.0, [0.0], [[1.0]])])
        assert run_command(["distance", a, b]) == 1
        assert "exactly one distribution" in capsys.readouterr().err


class TestBarycenter:
    def test_sigma_trio_summary(self, sigma_trio_path, tmp_path, capsys):
        out = tmp_path / "bary.json"
        code = run_command(["barycenter", sigma_trio_path,
                            "--out", str(out)])
        assert code == 0
        summary = parse_summary(capsys.readouterr().out)
        cov00 = bracket_floats(summary["cov"])[0]
        assert cov00 == pytest.approx(1.1378, abs=1e-3)
        assert np.sqrt(cov00) == pytest.approx(1.067, abs=1e-3)
        assert float(summary["variance"]) == pytest.approx(0.5422, abs=1e-3)
        assert bracket_floats(summary["mean"]) == [0.0]
        assert float(summary["residual"]) <= 1e-11

        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["barycenter"]["cov"][0][0] == pytest.approx(
            256.0 / 225.0, rel=1e-9)
        assert payload["variance"] == pytest.approx(122.0 / 225.0, rel=1e-9)
        assert payload["iterations"] >= 1

    def test_max_iter_exhaustion_is_exit_2(self, tmp_path, capsys):
        path = gauss_doc(tmp_path / "pair.json",
                         [(0.5, [0.0, 0.0], [[1.0, 0.0], [0.0, 4.0]]),
                          (0.5, [0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]])])
        code = run_command(["barycenter", path, "--max-iter", "1"])
        assert code == 2
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--max-iter", "-1"], ["--tol", "nan"],
                                       ["--tol", "0"]])
    def test_bad_budget_is_exit_1(self, sigma_trio_path, flags, capsys):
        code = run_command(["barycenter", sigma_trio_path] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestTrim:
    def test_far_outlier_dropped(self, far_outlier_path, tmp_path, capsys):
        out = tmp_path / "trim.json"
        code = run_command(["trim", far_outlier_path,
                            "--alpha", "0.3333333", "--restarts", "10",
                            "--seed", "42", "--out", str(out)])
        assert code == 0
        summary = parse_summary(capsys.readouterr().out)
        weights = bracket_floats(summary["active_weights"])
        np.testing.assert_allclose(weights, [0.5, 0.5, 0.0], atol=1e-6)
        assert float(summary["trimmed_variance"]) == pytest.approx(
            0.0025, abs=1e-5)

        payload = json.loads(out.read_text(encoding="utf-8"))
        np.testing.assert_allclose(payload["active_weights"],
                                   [0.5, 0.5, 0.0], atol=1e-6)
        assert payload["trimmed_variance"] == pytest.approx(0.0025,
                                                            abs=1e-5)
        # 0.3333333 is slightly below one third, so a sliver of weight
        # stays on the far member and the support radius reaches it.
        assert payload["radius"] == pytest.approx(9.95, abs=1e-3)
        assert payload["barycenter"]["mean"][0] == pytest.approx(0.05,
                                                                 abs=1e-5)
        assert len(payload["restart_variances"]) == 10

    def test_exact_third_zeroes_the_outlier(self, far_outlier_path,
                                            tmp_path, capsys):
        out = tmp_path / "trim.json"
        code = run_command(["trim", far_outlier_path,
                            "--alpha", "0.3333333333333333",
                            "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["active_weights"][2] == 0.0
        assert payload["radius"] == pytest.approx(0.05, abs=1e-9)
        capsys.readouterr()

    def test_alpha_out_of_range_is_exit_1(self, far_outlier_path, capsys):
        code = run_command(["trim", far_outlier_path, "--alpha", "1.0"])
        assert code == 1
        assert "alpha" in capsys.readouterr().err

    def test_rerun_artifact_is_byte_identical(self, far_outlier_path,
                                              tmp_path, capsys):
        out1 = tmp_path / "t1.json"
        out2 = tmp_path / "t2.json"
        base = ["trim", far_outlier_path, "--alpha", "0.3333333",
                "--seed", "7"]
        assert run_command(base + ["--out", str(out1)]) == 0
        assert run_command(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestVarianceCurve:
    def test_two_point_curve(self, far_outlier_path, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = run_command(["variance-curve", far_outlier_path,
                            "--alphas", "0:0.34:0.3333333",
                            "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "alpha,var_alpha"
        assert len(lines) == 3
        a0, v0 = (float(x) for x in lines[1].split(","))
        a1, v1 = (float(x) for x in lines[2].split(","))
        assert (a0, a1) == (0.0, 0.3333333)
        assert v0 == pytest.approx(22.002222222222223, rel=1e-9)
        assert v1 == pytest.approx(0.0025, abs=1e-5)
        stdout = capsys.readouterr().out
        assert stdout.count("-> var =") == 2

    def test_bad_range_is_exit_1(self, far_outlier_path, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = run_command(["variance-curve", far_outlier_path,
                            "--alphas", "0:0.3", "--out", str(out)])
        assert code == 1
        assert "START:STOP:STEP" in capsys.readouterr().err

    @pytest.mark.parametrize("alphas", ["0:0.5:nan", "nan:0.5:0.1",
                                        "0:nan:0.1", "0:inf:0.1",
                                        "-inf:0.5:0.1", "0:0.5:inf"])
    def test_non_finite_range_is_exit_1(self, far_outlier_path, tmp_path,
                                        capsys, alphas):
        # A NaN field used to loop forever, its list growing unbounded.
        code = run_command(["variance-curve", far_outlier_path,
                            f"--alphas={alphas}",
                            "--out", str(tmp_path / "curve.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite" in err

    def test_too_many_points_is_exit_1(self, far_outlier_path, tmp_path,
                                       capsys):
        code = run_command(["variance-curve", far_outlier_path,
                            "--alphas", "0:1:1e-4",
                            "--out", str(tmp_path / "curve.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "10000 points" in err

    @pytest.mark.parametrize("alphas, message", [
        ("a:b:c", "--alphas expects numbers"),
        ("0:0.5:0", "--alphas step must be positive"),
        ("0.5:0.1:0.1", "--alphas range is empty"),
    ])
    def test_malformed_range_is_exit_1(self, far_outlier_path, tmp_path,
                                       capsys, alphas, message):
        out = tmp_path / "curve.csv"
        code = run_command(["variance-curve", far_outlier_path,
                            f"--alphas={alphas}", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not out.exists()


class TestCompare:
    def test_commuting_pair(self, tmp_path, capsys):
        path = gauss_doc(tmp_path / "pair.json",
                         [(0.5, [0.0, 0.0], [[1.0, 0.0], [0.0, 4.0]]),
                          (0.5, [0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])])
        out = tmp_path / "cmp.json"
        assert run_command(["compare", path, "--out", str(out)]) == 0
        summary = parse_summary(capsys.readouterr().out)
        assert float(summary["barycenter: trace"]) == pytest.approx(4.5,
                                                                    rel=1e-9)
        assert float(summary["log_euclidean: trace"]) == pytest.approx(
            4.0, rel=1e-9)
        assert float(summary["linear_mean: trace"]) == pytest.approx(
            5.0, rel=1e-12)
        payload = json.loads(out.read_text(encoding="utf-8"))
        np.testing.assert_allclose(payload["barycenter"]["cov"],
                                   [[2.25, 0.0], [0.0, 2.25]], atol=1e-9)
        np.testing.assert_allclose(payload["log_euclidean"]["cov"],
                                   [[2.0, 0.0], [0.0, 2.0]], atol=1e-9)
        np.testing.assert_allclose(payload["linear_mean"]["cov"],
                                   [[2.5, 0.0], [0.0, 2.5]], atol=1e-12)
        for value in payload["pairwise_w2_sq"].values():
            assert value >= 0.0
            assert np.isfinite(value)


class TestEllipse:
    def test_csv_structure(self, tmp_path):
        path = gauss_doc(tmp_path / "two.json",
                         [(0.5, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]],
                           "unit"),
                          (0.5, [2.0, 0.0], [[0.5, 0.1], [0.1, 0.3]])])
        out = tmp_path / "ellipses.csv"
        code = run_command(["ellipse", path, "--count", "16",
                            "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "label,x,y"
        assert len(lines) == 1 + 2 * 16
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {"unit", "entry-1"}
        for line in lines[1:17]:
            _, x, y = line.split(",")
            assert float(x) ** 2 + float(y) ** 2 == pytest.approx(1.0,
                                                                  abs=1e-12)

    def test_failure_leaves_out_file_as_it_was(self, tmp_path, capsys):
        # The points are traced before the file is opened, so a member
        # that cannot be traced leaves whatever the file held.
        path = gauss_doc(tmp_path / "solid.json",
                         [(1.0, [0.0, 0.0, 0.0], np.eye(3).tolist())])
        out = tmp_path / "ellipses.csv"
        out.write_text("kept\n", encoding="utf-8")
        assert run_command(["ellipse", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: ellipse tracing requires dimension 2\n")
        assert out.read_text(encoding="utf-8") == "kept\n"

    def test_labels_with_commas_and_newlines_are_quoted(self, tmp_path):
        labels = ["north, 2019", "line\nbreak", 'say "hi"']
        path = gauss_doc(tmp_path / "labels.json",
                         [(1.0 / 3.0, [float(i), 0.0], [[1.0, 0.0], [0.0, 1.0]],
                           label) for i, label in enumerate(labels)])
        out = tmp_path / "ellipses.csv"
        assert run_command(["ellipse", path, "--count", "4",
                            "--out", str(out)]) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", "x", "y"]
        assert len(rows) == 1 + 3 * 4
        assert all(len(row) == 3 for row in rows)
        assert [row[0] for row in rows[1::4]] == labels
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)


class TestBary1d:
    def write_gaussian_grids(self, tmp_path):
        g1 = tmp_path / "g1.csv"
        g2 = tmp_path / "g2.csv"
        write_quantile_grid(g1, gaussian_quantiles(0.0, 1.0))
        write_quantile_grid(g2, gaussian_quantiles(2.0, 3.0))
        return str(g1), str(g2)

    def test_equal_weight_blend(self, tmp_path, capsys):
        g1, g2 = self.write_gaussian_grids(tmp_path)
        out = tmp_path / "bary.csv"
        assert run_command(["bary1d", g1, g2, "--out", str(out)]) == 0
        summary = parse_summary(capsys.readouterr().out)
        assert float(summary["mean"]) == pytest.approx(1.0, abs=1e-6)
        assert float(summary["variance"]) == pytest.approx(4.0, abs=0.02)
        assert float(summary["ensemble_variance"]) == pytest.approx(
            2.0, abs=0.02)
        back = read_quantile_grid(out)
        assert back.size == 4096
        assert back.mean() == pytest.approx(1.0, abs=1e-6)

    def test_custom_weights(self, tmp_path, capsys):
        g1, g2 = self.write_gaussian_grids(tmp_path)
        assert run_command(["bary1d", g1, g2,
                            "--weights", "0.25,0.75"]) == 0
        summary = parse_summary(capsys.readouterr().out)
        assert float(summary["mean"]) == pytest.approx(1.5, abs=1e-6)
        assert float(summary["variance"]) == pytest.approx(6.25, abs=0.05)

    def test_bad_weights_is_exit_1(self, tmp_path, capsys):
        g1, g2 = self.write_gaussian_grids(tmp_path)
        code = run_command(["bary1d", g1, g2, "--weights", "0.5,0.6"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", ["nan,nan", "inf,0.5"])
    def test_non_finite_weights_are_a_weight_error(self, tmp_path, capsys,
                                                   weights):
        # NaN weights used to reach the grid check and be reported as
        # non-finite quantile values.
        g1, g2 = self.write_gaussian_grids(tmp_path)
        code = run_command(["bary1d", g1, g2, "--weights", weights])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "weights must be finite" in err

    def test_non_numeric_weights_are_exit_1(self, tmp_path, capsys):
        g1, g2 = self.write_gaussian_grids(tmp_path)
        assert run_command(["bary1d", g1, g2, "--weights", "0.5,x"]) == 1
        assert capsys.readouterr().err == (
            "error: --weights must be comma-separated numbers: '0.5,x'\n")


class TestSimulate:
    def test_hospitals_artifact_reruns_identically(self, tmp_path, capsys):
        out1 = tmp_path / "h1.json"
        out2 = tmp_path / "h2.json"
        base = ["simulate", "hospitals", "--k", "6", "--n", "40",
                "--seed", "1"]
        assert run_command(base + ["--out", str(out1)]) == 0
        summary = parse_summary(capsys.readouterr().out)
        assert float(summary["w2_sq trimmed"]) >= 0.0
        assert run_command(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text(encoding="utf-8"))
        assert len(payload["unit_outlier_counts"]) == 6
        assert payload["config"]["k"] == 6

    def test_hospitals_beta_must_be_pair(self, capsys):
        code = run_command(["simulate", "hospitals", "--beta", "4"])
        assert code == 1
        assert "two parameters" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["nan,1", "inf,1", "4,-inf"])
    def test_hospitals_beta_must_be_finite(self, beta, capsys):
        # NaN and inf used to run a zero-contamination study.
        code = run_command(["simulate", "hospitals", "--k", "3", "--n", "20",
                            "--beta", beta])
        assert code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert "must be finite and positive" in out.err

    def test_consistency_artifact_reruns_identically(self, tmp_path,
                                                     capsys):
        out1 = tmp_path / "c1.csv"
        out2 = tmp_path / "c2.csv"
        base = ["simulate", "consistency", "--n", "8,16", "--reps", "3",
                "--seed", "2"]
        assert run_command(base + ["--out", str(out1)]) == 0
        assert run_command(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("n,median_w2_sq_to_reference,"
                            "median_trimmed_variance,variance_gap")
        assert [int(line.split(",")[0]) for line in lines[1:]] == [8, 16]

    def test_consistency_sizes_must_be_integers(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = run_command(["simulate", "consistency", "--n", "8,x",
                            "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --n must be comma-separated integers: '8,x'\n")
        assert not out.exists()


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run_command(["frobnicate"]) == 1
        assert capsys.readouterr().err != ""

    def test_missing_file(self, capsys):
        assert run_command(["barycenter", "/nonexistent/ens.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_weight_sum_off_without_normalize(self, tmp_path, capsys):
        path = gauss_doc(tmp_path / "w.json",
                         [(2.0, [0.0], [[1.0]]), (6.0, [1.0], [[1.0]])])
        assert run_command(["barycenter", path]) == 1
        assert "normalize" in capsys.readouterr().err

    def test_normalize_flag_recovers(self, tmp_path, capsys):
        path = gauss_doc(tmp_path / "w.json",
                         [(2.0, [0.0], [[1.0]]), (6.0, [1.0], [[1.0]])])
        assert run_command(["barycenter", path, "--normalize"]) == 0
        summary = parse_summary(capsys.readouterr().out)
        assert bracket_floats(summary["mean"])[0] == pytest.approx(0.75,
                                                                   rel=1e-9)

    def test_indefinite_cov_file(self, tmp_path, capsys):
        path = gauss_doc(tmp_path / "npd.json",
                         [(1.0, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])])
        assert run_command(["barycenter", path]) == 1
        assert "positive definite" in capsys.readouterr().err

    def test_unwritable_out_path_is_exit_1(self, sigma_trio_path, tmp_path,
                                           capsys):
        out = tmp_path / "missing" / "bary.json"
        code = run_command(["barycenter", sigma_trio_path, "--out",
                            str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert len(err.splitlines()) == 1

    def test_positivity_loss_is_exit_2(self, tmp_path, capsys, monkeypatch):
        def lose_positivity(p, q):
            raise ArithmeticError("distance computation lost positivity: "
                                  "-1.4e-09")

        monkeypatch.setattr("wcons.cli.w2_distance_sq", lose_positivity)
        a = gauss_doc(tmp_path / "a.json", [(1.0, [0.0], [[1.0]])])
        assert run_command(["distance", a, a]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solver failure: ") and "positivity" in err
        assert len(err.splitlines()) == 1

    def test_linear_algebra_failure_is_exit_2(self, sigma_trio_path, capsys,
                                              monkeypatch):
        def singular(ens, tol, max_iter):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("wcons.cli.fixed_point_barycenter", singular)
        assert run_command(["barycenter", sigma_trio_path]) == 2
        err = capsys.readouterr().err
        assert err == "solver failure: Singular matrix\n"

    @pytest.mark.parametrize("weight, mean, cov", [
        (True, [0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]]),
        (1.0, ["1", "2"], [[1.0, 0.0], [0.0, 1.0]]),
        (1.0, [0.0, 1.0], [[1.0, "0"], [0.0, 1.0]]),
        (1.0, [0.0, False], [[1.0, 0.0], [0.0, 1.0]]),
    ])
    def test_non_numeric_fields_are_exit_1(self, tmp_path, capsys, weight,
                                           mean, cov):
        path = gauss_doc(tmp_path / "s.json", [(weight, mean, cov)])
        assert run_command(["barycenter", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: distributions[0]: ")
        assert "not numeric" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("flags", [[], ["--normalize"]])
    def test_overflowing_weight_sum_is_one_line(self, tmp_path, flags):
        # A real process: numpy's overflow warning would print its own
        # lines to stderr ahead of the error.
        path = gauss_doc(tmp_path / "w.json", [(1e308, [0.0], [[1.0]]),
                                               (1e308, [1.0], [[1.0]])])
        proc = cli_process(["barycenter", path] + flags)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {path}: weights sum to inf\n"

    # 2 and 3: two members 1e300 apart in that dimension, whose squared
    # mean gap overflows.  "planar": six planar members at scale 1e160,
    # whose determinants overflow.  "diagonal": planar members with finite
    # determinants whose cross terms tr(S S_j) overflow.
    @pytest.mark.parametrize("doc", [2, 3, "planar", "diagonal"])
    @pytest.mark.parametrize("flags", [
        ["barycenter"], ["trim", "--alpha", "0.2"], ["compare"],
        ["variance-curve", "--alphas", "0:0.2:0.1"]])
    def test_overflowing_distance_is_exit_2(self, tmp_path, doc, flags):
        # A real process, so a numpy warning would show on stderr: each
        # overflow must end in one solver-failure line and no --out file.
        if doc == "planar":
            path = planar_doc(tmp_path / "huge.json", 1e160)
        elif doc == "diagonal":
            path = gauss_doc(tmp_path / "diag.json", [
                (1.0 / 3.0, [float(i), -float(i)],
                 [[(1 + i) * 1e156, 0.0], [0.0, (1 + i) * 1e147]])
                for i in range(3)])
        else:
            eye = np.eye(doc).tolist()
            far = [1e300] + [0.0] * (doc - 1)
            path = gauss_doc(tmp_path / "far.json",
                             [(0.5, [0.0] * doc, eye), (0.5, far, eye)])
        out = tmp_path / "out"
        proc = cli_process(flags + [path, "--out", str(out)])
        assert proc.returncode == 2
        what = "squared distance" if doc in (2, 3) else "planar cross term"
        assert proc.stderr == f"solver failure: {what} is not finite\n"
        assert not out.exists()

    # "huge": six planar members at scale 1e78, where det S det S_j
    # overflows.  "mixed": five members at 1e75 and one at 1e80, so in one
    # call only the rows that pair the two scales take the product of
    # roots.  Both lie inside the planar scale edge.
    @pytest.mark.parametrize("doc", ["huge", "mixed"])
    @pytest.mark.parametrize("flags", [["barycenter"],
                                       ["trim", "--alpha", "0.2"]])
    def test_planar_scale_edge_is_exit_0(self, tmp_path, doc, flags):
        # A real process, so a numpy warning would show on stderr.
        if doc == "huge":
            path = planar_doc(tmp_path / "huge.json", 1e78)
        else:
            path = mixed_scale_doc(tmp_path / "mixed.json")
        proc = cli_process(flags + [path])
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_huge_planar_ellipse_is_exit_0(self, tmp_path):
        # Tracing ellipses takes no distance, so a document past the
        # planar scale edge still traces, without a warning.
        path = planar_doc(tmp_path / "huge.json", 1e160)
        proc = cli_process(["ellipse", path, "--count", "4",
                            "--out", str(tmp_path / "e.csv")])
        assert proc.returncode == 0
        assert proc.stderr == ""


def failure_probe(tmp_path, probe):
    """Arguments of one failure-contract run: an input that must end in
    exit 1 with one stderr line and no ``--out`` file."""
    grid = tmp_path / "grid.csv"
    write_quantile_grid(grid, gaussian_quantiles(0.0, 1.0))
    out = str(tmp_path / "out")
    if probe == "non_utf8_ensemble":
        path = tmp_path / "latin1.json"
        path.write_bytes(b'\xff{"distributions": []}')
        return ["barycenter", str(path), "--out", out]
    if probe == "non_utf8_grid":
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"quantile_value\n\xb51.0\n2.0\n")
        return ["bary1d", str(grid), str(path), "--out", out]
    if probe == "deep_document":
        path = tmp_path / "deep.json"
        path.write_text('{"distributions": ' + "[" * 100_000,
                        encoding="utf-8")
        return ["barycenter", str(path), "--out", out]
    if probe == "missing_grid":
        return ["bary1d", str(grid), str(tmp_path / "absent.csv"),
                "--out", out]
    if probe == "decreasing_grid":
        path = tmp_path / "dec.csv"
        path.write_text("quantile_value\n1.0\n-1.0\n", encoding="utf-8")
        return ["bary1d", str(grid), str(path), "--out", out]
    path = gauss_doc(tmp_path / "solid.json",
                     [(1.0, [0.0, 0.0, 0.0], np.eye(3).tolist())])
    return ["ellipse", path, "--out", out]


FAILURE_PROBES = {
    "non_utf8_ensemble": "can't decode byte 0xff in position 0",
    "non_utf8_grid": "can't decode byte 0xb5 in position 15",
    "deep_document": "deep.json: document nests too deeply",
    "missing_grid": "absent.csv: No such file or directory",
    "ellipse_3d": "error: ellipse tracing requires dimension 2",
    "decreasing_grid": "dec.csv: quantile values must be nondecreasing",
}


class TestFailureContract:
    @pytest.mark.parametrize("probe", list(FAILURE_PROBES))
    def test_in_process(self, tmp_path, capsys, probe):
        argv = failure_probe(tmp_path, probe)
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert FAILURE_PROBES[probe] in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("probe", list(FAILURE_PROBES))
    def test_subprocess(self, tmp_path, probe):
        proc = cli_process(failure_probe(tmp_path, probe))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert FAILURE_PROBES[probe] in proc.stderr
        assert not (tmp_path / "out").exists()


class TestMalformedSecondFile:
    # Each file of a two-file command is parsed on its own, so the error
    # line must say which one is malformed.
    @pytest.mark.parametrize("text, message", [
        ("{", "invalid JSON at line 1, column 2"),
        ('{"distributions": ' + "[" * 100_000, "document nests too deeply"),
        ('{"distributions": []}', "'distributions' must be a non-empty array"),
    ])
    def test_distance_names_the_file(self, tmp_path, capsys, text, message):
        good = gauss_doc(tmp_path / "a.json", [(1.0, [0.0], [[1.0]])])
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        assert run_command(["distance", good, str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}")
        assert err.count("\n") == 1 and err.count(str(bad)) == 1

    def test_subprocess(self, tmp_path):
        good = gauss_doc(tmp_path / "a.json", [(1.0, [0.0], [[1.0]])])
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        proc = cli_process(["distance", good, str(bad)])
        assert proc.returncode == 1
        assert proc.stderr == (f"error: {bad}: invalid JSON at line 1, "
                               f"column 1: Expecting value\n")

    def test_scatter_error_names_the_file(self, tmp_path):
        # An error that is not a ParseError (here NotPositiveDefinite)
        # keeps its exit code and names the file too.
        good = gauss_doc(tmp_path / "good.json", [(1.0, [0.0], [[1.0]])])
        bad = gauss_doc(tmp_path / "nspd.json", [(1.0, [0.0], [[-1.0]])])
        proc = cli_process(["distance", good, bad])
        assert proc.returncode == 1
        assert proc.stderr == (f"error: {bad}: distributions[0]: cov is not "
                               f"positive definite (min eigenvalue -1)\n")


class TestModuleEntryPoint:
    def test_subprocess_smoke(self, tmp_path):
        a = gauss_doc(tmp_path / "a.json", [(1.0, [0.0], [[1.0]])])
        b = gauss_doc(tmp_path / "b.json", [(1.0, [2.0], [[9.0]])])
        proc = subprocess.run([sys.executable, "-m", "wcons.cli",
                               "distance", a, b],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        summary = parse_summary(proc.stdout)
        assert float(summary["w2_sq"]) == pytest.approx(8.0, abs=1e-9)

    def test_import_loads_no_scipy(self):
        # wcons needs only numpy; a fresh interpreter shows what the
        # package import itself pulls in.
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys, wcons; print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
