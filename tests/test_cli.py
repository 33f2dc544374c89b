"""Command-line interface: stdout summaries, JSON and CSV artifacts,
exit codes, and byte-stable reruns."""

import json
import subprocess
import sys

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
