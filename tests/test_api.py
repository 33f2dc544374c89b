"""The public surface: exported names, configuration fields and solver
parameters.

A new setting or entry point shows up here as a diff; the removed ones
must stay gone.
"""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wcons
import wcons.spd
from wcons import (AffineMap, HospitalConfig, RngState, SpdMatrix, TrimConfig,
                   brute_force_trimmed, c_step_path, certify_spd,
                   fixed_point_barycenter, variance_curve)

EXPORTS = [
    "AffineMap", "BadWeights", "BallCheck", "BarycenterResult",
    "ConsistencyReport", "ConsistencyRow", "DegenerateTrim",
    "DimensionMismatch", "EnsembleDocument", "GridMismatch",
    "HospitalConfig", "HospitalReport", "InvalidInput", "LocScatter",
    "MaxIterationsExceeded", "NotPositiveDefinite", "ParseError",
    "QuantileGrid", "RngState", "SingularSubset", "SpdMatrix", "SymMatrix",
    "TrimConfig", "TrimmedResult", "UnsupportedConfiguration",
    "WeightedEnsemble", "barycenter_variance", "brute_force_trimmed",
    "c_step_path", "center_split", "certify_spd", "consistency_harness",
    "ellipse_points", "ellipse_toy_ensemble", "emit_ensemble",
    "estimate_mcd", "fixed_point_barycenter", "g_map",
    "gaussian_parameter_law", "gaussian_quantiles", "hospital_experiment",
    "linear_mean", "log_euclidean_mean", "optimal_map", "parse_ensemble",
    "parse_ensemble_text", "quantile_barycenter", "random_spd",
    "read_quantile_grid", "similarity_pushforward", "spd_exp", "spd_log",
    "splitmix64", "sym_eigen", "trim_weights", "trimmed_barycenter",
    "variance_1d", "variance_curve", "verify_ball_property",
    "w2_distance_1d", "w2_distance_sq", "w2_distances_sq",
    "write_quantile_grid",
]


def field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def parameter_names(fn):
    return list(inspect.signature(fn).parameters)


def test_exported_names():
    assert sorted(wcons.__all__) == EXPORTS
    assert set(EXPORTS) <= set(dir(wcons))
    # Each name resolves to the object its module defines.
    for name in EXPORTS:
        assert getattr(wcons, name).__module__.startswith("wcons.")


def test_import_loads_only_the_errors_module():
    # Every other module is imported on first access to one of its names.
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, wcons; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'wcons'), 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['wcons', 'wcons.errors'] True\n"


def test_star_import_binds_every_export():
    namespace = {}
    exec("from wcons import *", namespace)
    assert set(EXPORTS) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        wcons.no_such_name


def test_configuration_fields():
    assert field_names(TrimConfig) == ["alpha", "restarts", "seed"]
    assert field_names(HospitalConfig) == [
        "k", "n", "contamination_beta", "mcd_fraction", "alpha_trim", "seed",
        "mcd_restarts", "trim_restarts"]
    assert field_names(RngState) == ["seed"]


def test_certified_matrix_fields():
    # The entries are held once, next to the eigenpairs that certify them.
    assert field_names(SpdMatrix) == ["entries", "eigenvalues",
                                      "eigenvectors"]
    m = certify_spd([[4.0, 1.0], [1.0, 3.0]])
    assert m.min_eigenvalue == m.eigenvalues[-1]
    assert m.dim == 2


def test_solver_parameters():
    assert parameter_names(fixed_point_barycenter) == ["ens", "tol",
                                                       "max_iter"]
    assert parameter_names(brute_force_trimmed) == ["ens", "alpha"]
    assert parameter_names(c_step_path) == ["points", "h", "mean", "cov"]
    assert parameter_names(variance_curve) == ["ens", "alphas", "restarts",
                                               "seed"]


def test_removed_entry_points_stay_gone():
    assert not hasattr(wcons, "spd_power")
    assert not hasattr(wcons.spd, "spd_power")
    assert "__call__" not in vars(AffineMap)


@pytest.mark.parametrize("call", [
    lambda: TrimConfig(alpha=0.2, inner_tol=1e-12),
    lambda: TrimConfig(alpha=0.2, inner_max_iter=1000),
    lambda: TrimConfig(alpha=0.2, outer_max_iter=100),
    lambda: HospitalConfig(inlier=HospitalConfig.inlier),
    lambda: HospitalConfig(outlier=HospitalConfig.outlier),
    lambda: RngState(0, "pcg64-splitmix64"),
], ids=["TrimConfig.inner_tol", "TrimConfig.inner_max_iter",
        "TrimConfig.outer_max_iter", "HospitalConfig.inlier",
        "HospitalConfig.outlier", "RngState.algorithm"])
def test_removed_settings_stay_gone(call):
    with pytest.raises(TypeError):
        call()
