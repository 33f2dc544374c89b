"""Wasserstein barycenters and trimmed wide consensus for
location-scatter families.

``import wcons`` loads only numpy and ``wcons.errors``; every other module
loads on first use of one of its names.
"""

import importlib

# Every call needs numpy, which wcons.errors imports, so deferring it would
# only move its import to the first call.
from . import errors

__version__ = "0.1.0"

_EXPORTS = {
    "barycenter": ("BarycenterResult", "WeightedEnsemble",
                   "barycenter_variance", "fixed_point_barycenter", "g_map",
                   "linear_mean", "log_euclidean_mean"),
    "ensemble_io": ("EnsembleDocument", "emit_ensemble", "parse_ensemble",
                    "parse_ensemble_text", "read_quantile_grid",
                    "write_quantile_grid"),
    "errors": ("BadWeights", "DegenerateTrim", "DimensionMismatch",
               "GridMismatch", "InvalidInput", "MaxIterationsExceeded",
               "NotPositiveDefinite", "ParseError", "SingularSubset",
               "UnsupportedConfiguration"),
    "locscatter": ("AffineMap", "LocScatter", "center_split", "optimal_map",
                   "similarity_pushforward", "w2_distance_sq",
                   "w2_distances_sq"),
    "rng": ("RngState", "splitmix64"),
    "simulation": ("ConsistencyReport", "ConsistencyRow", "HospitalConfig",
                   "HospitalReport", "c_step_path", "consistency_harness",
                   "ellipse_points", "ellipse_toy_ensemble", "estimate_mcd",
                   "gaussian_parameter_law", "hospital_experiment",
                   "random_spd"),
    "spd": ("SpdMatrix", "SymMatrix", "certify_spd", "spd_exp", "spd_log",
            "sym_eigen"),
    "trimming": ("BallCheck", "TrimConfig", "TrimmedResult",
                 "brute_force_trimmed", "trim_weights", "trimmed_barycenter",
                 "variance_curve", "verify_ball_property"),
    "univariate": ("QuantileGrid", "gaussian_quantiles",
                   "quantile_barycenter", "variance_1d", "w2_distance_1d"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import an exported name's module on first access and keep the name."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
