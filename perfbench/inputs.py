"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed (and the op index where inputs
differ per op) and returns plain arrays or writes plain files.  Nothing here
imports ``wcons``: the program under test only ever receives generated data.
The same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import NormalDist

import numpy as np

# Stream tags keep the workloads' random streams apart for one seed.
CLI, GROWING, WIDE, HOSPITAL = 1, 2, 3, 4

GROWING_SIZES = (50, 200, 800)
WIDE_SHAPES = ((8, 20), (8, 60), (16, 20), (16, 60))
# Timed ops stay below the band where the solver stalls (from about 1e7
# per member, ArithmeticError and MaxIterationsExceeded appear); the
# stall probe covers the whole band on a fixed set of ensembles.
WIDE_CONDITION = (1e2, 1e6)
STALL_CONDITION = (1e2, 1e8)
STALL_SEED = 0
STALL_OPS = 16
WIDE_SHIFT = 50.0
TRIM_ALPHA = 0.2


def stream(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, workload, op) triple."""
    return np.random.default_rng([seed, tag, index])


def spd_stack(gen: np.random.Generator, d: int, conditions) -> np.ndarray:
    """One symmetric positive definite matrix per entry of ``conditions``.

    Eigenvalues are log-uniform between c^-1/2 and c^1/2 with both ends
    pinned, so each matrix has condition number exactly c; the eigenbasis is
    Haar-distributed.
    """
    conditions = np.asarray(conditions, dtype=float)
    out = np.empty((conditions.shape[0], d, d))
    for j, c in enumerate(conditions):
        half = 0.5 * np.log(c)
        eigs = np.exp(gen.uniform(-half, half, size=d))
        eigs[0], eigs[-1] = np.exp(half), np.exp(-half)
        q, r = np.linalg.qr(gen.standard_normal((d, d)))
        q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
        m = (q * eigs) @ q.T
        out[j] = 0.5 * (m + m.T)
    return out


def shift_outliers(gen: np.random.Generator, means: np.ndarray, count: int,
                   distance: float) -> None:
    """Move the first ``count`` means ``distance`` away in random directions."""
    dirs = gen.standard_normal((count, means.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means[:count] += distance * dirs


def trim_seed(gen: np.random.Generator) -> int:
    return int(gen.integers(0, 2 ** 31))


# --- cli_mix -------------------------------------------------------------

def _member_obj(weight, mean, cov) -> dict:
    return {"weight": float(weight),
            "mean": [float(x) for x in mean],
            "cov": [[float(x) for x in row] for row in cov]}


def _ensemble_text(weights, means, covs) -> str:
    entries = [_member_obj(w, m, c) for w, m, c in zip(weights, means, covs)]
    return json.dumps({"distributions": entries}, indent=1) + "\n"


def _grid_text(mean: float, sigma: float, size: int) -> str:
    law = NormalDist(mean, sigma)
    values = (law.inv_cdf((i + 0.5) / size) for i in range(size))
    return "quantile_value\n" + "".join(f"{v!r}\n" for v in values)


def cli_files(seed: int) -> dict[str, str]:
    """Text of every file the CLI mix reads, keyed by file name.

    An ensemble (k=24, d=3, three far outliers, unequal weights), two single
    members, two 1-D quantile grids of 4096 points, and one ensemble whose
    second covariance has a negative eigenvalue.
    """
    gen = stream(seed, CLI)
    k, d = 24, 3
    means = 0.5 * gen.standard_normal((k, d))
    shift_outliers(gen, means, 3, 30.0)
    covs = spd_stack(gen, d, np.exp(gen.uniform(0.0, np.log(10.0), size=k)))
    raw = gen.uniform(0.5, 1.5, size=k)
    weights = raw / raw.sum()
    single = [(gen.standard_normal(d), spd_stack(gen, d, [5.0])[0])
              for _ in range(2)]
    mus = gen.normal(0.0, 1.0, size=2)
    sigmas = gen.uniform(0.5, 2.0, size=2)
    bad = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return {
        "ensemble.json": _ensemble_text(weights, means, covs),
        "single_a.json": _ensemble_text([1.0], [single[0][0]], [single[0][1]]),
        "single_b.json": _ensemble_text([1.0], [single[1][0]], [single[1][1]]),
        "grid_a.csv": _grid_text(mus[0], sigmas[0], 4096),
        "grid_b.csv": _grid_text(mus[1], sigmas[1], 4096),
        "not_spd.json": _ensemble_text([0.5, 0.5], [np.zeros(d), np.ones(d)],
                                       [np.eye(d), bad]),
    }


def write_cli_files(seed: int, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in cli_files(seed).items():
        path = directory / name
        path.write_text(text, encoding="utf-8")
        paths[name] = path
    return paths


def cli_seed(seed: int) -> int:
    """Seed passed to ``wcons trim --seed``."""
    return trim_seed(stream(seed, CLI, 1))


# --- growing_ensembles ---------------------------------------------------

def growing_input(seed: int, index: int) -> dict:
    """Ensemble size, draw generator and trim seed for op ``index``."""
    n = GROWING_SIZES[index % len(GROWING_SIZES)]
    return {"n": n, "gen": stream(seed, GROWING, 2 * index),
            "trim_seed": trim_seed(stream(seed, GROWING, 2 * index + 1))}


# --- wide_consensus ------------------------------------------------------

def wide_input(seed: int, index: int, condition=WIDE_CONDITION) -> dict:
    """Raw means and covariances for op ``index``.

    Shapes cycle through d in {8, 16} and k in {20, 60}; per-member
    condition numbers are log-uniform on ``condition`` ([1e2, 1e6] for the
    timed ops); one eighth of the members sit 50 units away from the rest.
    """
    d, k = WIDE_SHAPES[index % len(WIDE_SHAPES)]
    gen = stream(seed, WIDE, index)
    lo, hi = np.log(condition[0]), np.log(condition[1])
    covs = spd_stack(gen, d, np.exp(gen.uniform(lo, hi, size=k)))
    means = gen.standard_normal((k, d))
    shift_outliers(gen, means, k // 8, WIDE_SHIFT)
    return {"d": d, "k": k, "means": means, "covs": covs,
            "trim_seed": trim_seed(gen)}


def stall_input(index: int) -> dict:
    """Ensemble ``index`` of the fixed stall probe: the wide_consensus recipe
    with per-member condition numbers log-uniform on [1e2, 1e8]."""
    return wide_input(STALL_SEED, index, STALL_CONDITION)


# --- hospital_study ------------------------------------------------------

def hospital_seed(seed: int, index: int) -> int:
    """Study seed of op ``index``: successive seeds from ``10000 * seed``."""
    return 10000 * seed + index
