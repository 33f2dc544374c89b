"""Reading and writing ensemble documents and quantile-grid files.

Ensemble documents are JSON objects of the form

    {"distributions": [{"weight": 0.5, "mean": [...], "cov": [[...]],
                        "label": "unit-1"}, ...]}

with the label optional.  Quantile grids travel as single-column CSV files
with header ``quantile_value``.  Floats are emitted with Python's shortest
round-trip representation, so emitted files are byte-stable and parse back
to the exact same doubles.  A file that cannot be read or decoded as UTF-8,
or whose document is malformed, is a :class:`ParseError` naming its path;
any other error raised inside the document names the path as well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .barycenter import WeightedEnsemble
from .errors import (BadWeights, InvalidInput, NotPositiveDefinite,
                     ParseError)
from .locscatter import LocScatter
from .spd import certify_spd
from .univariate import QuantileGrid

__all__ = [
    "EnsembleDocument",
    "parse_ensemble",
    "parse_ensemble_text",
    "emit_ensemble",
    "read_quantile_grid",
    "write_quantile_grid",
    "loc_scatter_obj",
]

_SYM_TOL = 1e-9
_WEIGHT_SUM_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class EnsembleDocument:
    """A parsed ensemble file: the ensemble plus per-entry labels."""

    ensemble: WeightedEnsemble
    labels: tuple[str | None, ...]


def _entry_error(index: int, message: str) -> ParseError:
    return ParseError(f"distributions[{index}]: {message}")


def _only_numbers(value) -> bool:
    """Whether ``value`` is a JSON number or nested arrays of them; JSON
    ``true``, ``false`` and strings are not numbers."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            return False
    return True


def _parse_entry(index: int, obj) -> tuple[float, LocScatter, str | None]:
    if not isinstance(obj, dict):
        raise _entry_error(index, "entry must be an object")
    for name in ("weight", "mean", "cov"):
        if name not in obj:
            raise _entry_error(index, f"missing field {name!r}")
        if not _only_numbers(obj[name]):
            raise _entry_error(
                index, f"{name} is not numeric: strings and booleans are "
                       f"not numbers")
    try:
        weight = float(obj["weight"])
        mean = np.asarray(obj["mean"], dtype=float)
        cov = np.asarray(obj["cov"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _entry_error(index, f"bad numeric field: {exc}")
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise _entry_error(index, "label must be a string")
    if not weight > 0.0:
        raise _entry_error(index, f"weight must be positive, got {weight!r}")
    if mean.ndim != 1 or not np.all(np.isfinite(mean)):
        raise _entry_error(index, "mean must be a finite vector")
    if cov.shape != (mean.shape[0], mean.shape[0]):
        raise _entry_error(
            index, f"cov shape {cov.shape} does not match mean "
                   f"dimension {mean.shape[0]}")
    if not np.all(np.isfinite(cov)):
        raise _entry_error(index, "cov must be finite")
    with np.errstate(over="ignore"):  # only opposite signs overflow
        skew = np.abs(cov - cov.T).max()
    if skew > _SYM_TOL * max(1.0, np.abs(cov).max()):
        raise _entry_error(index, f"cov is asymmetric (max skew {skew:.3g})")
    try:
        spd = certify_spd(cov)
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(
            f"distributions[{index}]: cov is not positive definite "
            f"(min eigenvalue {exc.min_eigenvalue:.6g})",
            min_eigenvalue=exc.min_eigenvalue)
    return weight, LocScatter(mean, spd), label


def parse_ensemble_text(text: str, normalize: bool = False) -> EnsembleDocument:
    """Parse an ensemble document from a JSON string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ParseError("document nests too deeply")
    if not isinstance(doc, dict) or "distributions" not in doc:
        raise ParseError("document must be an object with a "
                         "'distributions' array")
    entries = doc["distributions"]
    if not isinstance(entries, list) or not entries:
        raise ParseError("'distributions' must be a non-empty array")
    parsed = [_parse_entry(i, obj) for i, obj in enumerate(entries)]
    weights = np.array([p[0] for p in parsed])
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not np.isfinite(total):
        raise BadWeights(f"weights sum to {float(total)!r}")
    if not normalize and abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise BadWeights(f"weights sum to {float(total)!r}; pass the normalize "
                         f"option or fix the file")
    ensemble = WeightedEnsemble(weights / total, tuple(p[1] for p in parsed))
    return EnsembleDocument(ensemble=ensemble,
                            labels=tuple(p[2] for p in parsed))


def parse_ensemble(path, normalize: bool = False) -> EnsembleDocument:
    """Parse an ensemble document from a file path; a file that cannot be
    read, and a malformed document, raise :class:`ParseError` naming the
    path.  Every other error the document raises (a scatter that is not
    positive definite, bad weights) keeps its type and names the path
    too."""
    text = _read_text(path)
    try:
        return parse_ensemble_text(text, normalize=normalize)
    except (ParseError, InvalidInput, NotPositiveDefinite) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def loc_scatter_obj(p: LocScatter) -> dict:
    """JSON-ready object for one family member."""
    return {"mean": [float(x) for x in p.mean],
            "cov": [[float(x) for x in row] for row in p.cov.entries]}


def emit_ensemble(doc: EnsembleDocument) -> str:
    """Serialize a document back to JSON text."""
    entries = []
    for weight, member, label in zip(doc.ensemble.weights,
                                     doc.ensemble.members, doc.labels):
        obj = {"weight": float(weight)}
        obj.update(loc_scatter_obj(member))
        if label is not None:
            obj["label"] = label
        entries.append(obj)
    return json.dumps({"distributions": entries}, indent=2) + "\n"


def read_quantile_grid(path) -> QuantileGrid:
    """Read a quantile grid from a one-column CSV with header."""
    lines = [ln.strip() for ln in _read_text(path).split("\n") if ln.strip()]
    if not lines or lines[0] != "quantile_value":
        raise ParseError(f"{path}: expected header 'quantile_value'")
    try:
        values = np.array([float(ln) for ln in lines[1:]])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")
    if values.size < 2:
        raise ParseError(f"{path}: need at least two quantile values")
    try:
        return QuantileGrid(values)
    except InvalidInput as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def write_quantile_grid(path, grid: QuantileGrid) -> None:
    _write_csv(path, ("quantile_value",), [(v,) for v in grid.values.tolist()])


def _read_text(path) -> str:
    """The whole text of an input file, decoded as UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}")


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows``; Python floats appear as their
    shortest round-trip ``repr``, and fields are quoted only if needed."""
    import csv
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
