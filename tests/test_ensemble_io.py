"""Ensemble JSON documents and quantile-grid CSV files: parsing,
validation errors, serialization round trips."""

import json
import warnings

import numpy as np
import pytest

from wcons import (BadWeights, DimensionMismatch, InvalidInput, LocScatter,
                   NotPositiveDefinite, ParseError, QuantileGrid,
                   WeightedEnsemble, certify_spd, w2_distance_sq)
from wcons.ensemble_io import (EnsembleDocument, emit_ensemble,
                               loc_scatter_obj, parse_ensemble,
                               parse_ensemble_text, read_quantile_grid,
                               write_quantile_grid)

import helpers


def entry(weight, mean, cov, label=None):
    obj = {"weight": weight, "mean": mean, "cov": cov}
    if label is not None:
        obj["label"] = label
    return obj


def doc_text(entries):
    return json.dumps({"distributions": entries})


class TestParseEnsemble:
    def test_singleton(self):
        doc = parse_ensemble_text(doc_text(
            [entry(1.0, [1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]], "only")]))
        assert doc.ensemble.size == 1
        np.testing.assert_array_equal(doc.ensemble.members[0].mean,
                                      [1.0, 2.0])
        np.testing.assert_array_equal(doc.ensemble.members[0].cov.entries,
                                      [[2.0, 0.5], [0.5, 1.0]])
        assert doc.labels == ("only",)

    def test_labels_are_optional(self):
        doc = parse_ensemble_text(doc_text(
            [entry(0.5, [0.0], [[1.0]], "named"),
             entry(0.5, [1.0], [[1.0]])]))
        assert doc.labels == ("named", None)

    def test_weights_inside_tolerance_are_renormalized(self):
        text = doc_text([entry(0.5 + 2e-7, [0.0], [[1.0]]),
                         entry(0.5, [1.0], [[1.0]])])
        doc = parse_ensemble_text(text)
        assert doc.ensemble.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_weight_sum_off_raises_bad_weights(self):
        text = doc_text([entry(0.5, [0.0], [[1.0]]),
                         entry(0.6, [1.0], [[1.0]])])
        with pytest.raises(BadWeights, match="sum to"):
            parse_ensemble_text(text)

    def test_normalize_flag_rescales(self):
        text = doc_text([entry(2.0, [0.0], [[1.0]]),
                         entry(6.0, [1.0], [[1.0]])])
        doc = parse_ensemble_text(text, normalize=True)
        np.testing.assert_allclose(doc.ensemble.weights, [0.25, 0.75],
                                   rtol=1e-15)

    def test_indefinite_cov_raises_with_entry_index(self):
        text = doc_text([entry(1.0, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])])
        with pytest.raises(NotPositiveDefinite,
                           match=r"distributions\[0\]") as info:
            parse_ensemble_text(text)
        assert info.value.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_second_entry_index_reported(self):
        text = doc_text([entry(0.5, [0.0], [[1.0]]),
                         entry(0.5, [0.0], [[0.0]])])
        with pytest.raises(NotPositiveDefinite, match=r"distributions\[1\]"):
            parse_ensemble_text(text)

    def test_strong_asymmetry_rejected(self):
        text = doc_text([entry(1.0, [0.0, 0.0], [[1.0, 0.1], [0.2, 1.0]])])
        with pytest.raises(ParseError, match="asymmetric"):
            parse_ensemble_text(text)

    def test_overflowing_skew_rejected(self):
        # cov - cov.T overflows: it used to warn before the check.
        cov = [[1.0, 1e308], [-1e308, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=r"asymmetric \(max skew inf"):
                parse_ensemble_text(doc_text([entry(1.0, [0.0, 0.0], cov)]))

    def test_overflowing_symmetrization_rejected(self):
        # Finite and symmetric, but A + A^T overflows.
        cov = [[1e308, 0.0], [0.0, 1e308]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="symmetrization overflows"):
                parse_ensemble_text(doc_text([entry(1.0, [0.0, 0.0], cov)]))

    def test_tiny_asymmetry_symmetrized(self):
        cov = [[1.0, 0.1], [0.1 + 1e-12, 1.0]]
        doc = parse_ensemble_text(doc_text([entry(1.0, [0.0, 0.0], cov)]))
        m = doc.ensemble.members[0].cov.entries
        assert m[0, 1] == m[1, 0]

    def test_invalid_json_reports_location(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_ensemble_text("{not json")

    def test_top_level_shape_checked(self):
        with pytest.raises(ParseError, match="distributions"):
            parse_ensemble_text(json.dumps([1, 2, 3]))
        with pytest.raises(ParseError, match="distributions"):
            parse_ensemble_text(json.dumps({"other": []}))
        with pytest.raises(ParseError, match="non-empty"):
            parse_ensemble_text(json.dumps({"distributions": []}))

    def test_entry_field_errors_carry_index(self):
        with pytest.raises(ParseError, match=r"distributions\[0\].*weight"):
            parse_ensemble_text(doc_text([{"mean": [0.0], "cov": [[1.0]]}]))
        with pytest.raises(ParseError, match=r"distributions\[1\]"):
            parse_ensemble_text(doc_text([entry(0.5, [0.0], [[1.0]]),
                                          "not an object"]))

    def test_field_validation(self):
        with pytest.raises(ParseError, match="positive"):
            parse_ensemble_text(doc_text([entry(0.0, [0.0], [[1.0]])]))
        with pytest.raises(ParseError, match="finite"):
            parse_ensemble_text(doc_text(
                [entry(1.0, [float("nan")], [[1.0]])]))
        with pytest.raises(ParseError, match="shape"):
            parse_ensemble_text(doc_text(
                [entry(1.0, [0.0, 0.0], [[1.0]])]))
        with pytest.raises(ParseError, match="label"):
            parse_ensemble_text(doc_text(
                [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]],
                  "label": 7}]))
        with pytest.raises(ParseError, match="numeric"):
            parse_ensemble_text(doc_text(
                [entry(1.0, ["zero"], [[1.0]])]))

    @pytest.mark.parametrize("field, value", [
        ("weight", True), ("weight", "1"), ("mean", ["1", "2"]),
        ("mean", [True, 0.0]), ("cov", [[1.0, "0"], [0.0, 1.0]]),
        ("cov", [[1.0, None], [0.0, 1.0]]),
    ])
    def test_non_numbers_are_rejected(self, field, value):
        obj = entry(1.0, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        obj[field] = value
        with pytest.raises(ParseError,
                           match=rf"distributions\[0\]: {field} is not"):
            parse_ensemble_text(doc_text([obj]))

    def test_overflowing_cov_entry_is_not_finite(self):
        # JSON has no infinity, but 1e999 parses to one.
        text = ('{"distributions": [{"weight": 1.0, "mean": [0.0], '
                '"cov": [[1e999]]}]}')
        with pytest.raises(ParseError,
                           match=r"distributions\[0\]: cov must be finite"):
            parse_ensemble_text(text)

    def test_deep_nesting_is_a_parse_error(self):
        # The JSON decoder recurses once per nesting level.
        text = '{"distributions": ' + "[" * 100_000
        with pytest.raises(ParseError, match="^document nests too deeply$"):
            parse_ensemble_text(text)

    def test_integer_too_large_for_a_float(self):
        text = doc_text([entry(1, [10 ** 400], [[1]])])
        with pytest.raises(ParseError, match="too large"):
            parse_ensemble_text(text)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_overflowing_weight_sum_is_rejected(self, normalize):
        text = doc_text([entry(1e308, [0.0], [[1.0]]),
                         entry(1e308, [1.0], [[1.0]])])
        with pytest.raises(BadWeights, match="sum to inf"):
            parse_ensemble_text(text, normalize=normalize)

    def test_dimension_mismatch_between_entries(self):
        from wcons import DimensionMismatch
        text = doc_text([entry(0.5, [0.0], [[1.0]]),
                         entry(0.5, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])])
        with pytest.raises(DimensionMismatch):
            parse_ensemble_text(text)

    def test_parse_from_path(self, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text(doc_text([entry(1.0, [3.0], [[4.0]])]),
                        encoding="utf-8")
        ens = parse_ensemble(path).ensemble
        assert ens.size == 1
        assert ens.members[0].mean[0] == 3.0

    def test_missing_path_is_named(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ParseError) as info:
            parse_ensemble(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_non_utf8_path_is_named(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'\xff{"distributions": []}')
        with pytest.raises(ParseError) as info:
            parse_ensemble(path)
        assert str(info.value).startswith(f"{path}: ")
        assert "can't decode byte 0xff in position 0" in str(info.value)

    @pytest.mark.parametrize("text, message", [
        ("[", "invalid JSON at line 1, column 2: Expecting value"),
        ('{"distributions": ' + "[" * 100_000, "document nests too deeply"),
        ('{"distributions": [1]}',
         "distributions[0]: entry must be an object"),
    ])
    def test_malformed_document_is_named_once(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_ensemble(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("entries, error, message", [
        ('{"weight": 1.0, "mean": [0], "cov": [[-1]]}', NotPositiveDefinite,
         "distributions[0]: cov is not positive definite (min eigenvalue "
         "-1)"),
        ('{"weight": 0.5, "mean": [0], "cov": [[1]]}', BadWeights,
         "weights sum to 0.5; pass the normalize option or fix the file"),
        ('{"weight": 0.5, "mean": [0], "cov": [[1]]}, '
         '{"weight": 0.5, "mean": [0, 0], "cov": [[1, 0], [0, 1]]}',
         DimensionMismatch, "members span dimensions [1, 2]"),
    ])
    def test_other_document_errors_are_named(self, tmp_path, entries, error,
                                             message):
        path = tmp_path / "bad.json"
        path.write_text('{"distributions": [' + entries + ']}',
                        encoding="utf-8")
        with pytest.raises(error) as info:
            parse_ensemble(path)
        assert type(info.value) is error
        assert str(info.value) == f"{path}: {message}"


class TestEmitEnsemble:
    def test_round_trip_is_exact(self):
        gen = np.random.default_rng(77)
        members = tuple(helpers.random_member(gen, 3) for _ in range(4))
        weights = gen.random(4)
        weights = weights / weights.sum()
        doc = EnsembleDocument(
            ensemble=WeightedEnsemble(weights, members),
            labels=("a", None, "c", "d"))
        back = parse_ensemble_text(emit_ensemble(doc))
        assert back.labels == doc.labels
        np.testing.assert_array_equal(back.ensemble.weights,
                                      doc.ensemble.weights)
        for p, q in zip(back.ensemble.members, doc.ensemble.members):
            np.testing.assert_array_equal(p.mean, q.mean)
            np.testing.assert_array_equal(p.cov.entries, q.cov.entries)
            assert w2_distance_sq(p, q) <= 1e-12

    def test_emit_is_stable_across_calls(self):
        doc = parse_ensemble_text(doc_text(
            [entry(1.0, [0.1, 0.2], [[1.5, 0.3], [0.3, 0.9]], "x")]))
        assert emit_ensemble(doc) == emit_ensemble(doc)

    def test_loc_scatter_obj_plain_types(self):
        p = LocScatter(np.array([1.0, 2.0]), certify_spd(np.eye(2)))
        obj = loc_scatter_obj(p)
        assert obj == {"mean": [1.0, 2.0],
                       "cov": [[1.0, 0.0], [0.0, 1.0]]}
        json.dumps(obj)


class TestQuantileGridFiles:
    def test_round_trip_exact(self, tmp_path):
        gen = np.random.default_rng(3)
        values = np.sort(gen.standard_normal(257))
        grid = QuantileGrid(values)
        path = tmp_path / "grid.csv"
        write_quantile_grid(path, grid)
        back = read_quantile_grid(path)
        np.testing.assert_array_equal(back.values, grid.values)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("values\n0.0\n1.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="quantile_value"):
            read_quantile_grid(path)

    def test_non_numeric_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("quantile_value\n0.0\nabc\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_quantile_grid(path)

    def test_too_few_values_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("quantile_value\n0.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="two"):
            read_quantile_grid(path)

    def test_decreasing_values_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("quantile_value\n1.0\n0.0\n", encoding="utf-8")
        with pytest.raises(InvalidInput, match="nondecreasing"):
            read_quantile_grid(path)

    @pytest.mark.parametrize("text, message", [
        ("1.0\n-1.0\n", "quantile values must be nondecreasing"),
        ("0.0\nnan\n", "quantile grid has non-finite values"),
        ("-inf\n0.0\n", "quantile grid has non-finite values"),
    ])
    def test_bad_values_name_the_path(self, tmp_path, text, message):
        # A grid the file holds but QuantileGrid rejects keeps its type
        # and names the file, as a document's errors do.
        path = tmp_path / "bad.csv"
        path.write_text("quantile_value\n" + text, encoding="utf-8")
        with pytest.raises(InvalidInput) as info:
            read_quantile_grid(path)
        assert type(info.value) is InvalidInput
        assert str(info.value) == f"{path}: {message}"

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("quantile_value\n\n-1.0\n\n1.0\n\n", encoding="utf-8")
        back = read_quantile_grid(path)
        np.testing.assert_array_equal(back.values, [-1.0, 1.0])

    def test_crlf_lines_read(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_bytes(b"quantile_value\r\n-1.0\r\n1.0\r\n")
        back = read_quantile_grid(path)
        np.testing.assert_array_equal(back.values, [-1.0, 1.0])

    @pytest.mark.parametrize("separator", ["\x0c", "\x85", "\u2028"])
    def test_only_newlines_separate_rows(self, tmp_path, separator):
        # str.splitlines would also break on these; a row holding one is
        # not a number.
        path = tmp_path / "grid.csv"
        path.write_text(f"quantile_value\n-1.0{separator}1.0\n2.0\n",
                        encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_quantile_grid(path)
        assert str(info.value).startswith(f"{path}: could not convert")

    def test_missing_path_is_named(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(ParseError) as info:
            read_quantile_grid(path)
        assert str(info.value) == f"{path}: No such file or directory"

    def test_non_utf8_path_is_named(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"quantile_value\n\xb51.0\n2.0\n")
        with pytest.raises(ParseError) as info:
            read_quantile_grid(path)
        assert str(info.value).startswith(f"{path}: ")
        assert "can't decode byte 0xb5 in position 15" in str(info.value)
