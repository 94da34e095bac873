"""Tests for report serialization: JSON round-trip, schema, CSV format."""

import json
import math

import numpy as np
import pytest
from report_reference import reference_json

from ladderspec.report import SpectralReport


def _sample_report():
    rep = SpectralReport(
        kind="unit_test",
        config={"L": 2.0, "eps": np.float64(0.1), "sym_class": "sym"},
        bands=[[0.0, 1.2], [1.9, 4.3]],
        gaps=[{"omega_b": 1.2, "omega_t": 1.9, "type": "i"}],
        eigenvalues=[np.float64(1.34), 1.80],
        diagnostics={"n_dofs": np.int64(123)},
    )
    rep.add_table(
        "values",
        ["omega", "lambda", "label"],
        [(np.float64(1.0), 1.0, "a"), (2.0, np.float64(4.0), "b")],
    )
    return rep


def test_json_round_trip(tmp_path):
    rep = _sample_report()
    path = tmp_path / "rep.json"
    rep.save(path)
    back = SpectralReport.load(path)
    assert back.kind == rep.kind
    assert back.schema == rep.schema
    assert back.config == {"L": 2.0, "eps": 0.1, "sym_class": "sym"}
    assert back.bands == [[0.0, 1.2], [1.9, 4.3]]
    assert back.gaps == rep.gaps
    assert back.eigenvalues == [1.34, 1.8]
    assert back.tables == rep.tables
    assert back.diagnostics == {"n_dofs": 123}
    # the JSON itself is pure-python typed and sorted
    data = json.loads(path.read_text())
    assert sorted(data) == list(data)


def test_sample_report_json_bytes(tmp_path):
    expected = (
        '{"bands": [[0.0, 1.2], [1.9, 4.3]], '
        '"config": {"L": 2.0, "eps": 0.1, "sym_class": "sym"}, '
        '"diagnostics": {"n_dofs": 123}, "eigenvalues": [1.34, 1.8], '
        '"gaps": [{"omega_b": 1.2, "omega_t": 1.9, "type": "i"}], '
        '"kind": "unit_test", "schema": "ladderspec/report-v1", '
        '"tables": {"values": {"columns": ["omega", "lambda", "label"], '
        '"rows": [[1.0, 1.0, "a"], [2.0, 4.0, "b"]]}}}'
    )
    rep = _sample_report()
    assert rep.to_json() == expected
    path = tmp_path / "rep.json"
    rep.save(path)
    assert path.read_text() == expected + "\n"  # one line, newline-terminated


def test_json_matches_reference_walk():
    grid = np.arange(6.0).reshape(2, 3) / 7.0
    rep = SpectralReport(
        kind="encoder",
        config={
            "f64": np.float64(0.1),
            "f32": np.float32(0.1),
            "i64": np.int64(-7),
            "tuple": (1, np.float64(2.5), "x"),
            "nested": {"a": {"b": [np.int64(3), (np.float32(1.5),)]}},
        },
        bands=[np.array([0.25, 1.0 / 3.0]), (np.float64(2.0), 3.0)],
        gaps=[{"omega_b": np.float64(1.2), "omega_t": 1.9, "type": "ii"}],
        eigenvalues=[np.float64(np.pi), math.nan, math.inf, -math.inf, np.float64("nan")],
        diagnostics={
            "grid": grid,
            "modes": np.array([1.0 + 2.0j, -0.5j]),
            "py_complex": 1.5 - 2.25j,
            "np_complex": np.complex128(0.1 + 0.2j),
            "counts": np.array([1, 2, 3], dtype=np.int64),
            "inf": np.float64(-np.inf),
        },
    )
    rep.add_table("t", ["a", "b", "c"], [(np.float64(1.0) / 3.0, np.int64(4), "s"), (np.nan, 2, "")])
    assert rep.to_json() == reference_json(rep)
    back = json.loads(rep.to_json())
    assert back["diagnostics"]["modes"] == [{"re": 1.0, "im": 2.0}, {"re": -0.0, "im": -0.5}]
    assert back["diagnostics"]["grid"] == grid.tolist()


def test_json_numpy_scalars_beyond_the_walk():
    # np.bool_ and np.complex64 encode through .item(); the reference walk
    # leaves both to json, which raises TypeError
    rep = SpectralReport(
        kind="flags",
        diagnostics={"ok": np.bool_(True), "bad": np.bool_(False), "z": np.complex64(0.5 + 1j)},
    )
    assert '"diagnostics": {"bad": false, "ok": true, "z": {"im": 1.0, "re": 0.5}}' in rep.to_json()
    with pytest.raises(TypeError):
        reference_json(rep)
    for value in (object(), {1, 2}, np.longdouble(1.0)):
        with pytest.raises(TypeError, match="not JSON serializable"):
            SpectralReport(kind="bad", config={"x": value}).to_json()


def test_load_rejects_other_schema(tmp_path):
    rep = _sample_report()
    path = tmp_path / "rep.json"
    rep.save(path)
    data = json.loads(path.read_text())
    data["schema"] = "ladderspec/report-v0"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="schema"):
        SpectralReport.load(path)


def test_add_table_normalizes_rows(tmp_path):
    rep = _sample_report()
    tab = rep.tables["values"]
    assert tab["columns"] == ["omega", "lambda", "label"]
    assert tab["rows"] == [[1.0, 1.0, "a"], [2.0, 4.0, "b"]]
    # cells are stored as given; numpy scalars are mapped where the report is
    # written, to the bytes of their Python values
    numpy_rows = [
        (np.float64(1.0) / 3.0, np.float32(0.1), np.int64(-7), np.bool_(True)),
        (np.float64(-np.inf), np.float32(1e-40), np.int64(2**40), np.bool_(False)),
    ]
    python_rows = [[x.item() for x in row] for row in numpy_rows]
    assert not any(isinstance(x, np.generic) for row in python_rows for x in row)
    written = []
    for rows in (numpy_rows, python_rows):
        rep = SpectralReport(kind="t")
        rep.add_table("t", ["f64", "f32", "i64", "bool"], rows)
        rep.write_table_csv("t", tmp_path / "t.csv")
        written.append(((tmp_path / "t.csv").read_bytes(), rep.to_json()))
    assert written[0] == written[1]


def test_csv_format_and_determinism(tmp_path):
    rep = _sample_report()
    rep.add_table(
        "mixed",
        ["omega", "kind", "mu"],
        [(1.0 / 3.0, "eig", 0.25), (2.0, "gap_b", "")],
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rep.write_table_csv("mixed", p1)
    rep.write_table_csv("mixed", p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "omega,kind,mu"
    # floats carry 17 significant digits in scientific notation; strings
    # (including empty placeholders) pass through untouched
    assert lines[1] == "3.3333333333333331e-01,eig,2.5000000000000000e-01"
    assert lines[2] == "2.0000000000000000e+00,gap_b,"
    assert float(lines[1].split(",")[0]) == 1.0 / 3.0


def test_csv_missing_table_raises(tmp_path):
    rep = _sample_report()
    with pytest.raises(KeyError):
        rep.write_table_csv("nope", tmp_path / "x.csv")
