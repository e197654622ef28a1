"""CLI: CSV parsing, report shape, determinism, exit codes."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import randtest
from randtest import Dataset, ParseError, RandtestError
from randtest.cli import _bulk_read, _checked_read, json_bytes, load_csv, main

CSV8 = """y,z,x1
1.2,1,0.1
-0.4,1,-0.6
2.1,1,0.9
0.3,1,-0.2
-1.0,0,0.4
0.8,0,-0.8
1.7,0,0.55
-0.9,0,0.0
"""

CSV12 = """y,z,x1,stratum
1.2,1,0.1,a
-0.4,1,-0.6,a
2.1,0,0.9,a
0.3,0,-0.2,a
-1.0,1,0.4,b
0.8,1,-0.8,b
1.7,0,0.55,b
-0.9,0,0.0,b
0.6,1,1.1,a
-0.2,0,0.3,a
1.1,1,-0.4,b
0.4,0,0.7,b
"""

CSV_CLUSTERED = """y,z,x1,cluster
1.0,1,0.2,c1
1.4,1,0.1,c1
0.2,1,-0.3,c2
0.6,1,-0.5,c2
2.0,0,0.7,c3
1.8,0,0.9,c3
-0.5,0,0.0,c4
-0.1,0,0.2,c4
"""


@pytest.fixture
def csv8(tmp_path):
    path = tmp_path / "eight.csv"
    path.write_text(CSV8)
    return str(path)


@pytest.fixture
def csv12(tmp_path):
    path = tmp_path / "twelve.csv"
    path.write_text(CSV12)
    return str(path)


def run_cli(argv, capsysbinary):
    code = main(argv)
    return code, capsysbinary.readouterr().out


def run_json(argv, capsysbinary):
    code, out = run_cli(argv, capsysbinary)
    assert out.endswith(b"\n")
    return code, json.loads(out)


# -- CSV loading ---------------------------------------------------------------


def test_load_csv_minimal(csv8):
    data = load_csv(csv8)
    assert (data.n, data.n1, data.j) == (8, 4, 1)
    assert data.strata is None and data.clusters is None
    assert data.y[0] == 1.2 and data.x[2, 0] == 0.9


def test_load_csv_stratum_and_cluster(csv12, tmp_path):
    data = load_csv(csv12)
    assert data.strata is not None
    assert set(data.strata.tolist()) == {0, 1}
    path = tmp_path / "cl.csv"
    path.write_text(CSV_CLUSTERED)
    clustered = load_csv(str(path))
    assert clustered.clusters is not None
    assert int(clustered.clusters.max()) + 1 == 4


def test_load_csv_bad_z_reports_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,z\n1.0,1\n2.0,2\n3.0,0\n4.0,0\n")
    with pytest.raises(ParseError) as err:
        load_csv(str(path))
    assert err.value.row == 3 and err.value.column == "z"


def test_load_csv_bad_number_reports_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,z,x1\n1.0,1,0.5\noops,1,0.2\n2.0,0,0.1\n3.0,0,0.3\n")
    with pytest.raises(ParseError) as err:
        load_csv(str(path))
    assert err.value.row == 3 and err.value.column == "y"


def test_load_csv_header_validation(tmp_path):
    cases = [
        "y,y,z\n1,1,1\n",              # duplicate
        "y,z,w\n1,1,1\n",              # unknown column
        "y,z,x2\n1,1,1\n",             # covariates must start at x1
        "z,x1\n1,0.2\n",               # y missing
        "",                            # empty file
        "y,z\n",                       # no data rows
    ]
    for text in cases:
        path = tmp_path / "h.csv"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_csv(str(path))


def test_load_csv_missing_cell(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("y,z,x1\n1.0,1,0.5\n2.0,1\n0.5,0,0.1\n0.1,0,0.2\n")
    with pytest.raises(ParseError) as err:
        load_csv(str(path))
    assert err.value.row == 3 and err.value.column == "x1"


@pytest.mark.parametrize("row", ["1.0,1,0.5,99", "1.0,1,0.5,"])
def test_load_csv_rejects_a_row_wider_than_the_header(row, tmp_path):
    # a surplus cell, or a trailing comma, is named before any bad cell
    path = tmp_path / "wide.csv"
    path.write_text(f"y,z,x1\n1.0,1,0.5\noops,1,0.2\n{row}\n0.5,0,0.1\n0.1,0,0.2\n")
    with pytest.raises(ParseError, match="^more cells than the 3 header columns$") as err:
        load_csv(str(path))
    assert err.value.row == 4 and err.value.column == ""


@pytest.mark.parametrize("column", ["stratum", "cluster"])
def test_load_csv_rejects_nul_in_labels(column, tmp_path):
    # numpy's str dtype drops trailing NULs, which would merge "a" and "a\0"
    path = tmp_path / "nul.csv"
    labels = ["a", "a", "b", "b", "a\x00", "c"]
    path.write_text(f"y,z,{column}\n" + "".join(
        f"{i},{i % 2},{label}\n" for i, label in enumerate(labels)
    ))
    with pytest.raises(ParseError, match=r"^NUL character in label 'a\\x00'") as err:
        load_csv(str(path))
    assert err.value.row == 6 and err.value.column == column


_LABELS = ("stratum", "cluster")
# numbers that Python's float() reads and a strict numeric parser may refuse
_FLOAT_ONLY = ("1_000", " 1.5 ", "+.5", "١٢٣")


def _first_bad_cell(order, rows):
    """(message, row, column) of the first bad cell in column order y, z,
    x1..xJ, stratum, cluster, then in row order; None for a valid table."""
    xs = sorted((c for c in order if c.startswith("x")), key=lambda c: int(c[1:]))
    for name in ["y", "z", *xs, *(c for c in _LABELS if c in order)]:
        pos = order.index(name)
        for line, row in enumerate(rows, start=2):
            text = row[pos].strip() if pos < len(row) else ""
            if text == "":
                return "missing value", line, name
            if name in _LABELS:
                continue
            try:
                value = float(text)
            except ValueError:
                return f"not a number: {text!r}", line, name
            if name == "z" and value not in (0.0, 1.0):
                return f"z must be 0 or 1, got {value!r}", line, name
    return None


@st.composite
def _planted_csv(draw):
    """A valid table in a drawn column order with 1-3 planted cells: an
    empty or non-numeric cell, a 2, a number only float() may read, or a
    short row. Whether a plant is bad depends on its column."""
    j = draw(st.integers(0, 2))
    labels = draw(st.sampled_from([(), ("stratum",), ("cluster",), _LABELS]))
    order = draw(st.permutations(["y", "z", *(f"x{k}" for k in range(1, j + 1)), *labels]))
    n = draw(st.integers(4, 8))
    values = {"y": lambda i: f"{0.5 * i - 1}", "z": lambda i: str(i % 2)}
    values.update({f"x{k}": (lambda i, k=k: f"{k * i / 3!r}") for k in range(1, j + 1)})
    values.update(stratum=lambda i: "s", cluster=lambda i: f"c{i}")
    rows = [[values[name](i) for name in order] for i in range(n)]
    plants = st.tuples(
        st.integers(0, n - 1),
        st.integers(0, len(order) - 1),
        st.sampled_from(["", "abc", "2", " 2 ", "short", *_FLOAT_ONLY]),
    )
    for i, pos, bad in draw(st.lists(plants, min_size=1, max_size=3)):
        if bad == "short":
            del rows[i][pos:]
        elif pos < len(rows[i]):
            rows[i][pos] = bad
    return order, rows


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_planted_csv())
@example((["y", "z"], [["1", "0"], ["2", "2"], ["3", "abc"], ["4", "1"]]))
@example((["z", "y", "x1"], [["1", "0", "a"], ["2", "1", "0"], ["0", "", "0"], ["0", "4", "1"]]))
@example((["y", "z", "x1"], [[text, str(i % 2), text] for i, text in enumerate(_FLOAT_ONLY)]))
def test_load_csv_names_the_first_bad_cell(tmp_path, table):
    order, rows = table
    path = tmp_path / "planted.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([order, *rows])
    expected = _first_bad_cell(order, rows)
    try:
        data = load_csv(str(path))
    except ParseError as exc:
        assert (str(exc), exc.row, exc.column) == expected
        return
    except RandtestError:  # a planted label can leave an arm or a cluster invalid
        assert expected is None
        return
    assert expected is None
    names = ["y", *(f"x{k}" for k in range(1, data.j + 1))]
    for name, values in zip(names, [data.y, *data.x.T]):
        assert values.tolist() == [float(row[order.index(name)]) for row in rows]


_HEADERS = st.sampled_from(["", "y,z\n", "y,z,x1\n", "y,z,x1,stratum\n", "z,y,cluster\n"])
_BODY = st.text(alphabet="01.-e,\n\r\" x9naé\x00", max_size=120)
_CSV_BYTES = st.binary(max_size=120) | st.builds(
    lambda header, body, encoding: (header + body).encode(encoding),
    _HEADERS,
    _BODY,
    st.sampled_from(["utf-8", "latin-1"]),
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_CSV_BYTES)
def test_load_csv_fuzz(tmp_path, raw):
    # any small byte file either loads or raises a RandtestError
    path = tmp_path / "fuzz.csv"
    path.write_bytes(raw)
    try:
        data = load_csv(str(path))
    except RandtestError:
        return
    assert isinstance(data, Dataset)


@pytest.mark.parametrize(
    "command, last_line",
    [
        ("analyze", "0.5,0,0.3 café".encode("latin-1")),
        ("permlm", "0.5,0,0.3 café".encode("latin-1")),
        ("analyze", b"0.5,0," + b"9" * 200_000),  # over the csv module's field limit
    ],
    ids=["latin1-analyze", "latin1-permlm", "oversized-field"],
)
def test_bad_csv_bytes_are_json_errors(command, last_line, tmp_path, capsysbinary):
    path = tmp_path / "bad.csv"
    path.write_bytes(CSV8.encode() + last_line + b"\n")
    code, report = run_json([command, str(path)], capsysbinary)
    assert code == 1
    assert report["error"]["type"] == "ParseError"
    assert report["error"]["row"] == 10


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--reps", "99", "--ci"], ["permlm", "--scheme", "fl", "--reps", "99"]],
    ids=["analyze", "permlm"],
)
def test_bom_csv_reports_like_plain_csv(argv, tmp_path, capsysbinary):
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(CSV12.encode())
    marked.write_bytes(BOM + CSV12.encode())
    reports = []
    for path in (plain, marked):
        code, report = run_json([argv[0], str(path), *argv[1:]], capsysbinary)
        assert code == 0
        del report["timestamp"], report["data"]["path"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_bad_bytes_after_bom_report_their_row(tmp_path, capsysbinary):
    path = tmp_path / "bad.csv"
    path.write_bytes(BOM + CSV8.encode() + "0.5,0,0.3 café".encode("latin-1") + b"\n")
    code, report = run_json(["analyze", str(path)], capsysbinary)
    assert code == 1
    assert report["error"]["type"] == "ParseError"
    assert report["error"]["row"] == 10


@pytest.mark.parametrize("end", ["\r", "\r\n", "\n"], ids=["cr", "crlf", "lf"])
@pytest.mark.parametrize("cell", [b"3,0\xff", b"3,x"], ids=["non-utf8", "bad-cell"])
def test_csv_errors_count_rows_as_csv_reader_does(end, cell, tmp_path):
    # a lone \r ends a row for csv.reader, so the non-UTF-8 byte and the
    # bad cell on the same line are both reported at row 4
    sep = end.encode()
    path = tmp_path / "rows.csv"
    path.write_bytes(sep.join([b"y,z", b"1,0", b"2,1", cell, b"4,1"]) + sep)
    with pytest.raises(ParseError) as err:
        load_csv(str(path))
    assert err.value.row == 4


def test_scenario_config_rows_count_newlines_as_json_does(tmp_path, capsysbinary):
    # json.loads numbers lines by \n alone, and so does the UTF-8 error
    path = tmp_path / "cr.json"
    path.write_bytes('{"base": "complete-null",\r "name": "café"}'.encode("latin-1"))
    code, report = run_json(["simulate", str(path)], capsysbinary)
    assert code == 1
    assert report["error"]["row"] == 1


# -- the bulk read against the reference reader ------------------------------------


def _columns_equal(got, want):
    """Bitwise equal (y, z, x, strata, clusters) column tuples; labels by value."""
    for name, a, b in zip(("y", "z", "x", "strata", "clusters"), got, want):
        if a is None or b is None:
            assert a is None and b is None, name
        elif name in ("strata", "clusters"):
            assert a.tolist() == b.tolist(), name
        else:
            assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, True), name
            assert a.tobytes() == b.tobytes(), name


def _outcome(make):
    """The arrays of the Dataset `make()` returns as bytes with their layout,
    or the fields of the error it raises."""
    try:
        data = make()
    except RandtestError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    arrays = (data.y, data.z, data.x, data.strata, data.clusters)
    return [None if a is None else (a.dtype, a.shape, a.strides, a.tobytes()) for a in arrays]


def _reference_dataset(text):
    y, z, x, strata, clusters = _checked_read(text)
    return Dataset(y, z, x, strata=strata, clusters=clusters)


def _both_paths(text):
    """The bulk read's columns (or None) and the reference reader's columns,
    or its ParseError's (message, row, column)."""
    try:
        want = _checked_read(text)
    except ParseError as exc:
        want = (str(exc), exc.row, exc.column)
    return _bulk_read(text), want


_PAD = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\u3000"])
_NUMBER = st.one_of(
    st.floats(width=64).map(repr),
    st.floats(allow_nan=False).map("{:.17g}".format),
    st.integers(-(10**20), 10**20).map(str),
    st.builds("{}{}e{}".format, st.sampled_from(["", "+", "-"]), st.integers(0, 999),
              st.integers(-320, 320)),
    st.sampled_from(["inf", "-inf", "+inf", "Infinity", "nan", "NaN", "-0", "+1.5", ".5", "5."]),
)
_LABEL = st.text(st.sampled_from("0123456789abcXYZéß中 "), min_size=1, max_size=6).filter(str.strip)


@st.composite
def _plain_csv(draw):
    """A table the bulk read takes: a drawn column order with 0-3
    covariates, numbers in many spellings, labels with digits, letters,
    non-ASCII characters and inner or outer spaces, LF or CRLF line ends,
    with or without a final one."""
    j = draw(st.integers(0, 3))
    labels = draw(st.sampled_from([(), ("stratum",), ("cluster",), _LABELS]))
    order = draw(st.permutations(["y", "z", *(f"x{k}" for k in range(1, j + 1)), *labels]))
    cell = {"z": st.sampled_from(["0", "1", "0.0", "1e0", "+1", "-0"]), "stratum": _LABEL,
            "cluster": _LABEL}
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        row = []
        for name in order:
            text = draw(cell.get(name, _NUMBER))
            row.append(draw(_PAD) + text + draw(_PAD))
        rows.append(",".join(row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([",".join(order), *rows]) + (end if draw(st.booleans()) else "")


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_plain_csv())
def test_bulk_read_equals_the_reference_reader(tmp_path, text):
    bulk, want = _both_paths(text)
    assert bulk is not None
    _columns_equal(bulk, want)
    path = tmp_path / "plain.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(lambda: load_csv(str(path))) == _outcome(lambda: _reference_dataset(text))


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_planted_csv())
@example((["y", "z", "x1"], [[text, str(i % 2), text] for i, text in enumerate(_FLOAT_ONLY)]))
@example((["y", "z"], [[text, "0"] for text in _FLOAT_ONLY]))
def test_planted_tables_read_alike_on_both_paths(table):
    # the same ParseError, or the same columns, whichever path reads them
    order, rows = table
    text = "\n".join(",".join(row) for row in [order, *rows]) + "\n"
    bulk, want = _both_paths(text)
    if bulk is None:
        return
    assert isinstance(want, tuple) and not isinstance(want[0], str), want
    _columns_equal(bulk, want)


def test_float_only_cells_go_to_the_reference_reader():
    # loadtxt refuses what only float() reads; csv.reader then reads it
    for cell in ("1_000", "١٢٣"):
        text = f"y,z\n{cell},0\n2,0\n3,1\n4,1\n"
        bulk, want = _both_paths(text)
        assert bulk is None
        assert want[0][0] == float(cell)
    bulk, want = _both_paths("y,z\n 1.5 ,0\n+.5,0\n3,1\n4,1\n")
    _columns_equal(bulk, want)


_LIMIT = csv.field_size_limit()


@pytest.mark.parametrize(
    "text, error",
    [
        ("y,z\n", ("no data rows", 1, "")),
        ("y,z\r\n", ("no data rows", 1, "")),
        ("y,z\n1,0\n2,0\n3,1\n4,1\n\n", ("missing value", 6, "y")),
        ("y,z\n1,0\n2,0,5\n3,1\n4,1\n", ("more cells than the 2 header columns", 3, "")),
        ("y,z\n1,0\n2,0,5\n3\n4,1\n", ("more cells than the 2 header columns", 3, "")),
        ("y,z\n1,0,\n2\n3,1\n4,1\n", ("more cells than the 2 header columns", 2, "")),
        ("y,z\n1,0\n2,0,5\n\n3,1\n4,1\n", ("more cells than the 2 header columns", 3, "")),
        ("y,z\n1,0\n2,0\n3,1\n4,1\n" + "9" * (_LIMIT + 1) + ",0\n",
         (f"bad CSV: field larger than field limit ({_LIMIT})", 6, "")),
        ("y,z\n1,0\r2,0\n3,1\n4,x\n", ("not a number: 'x'", 5, "z")),
        ('y,z\n1,0\n"2",0\n3,1\n4,x\n', ("not a number: 'x'", 5, "z")),
    ],
    ids=["header-only", "header-only-crlf", "trailing-blank-line", "wide-row", "balanced-wide-row",
         "balanced-trailing-comma", "balanced-blank-line", "over-field-limit", "lone-cr",
         "quoted"],
)
def test_unplain_files_go_to_the_reference_reader(text, error):
    # each raises from csv.reader as before, and loadtxt, which warns on
    # empty input, emits no warning (pytest runs with warnings as errors)
    bulk, want = _both_paths(text)
    assert bulk is None
    message, row, column = want
    assert message.startswith(error[0]) and (row, column) == error[1:]


@pytest.mark.parametrize(
    "text",
    [
        'y,z,stratum\n1,0,"a"\n2,0,a\n3,1,a\n4,1,a\n',
        "y,z\n1,0\n2,0\n3,1\n4,1\r",
        "y,z\n0." + "1" * (_LIMIT - 2) + ",0\n2,0\n3,1\n4,1\n",
    ],
    ids=["quoted-label", "final-lone-cr", "field-at-the-limit"],
)
def test_valid_unplain_files_load_through_csv_reader(text, tmp_path):
    # csv.reader unquotes "a" to the label a, which a plain split would not,
    # and a field of exactly the limit is valid but its line too long
    bulk, want = _both_paths(text)
    assert bulk is None and not isinstance(want[0], str)
    path = tmp_path / "unplain.csv"
    path.write_bytes(text.encode())
    assert _outcome(lambda: load_csv(str(path))) == _outcome(lambda: _reference_dataset(text))


# -- analyze -------------------------------------------------------------------


def test_analyze_basic(csv12, capsysbinary):
    code, report = run_json(["analyze", csv12, "--reps", "99"], capsysbinary)
    assert code == 0
    assert report["command"] == "analyze"
    assert report["seed"] == 0
    assert report["mode"] == "monte_carlo"
    assert report["replicates"] == 99
    assert report["spec"] == {"adjustment": "n", "studentization": "robust"}
    assert report["design"] == {"kind": "complete", "n": 12, "n1": 6}
    assert 1.0 / 100 <= report["p_value"] <= 1.0
    assert set(report["estimate"]) == {"tau_hat", "se_classic", "se_robust"}
    assert len(report["wald"]) == 2
    hist = report["replicate_histogram"]
    assert sum(hist["counts"]) + hist["nonfinite"] == 99


def test_analyze_exact(csv8, capsysbinary):
    code, report = run_json(["analyze", csv8, "--exact", "--stat", "l"], capsysbinary)
    assert code == 0
    assert report["mode"] == "exact"
    assert report["replicates"] == 70  # C(8,4)
    assert report["mc_se"] == 0.0
    assert report["p_value"] * 70 == pytest.approx(round(report["p_value"] * 70))


def test_analyze_constant_outcome_wald_degenerates(tmp_path, capsysbinary):
    path = tmp_path / "flat.csv"
    path.write_text("y,z\n" + "".join(f"1.0,{z}\n" for z in (1, 1, 1, 0, 0, 0)))
    code, report = run_json(["analyze", str(path), "--exact"], capsysbinary)
    assert code == 0
    assert report["p_value"] == 1.0
    assert report["wald"] is None


@pytest.mark.parametrize("alpha", ["5", "-1"])
def test_analyze_alpha_out_of_range_is_a_json_error(alpha, csv8, capsysbinary):
    code, report = run_json(["analyze", csv8, "--reps", "20", "--alpha", alpha], capsysbinary)
    assert code == 1
    assert report["error"]["type"] == "InvariantViolation"


@pytest.mark.parametrize(
    "argv",
    [
        *(["analyze", "--stat", s] for s in "nrfl"),
        ["analyze", "--design", "rem", "--rem-a", "3"],
        ["permlm"],
    ],
    ids=[*"nrfl", "rem", "permlm"],
)
@pytest.mark.parametrize("column", ["x1", "y"])
def test_analyze_overflowing_covariates_are_json_errors(column, argv, tmp_path, capsysbinary):
    # finite values whose column sum overflows float64
    path = tmp_path / "huge.csv"
    rows = [{"y": f"{0.1 * i - 1:.1f}", "z": i % 2, "x1": f"{0.3 * i:.1f}"} for i in range(20)]
    for i, row in enumerate(rows):
        row[column] = repr(1e308 + i * (0.7e308 / 19))
    path.write_text("y,z,x1\n" + "".join(f"{r['y']},{r['z']},{r['x1']}\n" for r in rows))
    code, report = run_json([argv[0], str(path), *argv[1:]], capsysbinary)
    assert code == 1
    assert report["error"]["type"] == "InvariantViolation"
    assert report["error"]["message"] == f"the sum of {column} overflows float64"


def test_analyze_shifted_covariate_matches_unshifted(csv8, tmp_path, capsysbinary):
    # x1 + 1e6 used to fail the reference fit's rank test
    shifted = tmp_path / "shifted.csv"
    rows = [line.split(",") for line in CSV8.splitlines()[1:]]
    shifted.write_text("y,z,x1\n" + "".join(f"{y},{z},{float(x) + 1e6!r}\n" for y, z, x in rows))
    t_obs = []
    for path in (csv8, str(shifted)):
        code, report = run_json(["analyze", path, "--stat", "f"], capsysbinary)
        assert code == 0
        t_obs.append(report["t_obs"])
    assert abs(t_obs[0] - t_obs[1]) < 1e-8


def test_analyze_ci(csv12, capsysbinary):
    code, report = run_json(
        ["analyze", csv12, "--ci", "--reps", "200", "--stat", "l"], capsysbinary
    )
    assert code == 0
    ci = report["ci"]
    assert ci["alpha"] == 0.05
    assert ci["lower"] <= report["estimate"]["tau_hat"] <= ci["upper"]
    assert len(ci["wald"]) == 2 and ci["grid"]["step"] > 0
    assert ci["lower_at_edge"] is False and ci["upper_at_edge"] is False
    assert "wald" not in report  # the top-level field moves inside ci


def test_analyze_stratified_design(csv12, capsysbinary):
    code, report = run_json(
        ["analyze", csv12, "--design", "stratified", "--reps", "99"], capsysbinary
    )
    assert code == 0
    assert report["design"]["kind"] == "stratified"
    assert sorted(map(tuple, report["design"]["sizes"])) == [(6, 3), (6, 3)]
    assert report["data"]["strata"] == 2


def test_analyze_cluster_design(tmp_path, capsysbinary):
    path = tmp_path / "cl.csv"
    path.write_text(CSV_CLUSTERED)
    code, report = run_json(
        ["analyze", str(path), "--design", "cluster", "--exact"], capsysbinary
    )
    assert code == 0
    assert report["design"] == {"kind": "cluster", "clusters": 4, "treated_clusters": 2}
    assert report["replicates"] == 6  # C(4,2)


def test_analyze_rem_design(csv8, capsysbinary):
    code, report = run_json(
        ["analyze", csv8, "--design", "rem", "--rem-a", "2.0", "--reps", "50"], capsysbinary
    )
    assert code == 0
    assert report["design"]["kind"] == "rem"
    assert report["design"]["threshold"] == 2.0
    assert report["design"]["columns"] == ["x1"]

    code, report = run_json(
        ["analyze", csv8, "--design", "rem", "--rem-a", "2.0", "--rem-cols", "x9"],
        capsysbinary,
    )
    assert code == 1
    assert report["error"]["type"] == "InvariantViolation"
    assert "x9" in report["error"]["message"]


def test_analyze_missing_rem_threshold(csv8, capsysbinary):
    code, report = run_json(["analyze", csv8, "--design", "rem"], capsysbinary)
    assert code == 1
    assert report["error"]["type"] == "InvariantViolation"


def test_cli_determinism_modulo_timestamp(csv12, capsysbinary):
    argv = ["analyze", csv12, "--reps", "150", "--seed", "7", "--ci"]
    _, first = run_cli(argv, capsysbinary)
    _, second = run_cli(argv, capsysbinary)
    stamp = re.compile(rb'"timestamp":"[^"]*"')
    assert stamp.search(first) and stamp.search(second)
    assert stamp.sub(b"", first) == stamp.sub(b"", second)


def test_p_value_serialized_losslessly(csv12, capsysbinary):
    _, out = run_cli(["analyze", csv12, "--reps", "97"], capsysbinary)
    text = re.search(rb'"p_value":([0-9.eE+-]+)', out).group(1).decode()
    value = json.loads(out)["p_value"]
    assert float(text) == value
    assert format(value, ".17g") == text


# -- permlm ---------------------------------------------------------------------


def test_permlm_report(csv12, capsysbinary):
    code, report = run_json(
        ["permlm", csv12, "--scheme", "kennedy", "--reps", "99"], capsysbinary
    )
    assert code == 0
    assert report["command"] == "permlm"
    assert report["spec"] == {"scheme": "kennedy", "studentization": "none"}
    assert 1.0 / 100 <= report["p_value"] <= 1.0


def test_permlm_kennedy_matches_freedman_lane(csv12, capsysbinary):
    _, kennedy = run_json(
        ["permlm", csv12, "--scheme", "kennedy", "--reps", "99", "--seed", "3"], capsysbinary
    )
    _, fl = run_json(
        ["permlm", csv12, "--scheme", "fl", "--reps", "99", "--seed", "3"], capsysbinary
    )
    # same permutations, proportional statistics: identical unstudentized p
    assert kennedy["p_value"] == fl["p_value"]


def test_permlm_rejects_unknown_scheme(csv12):
    with pytest.raises(SystemExit) as err:
        main(["permlm", csv12, "--scheme", "bogus"])
    assert err.value.code == 2


# -- simulate ---------------------------------------------------------------------


def test_simulate_builtin(capsysbinary):
    code, report = run_json(
        ["simulate", "complete-null", "--reps", "5", "--permutations", "19"], capsysbinary
    )
    assert code == 0
    assert report["command"] == "simulate"
    assert report["scenario"]["name"] == "complete-null"
    assert report["scenario"]["reps"] == 5
    assert len(report["rates"]) == 12
    for counts in report["p_histograms"].values():
        assert sum(counts) == 5
    assert "p_values" not in report


def test_simulate_config_file(tmp_path, capsysbinary):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"base": "complete-null", "reps": 4, "permutations": 9}))
    code, report = run_json(["simulate", str(path), "--full-p"], capsysbinary)
    assert code == 0
    assert report["scenario"]["reps"] == 4
    assert len(report["p_values"]) == 4


def test_simulate_bom_config_file(tmp_path, capsysbinary):
    path = tmp_path / "scenario.json"
    config = {"base": "complete-null", "reps": 4, "permutations": 9}
    path.write_bytes(BOM + json.dumps(config).encode())
    code, report = run_json(["simulate", str(path)], capsysbinary)
    assert code == 0
    assert report["scenario"]["reps"] == 4


def test_simulate_bad_json_config(tmp_path, capsysbinary):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, report = run_json(["simulate", str(path)], capsysbinary)
    assert code == 1
    assert report["error"]["type"] == "ParseError"


def test_simulate_invalid_utf8_config(tmp_path, capsysbinary):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"base": "complete-null",\n "name": "café"}'.encode("latin-1"))
    code, report = run_json(["simulate", str(path)], capsysbinary)
    assert code == 1
    assert report["error"]["type"] == "ParseError"
    assert report["error"]["row"] == 2


@pytest.mark.parametrize(
    "fields",
    [
        {"statistics": ["q:robust"]},
        {"statistics": ["n:robust:extra"]},
        {"reps": "abc"},
        {"treated": {"poly": [0.0]}},
        {"treated": {"poly": [], "sd": 1.0}},
        {"design_kind": "stratified", "stratum_cutoffs": [0.5, -0.5, 0.0]},
    ],
)
def test_simulate_malformed_config_is_a_json_error(fields, tmp_path, capsysbinary):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"base": "complete-null", **fields}))
    code, report = run_json(["simulate", str(path)], capsysbinary)
    assert code == 1
    assert report["error"]["type"] == "InvalidConfig"


def test_simulate_unknown_scenario_is_a_file_error(capsysbinary):
    code, report = run_json(["simulate", "no-such-scenario"], capsysbinary)
    assert code == 1
    assert report["error"]["type"] == "FileNotFoundError"


# -- entry point ------------------------------------------------------------------


def test_negative_seed_is_a_usage_error(csv8):
    with pytest.raises(SystemExit) as err:
        main(["analyze", csv8, "--seed", "-1"])
    assert err.value.code == 2


def test_missing_data_file_reports_json_error(capsysbinary):
    code, report = run_json(["analyze", "/nonexistent/data.csv"], capsysbinary)
    assert code == 1
    assert report["error"]["type"] == "FileNotFoundError"


def test_json_bytes_nonfinite_policy():
    out = json_bytes({"a": math.inf, "b": -math.inf, "c": math.nan, "d": 0.1})
    assert out == b'{"a":"inf","b":"-inf","c":"nan","d":0.10000000000000001}\n'
    with pytest.raises(TypeError):
        json_bytes({"bad": object()})


def _run_module(*argv):
    """`python -m randtest *argv` with this source tree first on PYTHONPATH."""
    paths = [str(Path(randtest.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    cmd = [sys.executable, "-m", "randtest", *argv]
    return subprocess.run(cmd, capture_output=True, env=env, timeout=120)


def test_module_entry_point(csv8):
    proc = _run_module("analyze", csv8, "--reps", "20")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and proc.stdout.endswith(b"\n")
    assert json.loads(lines[0])["command"] == "analyze"


def test_module_entry_point_reports_a_missing_file(tmp_path):
    proc = _run_module("analyze", str(tmp_path / "missing.csv"))
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "FileNotFoundError"
