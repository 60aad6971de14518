import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semifourier import SpectralConfig
from semifourier.report import (
    Report,
    _csv_cell,
    _flatten_row,
    _json_value,
    render,
    render_csv,
    render_json,
)


@pytest.fixture
def report(cfg):
    return Report(
        kind="demo",
        config=cfg,
        params={"N": 4, "label": "x"},
        rows=[
            {"m": 1, "value": 0.1 + 0.25j, "ok": True},
            {"m": 2, "value": 1.0 / 3.0 + 0j, "ok": False, "note": "tail"},
        ],
        summary={"pass": 1, "fail": 1},
    )


def test_json_is_valid_and_ordered(report):
    text = render_json(report)
    doc = json.loads(text)
    assert list(doc) == ["kind", "config", "params", "rows", "summary"]
    assert doc["config"]["b"] == pytest.approx(math.pi)
    assert doc["rows"][0]["value"] == {"re": 0.1, "im": 0.25}
    assert doc["rows"][0]["ok"] is True
    assert text.endswith("\n")


def test_json_byte_identical_across_runs(report):
    assert render_json(report) == render_json(report)


def test_json_floats_carry_17_digits(report):
    text = render_json(report)
    # 1/3 must round-trip exactly through the printed representation
    assert "0.33333333333333331" in text


def test_json_nonfinite_as_strings(cfg):
    rep = Report("demo", cfg, {}, [{"x": math.inf, "y": -math.inf, "z": math.nan}])
    doc = json.loads(render_json(rep))
    assert doc["rows"][0] == {"x": "inf", "y": "-inf", "z": "nan"}


def test_csv_flattens_complex_columns(report):
    text = render_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "m,value_re,value_im,ok,note"
    assert lines[1].startswith("1,0.1") and lines[1].endswith("true,")
    assert lines[2].split(",")[-1] == "tail"


def test_csv_quotes_embedded_commas(cfg):
    rep = Report("demo", cfg, {}, [{"msg": 'a,b "c"'}])
    lines = render_csv(rep).strip().split("\n")
    assert lines[1] == '"a,b ""c"""'


def test_render_dispatch(report):
    assert render(report, "json") == render_json(report)
    assert render(report, "csv") == render_csv(report)
    with pytest.raises(ValueError):
        render(report, "yaml")


# --------------------------------------------- column renderer against per-cell
# The references render every cell on its own, as the renderer did before it
# formatted whole columns; the column renderer must give the same bytes.

def _json_per_cell(report):
    doc = {
        "kind": report.kind,
        "config": {"a": report.config.a, "b": report.config.b, "k": report.config.k},
        "params": report.params,
        "rows": report.rows,
        "summary": report.summary,
    }
    return _json_value(doc) + "\n"


def _csv_per_cell(report):
    flat_rows = [_flatten_row(r) for r in report.rows]
    header = []
    for row in flat_rows:
        for key in row:
            if key not in header:
                header.append(key)
    lines = [",".join(header)]
    for row in flat_rows:
        lines.append(",".join(_csv_cell(row.get(key)) for key in header))
    return "\n".join(lines) + "\n"


_floats = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]))
CELLS = {
    "float": _floats,
    "int": st.integers(-(10**20), 10**20),
    "complex": st.builds(complex, _floats, _floats),
    "bool": st.booleans(),
    "none": st.none(),
    "str": st.text(alphabet=' ab,"\n-{}'),
    "numpy": st.one_of(
        st.floats().map(np.float64),
        st.integers(-(2**62), 2**62).map(np.int64),
        st.builds(complex, _floats, _floats).map(np.complex128),
        st.booleans().map(np.bool_),
    ),
    "re-im": st.fixed_dictionaries({"re": _floats, "im": _floats}),
}
ANY_CELL = st.one_of(*CELLS.values())
# "a" and "a_re" collide once complex "a" is flattened in CSV; braces and
# quotes in keys must survive the JSON row templates
KEYS = ["m", "a", "a_re", "value", "{k}", 'q"']


@st.composite
def reports(draw, ragged: bool):
    keys = draw(st.lists(st.sampled_from(KEYS), max_size=len(KEYS), unique=True))
    cells = {key: draw(st.sampled_from([*CELLS.values(), ANY_CELL])) for key in keys}
    if ragged:  # a few key orders and subsets, so runs of equal keys still occur
        shapes = draw(st.lists(st.permutations(keys).flatmap(
            lambda order: st.integers(0, len(order)).map(lambda n: order[:n])), min_size=1, max_size=3))
    else:
        shapes = [keys]
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(shapes))
        rows.append({key: draw(cells[key]) for key in shape})
    cfg = SpectralConfig(0.0, math.pi, 1.0)
    return Report("demo", cfg, {"N": len(rows)}, rows)


def _rows_report(*rows):
    return Report("demo", SpectralConfig(0.0, math.pi, 1.0), {"N": len(rows)}, list(rows))


@settings(max_examples=300, deadline=None)
@given(report=st.one_of(reports(ragged=False), reports(ragged=True)))
# one key whose CSV names change from row to row: float, then complex, then float
@example(report=_rows_report({"m": 1, "a": 0.5}, {"m": 2, "a": 1.5 - 2j}, {"m": 3, "a": -0.0}))
# one mixed column of None and the three non-finite floats
@example(report=_rows_report(*({"m": m, "a": x} for m, x in enumerate([None, math.nan, math.inf, -math.inf, 1.0]))))
def test_column_renderer_equals_per_cell_rendering(report):
    assert render_json(report) == _json_per_cell(report)
    assert render_csv(report) == _csv_per_cell(report)


def _mismatch(text, reference):
    """None when the texts are equal, else both around their first difference.

    A short message in place of pytest's diff, which takes minutes on
    megabyte-long strings.
    """
    if text == reference:
        return None
    i = next((i for i, (x, y) in enumerate(zip(text, reference)) if x != y), min(map(len, (text, reference))))
    return text[max(i - 40, 0):i + 40], reference[max(i - 40, 0):i + 40]


def test_column_renderer_on_large_typed_columns(cfg):
    rng = np.random.default_rng(5)
    values = (rng.standard_normal(3000) * 10.0 ** rng.integers(-300, 300, 3000)).tolist()
    values[::125] = [math.inf, -math.inf, math.nan, -0.0] * 6
    rows = [{"m": m, "eigenvalue": x, "a": complex(x, -x)} for m, x in enumerate(values, 1)]
    report = Report("demo", cfg, {"N": len(rows)}, rows)
    assert _mismatch(render_json(report), _json_per_cell(report)) is None
    assert _mismatch(render_csv(report), _csv_per_cell(report)) is None


# ------------------------------------------- determinism and parse-back
# Any report renders to the same bytes every time, its JSON reads back to
# the values it was built from, and its CSV holds one record per row.

PLAIN_CELLS = st.one_of(
    _floats,
    st.integers(-(10**20), 10**20),
    st.builds(complex, _floats, _floats),
    st.text(),
    st.booleans(),
    st.none(),
)


@st.composite
def plain_reports(draw):
    rows = draw(st.lists(st.dictionaries(st.sampled_from(["x", "y", "z", "w"]), PLAIN_CELLS),
                         max_size=12))
    return Report("demo", SpectralConfig(0.0, math.pi, 1.0), {"N": len(rows)}, rows)


def _read_back(cell, value) -> bool:
    """Whether a parsed JSON cell carries the value it was rendered from."""
    if isinstance(value, complex):
        return list(cell) == ["re", "im"] and _read_back(cell["re"], value.real) and _read_back(
            cell["im"], value.imag)
    if isinstance(value, float):
        if math.isfinite(value):
            return not isinstance(cell, (bool, str)) and float(cell) == value
        return cell == ("nan" if math.isnan(value) else "inf" if value > 0 else "-inf")
    return type(cell) is type(value) and cell == value


@settings(max_examples=300, deadline=None)
@given(report=plain_reports())
def test_render_deterministic_and_parses_back(report):
    text = render_json(report)
    assert render_json(report) == text
    assert render_csv(report) == render_csv(report)
    rows = json.loads(text)["rows"]
    assert [list(row) for row in rows] == [list(row) for row in report.rows]
    for parsed, row in zip(rows, report.rows):
        assert all(_read_back(parsed[key], value) for key, value in row.items())
    records = list(csv.reader(io.StringIO(render_csv(report), newline="")))
    assert len(records) == 1 + len(report.rows)


# ------------------------------------------------ one template per run
# Each run of rows is rendered by one % operation, so a % in a key or in a
# cell must come out as written, and a column's one non-finite cell, wherever
# it sits, must still be written as the per-cell renderer writes it.

def _with_percent_signs(report):
    def cell(value):
        return value.replace(",", "%s%%,") if isinstance(value, str) else value
    rows = [{f"{key}%d%%(x)s": cell(value) for key, value in row.items()} for row in report.rows]
    return Report(report.kind, report.config, report.params, rows)


@settings(max_examples=200, deadline=None)
@given(report=st.one_of(reports(ragged=False), reports(ragged=True)).map(_with_percent_signs))
def test_template_renderer_keeps_percent_signs(report):
    assert render_json(report) == _json_per_cell(report)
    assert render_csv(report) == _csv_per_cell(report)


def test_percent_in_key_and_string_cell(cfg):
    rows = [{"50%": 0.5, "%d": 3, "note": "100% done, %s"}, {"50%": 1.5, "%d": 4, "note": "%(m)s %%"}]
    report = Report("demo", cfg, {"N": 2}, rows)
    assert render_json(report) == _json_per_cell(report)
    assert render_csv(report) == _csv_per_cell(report)
    assert json.loads(render_json(report))["rows"] == rows
    assert render_csv(report).split("\n")[1] == '0.5,3,"100% done, %s"'


@pytest.mark.parametrize("last", [math.nan, math.inf, -math.inf])
def test_nonfinite_value_in_the_last_row_only(cfg, last):
    values = [0.1 * m for m in range(1, 6)] + [last]
    rows = [{"m": m, "x": x, "z": complex(1.0, x)} for m, x in enumerate(values, 1)]
    report = Report("demo", cfg, {"N": len(rows)}, rows)
    assert render_json(report) == _json_per_cell(report)
    assert render_csv(report) == _csv_per_cell(report)
    name = _csv_cell(last)  # nan, inf or -inf
    assert json.loads(render_json(report))["rows"][-1] == {"m": 6, "x": name, "z": {"re": 1.0, "im": name}}
    assert render_csv(report).split("\n")[-2] == f"6,{name},1,{name}"


def test_large_spectrum_shaped_report(cfg):
    from semifourier import eigenvalues

    lam = eigenvalues(cfg, 100_000).tolist()
    report = Report("spectrum", cfg, {"modes": len(lam)},
                    [{"m": m, "eigenvalue": value} for m, value in enumerate(lam, start=1)])
    assert _mismatch(render_json(report), _json_per_cell(report)) is None
    assert _mismatch(render_csv(report), _csv_per_cell(report)) is None


# ------------------------------------------------------ tables of columns
# A table, a dict of equal-length numpy columns, renders exactly as the list
# of its rows, with Python cells (.tolist()) or numpy scalar cells alike.

_table_floats = st.one_of(
    st.floats(allow_subnormal=True),
    st.floats(min_value=-1e-307, max_value=1e-307, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324]),
)
_TABLE_COLUMNS = {
    "int64": st.integers(-(2**63), 2**63 - 1),
    "float64": _table_floats,
    "complex128": st.builds(complex, _table_floats, _table_floats),
}


@st.composite
def tables(draw):
    keys = draw(st.lists(st.sampled_from(KEYS + ["50%", "%d"]), min_size=1, max_size=4, unique=True))
    size = draw(st.integers(1, 12))
    table = {}
    for key in keys:
        dtype = draw(st.sampled_from(sorted(_TABLE_COLUMNS)))
        cells = draw(st.lists(_TABLE_COLUMNS[dtype], min_size=size, max_size=size))
        table[key] = np.array(cells, dtype=dtype)
    return table


def _table_rows(table, cells):
    return [dict(zip(table, values)) for values in zip(*(cells(column) for column in table.values()))]


@settings(max_examples=300, deadline=None)
@given(table=tables())
def test_table_renders_as_its_rows(table):
    cfg = SpectralConfig(0.0, math.pi, 1.0)
    report = Report("demo", cfg, {"N": 1}, table)
    for cells in (np.ndarray.tolist, list):  # Python scalars, numpy scalars
        rows = Report("demo", cfg, {"N": 1}, _table_rows(table, cells))
        assert render_json(report) == render_json(rows) == _json_per_cell(rows)
        assert render_csv(report) == render_csv(rows) == _csv_per_cell(rows)


def test_cli_shaped_table(cfg):
    from semifourier import eigenvalues

    lam = eigenvalues(cfg, 2000)
    coeffs = lam * (1 - 2j) ** -1
    coeffs[::7] = complex(-0.0, math.inf)
    table = {"m": np.arange(1, lam.size + 1), "eigenvalue": lam, "a": coeffs}
    as_table = Report("demo", cfg, {}, table)
    as_rows = Report("demo", cfg, {}, _table_rows(table, np.ndarray.tolist))
    for fmt in ("json", "csv"):
        assert _mismatch(render(as_table, fmt), render(as_rows, fmt)) is None


def test_narrow_integer_column_renders_as_int64(cfg):
    m = np.array([-(2**31), -1, 0, 7, 2**31 - 1])
    k = np.array([-128, -1, 0, 5, 127])
    narrow = Report("demo", cfg, {}, {"m": m.astype(np.int32), "k": k.astype(np.int8)})
    wide = Report("demo", cfg, {}, {"m": m, "k": k})
    assert render_json(narrow) == render_json(wide)
    assert render_csv(narrow) == render_csv(wide)


@pytest.mark.parametrize("table", [
    {"m": np.arange(0), "x": np.zeros(0), "z": np.zeros(0, dtype=complex)},
    {},
], ids=["zero-length", "no-columns"])
def test_table_without_rows_renders_as_no_rows(cfg, table):
    assert render_json(Report("demo", cfg, {}, table)) == render_json(Report("demo", cfg, {}, []))
    assert render_csv(Report("demo", cfg, {}, table)) == render_csv(Report("demo", cfg, {}, [])) == "\n"


@pytest.mark.parametrize("table, message", [
    ({"m": np.arange(3), "x": np.zeros(2)}, "differ in length"),
    ({"m": np.arange(0), "x": np.zeros(1)}, "differ in length"),
    ({"x": np.zeros((2, 2))}, "not a 1-D numpy array"),
    ({"x": np.float64(1.0)}, "not a 1-D numpy array"),
    ({"x": np.array(1.0)}, "not a 1-D numpy array"),
    ({"x": [1.0, 2.0]}, "not a 1-D numpy array"),
    ({"x": np.zeros(2, dtype=np.float32)}, "dtype float32"),
    ({"x": np.zeros(2, dtype=np.uint64)}, "dtype uint64"),
    ({"x": np.zeros(2, dtype=np.complex64)}, "dtype complex64"),
    ({"x": np.zeros(2, dtype=bool)}, "dtype bool"),
    ({"x": np.array(["a", "b"])}, "dtype <U1"),
    ({"x": np.array([1.0, "b"], dtype=object)}, "dtype object"),
    ({"x": np.zeros(0, dtype=np.float32)}, "dtype float32"),
], ids=["lengths", "empty-and-one", "2-d", "numpy-scalar", "0-d", "list", "float32", "uint64",
        "complex64", "bool", "str", "object", "empty-float32"])
def test_malformed_table_is_rejected(cfg, table, message):
    report = Report("demo", cfg, {}, table)
    for fmt in ("json", "csv"):
        with pytest.raises(ValueError, match=message):
            render(report, fmt)
