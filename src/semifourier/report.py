"""Report container and deterministic JSON / CSV rendering.

JSON output preserves field order and formats every float with 17
significant digits, so identical runs produce byte-identical documents.
Complex values appear as {"re": ..., "im": ...} objects in JSON and as
<name>_re / <name>_im column pairs in CSV.  Non-finite floats are rendered
as the quoted strings "inf", "-inf", "nan" (unquoted in CSV).

Rows are given as a list of dicts or as one table, a dict of equal-length
1-D numpy columns of signed ints, float64 or complex128; a table renders exactly as
the list of its rows would, and a table with no rows as ``rows=[]``.  Both
are rendered by one path for both formats, a part at a time.  A table is
one part.  In a list, consecutive rows with the same keys in the same order
form a run, and each run is one part; CSV flattens each row first
(``_flatten_row``), so there a run is rows with the same flattened names.
Each part is rendered by one ``%`` operation: a row template, built once
from the kinds of its columns, repeated once per row and filled from the
part's cells in row-major order.  An integer column or a column of Python
ints takes ``%d``, a float64 column or a column of Python floats
``%.17g``, and a complex128 column, or in JSON a column of Python complex
numbers, two ``%.17g`` fields, ``{"re": %.17g, "im": %.17g}`` in JSON.
Any other column, of strings, bools, None, numpy scalars, nested or mixed
values, and in JSON a float column holding a non-finite value, takes
``%s`` fed the cells of ``_json_value``, ``_format_float`` or
``_csv_cell``.  A ``%`` in a JSON key is doubled in the template.  Every
row keeps its own key order, and the CSV header is the union of the
flattened keys in the order they first appear.  The output is the same as
rendering each row cell by cell.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .spectral import SpectralConfig

__all__ = ["Report", "render_json", "render_csv", "render"]


@dataclass
class Report:
    """Result of one command: config echo, parameters, rows, pass/fail tally.

    rows is a list of dicts or one table of numpy columns (module docstring).
    """

    kind: str
    config: SpectralConfig
    params: dict
    rows: list[dict] | dict[str, np.ndarray]
    summary: dict = field(default_factory=lambda: {"pass": 0, "fail": 0})


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def _json_value(value) -> str:
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return f'{{"re": {_format_float(c.real)}, "im": {_format_float(c.imag)}}}'
    if isinstance(value, dict):
        body = ", ".join(f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in value.items())
        return f"{{{body}}}"
    if isinstance(value, (list, tuple, np.ndarray)):
        body = ", ".join(_json_value(v) for v in list(value))
        return f"[{body}]"
    raise TypeError(f"cannot serialize {value!r} ({type(value).__name__})")


def render_json(report: Report) -> str:
    head = {
        "kind": report.kind,
        "config": {"a": report.config.a, "b": report.config.b, "k": report.config.k},
        "params": report.params,
    }
    body = ", ".join(f"{json.dumps(key)}: {_json_value(value)}" for key, value in head.items())
    rows = []
    for size, named in _row_parts(report.rows, "json"):
        fields = ", ".join(f"{json.dumps(str(key)).replace('%', '%%')}: {spec}"
                           for key, (spec, _) in named.items())
        rows.append(_fill("{" + fields + "}", ", ", size, [c for _, cs in named.values() for c in cs]))
    return f'{{{body}, "rows": [{"".join(rows)[:-2]}], "summary": {_json_value(report.summary)}}}\n'


def _flatten_row(row: dict) -> dict:
    flat: dict[str, object] = {}
    for key, value in row.items():
        if isinstance(value, (complex, np.complexfloating)):
            c = complex(value)
            flat[f"{key}_re"] = c.real
            flat[f"{key}_im"] = c.imag
        elif isinstance(value, dict) and set(value) == {"re", "im"}:
            flat[f"{key}_re"] = value["re"]
            flat[f"{key}_im"] = value["im"]
        else:
            flat[key] = value
    return flat


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        if any(ch in value for ch in ',"\n\r'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"  # nan, inf and -inf as CSV writes them
    raise TypeError(f"cannot serialize {value!r} in CSV")


def render_csv(report: Report) -> str:
    parts = _row_parts(report.rows, "csv")
    header = list(dict.fromkeys(name for _, named in parts for name in named))
    text = [",".join(header) + "\n"]
    for size, named in parts:
        template = ",".join(named[name][0] if name in named else "" for name in header)
        text.append(_fill(template, "\n", size, [c for name in header if name in named
                                                   for c in named[name][1]]))
    return "".join(text)


def _fill(template: str, sep: str, size: int, columns: list[list]) -> str:
    """size rows of template + sep, filled by one % from the columns read row by row."""
    values = [None] * (size * len(columns))
    for i, column in enumerate(columns):
        values[i::len(columns)] = column
    return (template + sep) * size % tuple(values)


def _row_parts(rows: list[dict] | dict, fmt: str) -> list[tuple[int, dict]]:
    """Template fields of the rows: a table is one part, a list one per run of rows with the same keys.

    CSV groups a list by the flattened names of its rows (``_flatten_row``)
    and renders the flattened cells.
    """
    if isinstance(rows, dict):
        size = _table_size(rows)
        return [_part(size, rows, fmt)] if size else []
    if fmt == "csv":
        rows = map(_flatten_row, rows)
    runs = (list(run) for _, run in itertools.groupby(rows, key=tuple))
    return [_part(len(run), {key: [row[key] for row in run] for key in run[0]}, fmt) for run in runs]


def _table_size(table: dict) -> int:
    """The common length of a table's columns: 1-D arrays of signed ints, float64 or complex128."""
    for key, column in table.items():
        if not isinstance(column, np.ndarray) or column.ndim != 1:
            raise ValueError(f"report table column {key!r} is not a 1-D numpy array")
        if column.dtype.kind != "i" and column.dtype not in (np.float64, np.complex128):
            raise ValueError(f"report table column {key!r} has dtype {column.dtype}; "
                             "expected a signed integer, float64 or complex128")
    sizes = {len(column) for column in table.values()}
    if len(sizes) > 1:
        raise ValueError(f"report table columns differ in length: {sorted(sizes)}")
    return sizes.pop() if sizes else 0


def _part(size: int, columns: dict, fmt: str) -> tuple[int, dict]:
    """(row count, {name: (spec, value columns)}) of columns of size cells, names in key order."""
    named: dict = {}
    for key, values in columns.items():
        named.update(_column(key, values, fmt))  # a repeated name keeps its place and takes the last field
    return size, named


def _column(key, values: Sequence | np.ndarray, fmt: str) -> list[tuple[str, tuple[str, list]]]:
    """(name, (spec, value columns)) fields of one column, its spec chosen once.

    spec is the column's part of the row template and takes one value from
    each value column per row.  JSON gives one field per column; CSV gives
    one per flattened column, <key>_re and <key>_im for a complex table
    column.  A numpy column takes its field from its dtype; a list of exact
    Python ints or floats, or in JSON complex numbers, takes the same field.
    A CSV list arrives flattened, so a complex cell left in it is one
    ``_csv_cell`` rejects.  Any other list takes ``%s`` fed its cells.
    """
    if not isinstance(values, np.ndarray):
        kinds = set(map(type, values))
        if kinds == {int}:
            return [(key, ("%d", [values]))]
        if kinds == {float} or (kinds == {complex} and fmt == "json"):
            values = np.array(values)
        else:
            return [(key, ("%s", [list(map(_json_value if fmt == "json" else _csv_cell, values))]))]
    if values.dtype.kind == "i":
        return [(key, ("%d", [values.tolist()]))]
    if values.dtype.kind == "f":
        return [(key, _float_field(values, fmt))]
    re = _float_field(values.real, fmt)
    im = _float_field(values.imag, fmt)
    if fmt == "json":
        return [(key, (f'{{"re": {re[0]}, "im": {im[0]}}}', re[1] + im[1]))]
    return [(f"{key}_re", re), (f"{key}_im", im)]


def _float_field(values: np.ndarray, fmt: str) -> tuple[str, list]:
    """(spec, value columns) of a float64 column.

    ``%.17g`` prints nan, inf and -inf as CSV writes them; JSON quotes them,
    so there a column holding one takes the ``_format_float`` cells.
    """
    if fmt == "csv" or np.isfinite(values).all():
        return "%.17g", [values.tolist()]
    return "%s", [list(map(_format_float, values.tolist()))]


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    raise ValueError(f"unknown format {fmt!r}")
