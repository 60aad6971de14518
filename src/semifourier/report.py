"""Report container and deterministic JSON / CSV rendering.

JSON output preserves field order and formats every float with 17
significant digits, so identical runs produce byte-identical documents.
Complex values appear as {"re": ..., "im": ...} objects in JSON and as
<name>_re / <name>_im column pairs in CSV.  Non-finite floats are rendered
as the quoted strings "inf", "-inf", "nan" (unquoted in CSV).

Rows are rendered a run at a time, by one path for both formats.
Consecutive rows with the same keys in the same order form a run, and each
run is rendered by one ``%`` operation: a row template, built once from the
kinds of its columns, repeated once per row and filled from the run's cells
in row-major order.  A column of Python ints takes ``%d``, a column of
Python floats ``%.17g`` and a column of Python complex numbers two
``%.17g`` fields, ``{"re": %.17g, "im": %.17g}`` in JSON.  Any other column,
of strings, bools, None, numpy scalars, nested or mixed values, and in JSON
a float column holding a non-finite value, takes ``%s`` fed the cells of
``_json_value``, ``_format_float`` or ``_csv_cell``.  A ``%`` in a JSON key
is doubled in the template.  Every row keeps its own key order, and the CSV
header is the union of the flattened keys in the order they first appear.
The output is the same as rendering each row cell by cell.
"""

from __future__ import annotations

import enum
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
    """Result of one command: config echo, parameters, rows, pass/fail tally."""

    kind: str
    config: SpectralConfig
    params: dict
    rows: list[dict]
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
    if isinstance(value, enum.Enum):
        return json.dumps(str(value.value))
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
        if isinstance(value, (complex, np.complexfloating)) and not isinstance(value, (float, int)):
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
    if isinstance(value, enum.Enum):
        return str(value.value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
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


def _row_parts(rows: list[dict], fmt: str) -> list[tuple[int, dict]]:
    """Template fields of the rows, one part per run of rows with the same keys in the same order."""
    return [part for _, run in itertools.groupby(rows, key=tuple) for part in _run_parts(list(run), fmt)]


def _run_parts(run: list[dict], fmt: str) -> list[tuple[int, dict]]:
    """(row count, {name: (spec, value columns)}) of a run, names in the rows' key order."""
    columns = [_column(key, [row[key] for row in run], fmt) for key in run[0]]
    if None in columns:  # a CSV column flattens differently row by row
        return [part for row in run for part in _run_parts([row], fmt)]
    named: dict = {}
    for column in columns:
        named.update(column)  # a repeated name keeps its place and takes the last field
    return [(len(run), named)]


def _column(key, values: Sequence, fmt: str) -> list[tuple[str, tuple[str, list]]] | None:
    """(name, (spec, value columns)) fields of one column of a run, its spec chosen once.

    spec is the column's part of the row template and takes one value from
    each value column per row.  JSON gives one field per column; CSV gives
    one per flattened column, <key>_re and <key>_im for complex values.
    None when the cells of a CSV column do not all flatten to the same names.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        return [(key, ("%d", [values]))]
    if kinds == {float}:
        return [(key, _float_field(values, fmt))]
    if kinds == {complex}:
        re = _float_field([c.real for c in values], fmt)
        im = _float_field([c.imag for c in values], fmt)
        if fmt == "json":
            return [(key, (f'{{"re": {re[0]}, "im": {im[0]}}}', re[1] + im[1]))]
        return [(f"{key}_re", re), (f"{key}_im", im)]
    if fmt == "json":
        return [(key, ("%s", [list(map(_json_value, values))]))]
    flat = [_flatten_row({key: value}) for value in values]
    names = list(flat[0])
    if any(list(cell) != names for cell in flat):
        return None
    return [(name, ("%s", [[_csv_cell(cell[name]) for cell in flat]])) for name in names]


def _float_field(values: Sequence[float], fmt: str) -> tuple[str, list]:
    """(spec, value columns) of a float column.

    ``%.17g`` prints nan, inf and -inf as CSV writes them; JSON quotes them,
    so there a column holding one takes the ``_format_float`` cells.
    """
    if fmt == "csv" or all(map(math.isfinite, values)):
        return "%.17g", [values]
    return "%s", [list(map(_format_float, values))]


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    raise ValueError(f"unknown format {fmt!r}")
