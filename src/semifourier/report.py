"""Report container and deterministic JSON / CSV rendering.

JSON output preserves field order and formats every float with 17
significant digits, so identical runs produce byte-identical documents.
Complex values appear as {"re": ..., "im": ...} objects in JSON and as
<name>_re / <name>_im column pairs in CSV.  Non-finite floats are rendered
as the quoted strings "inf", "-inf", "nan" (unquoted in CSV).

Rows are formatted a column at a time, by one path for both formats.
Consecutive rows with the same keys in the same order form a run, and each
column of a run gets its formatter chosen once, from the types it holds:
a column of Python floats, ints or complex numbers is formatted in bulk
with ``f"{x:.17g}"`` (non-finite cells patched afterwards); any other
column, of strings, bools, None, numpy scalars, nested or mixed values,
goes through ``_json_value`` or ``_csv_cell`` cell by cell.  Every row keeps
its own key order, and the CSV header is the union of the flattened keys in
the order they first appear.  The output is the same as rendering each row
cell by cell.
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
    rows: list[str] = []
    for size, named in _row_parts(report.rows, "json"):
        keys = [json.dumps(str(key)).replace("{", "{{").replace("}", "}}") for key in named]
        template = "{{" + ", ".join(f"{key}: {{}}" for key in keys) + "}}"
        rows += map(template.format, *named.values()) if named else ["{}"] * size
    return f'{{{body}, "rows": [{", ".join(rows)}], "summary": {_json_value(report.summary)}}}\n'


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
    lines = [",".join(header)]
    for size, named in parts:
        blank = [""] * size
        columns = [named.get(name, blank) for name in header]
        lines += map(",".join, zip(*columns)) if columns else [""] * size
    return "\n".join(lines) + "\n"


def _row_parts(rows: list[dict], fmt: str) -> list[tuple[int, dict]]:
    """Formatted parts of the rows, one per run of rows with the same keys in the same order."""
    return [part for _, run in itertools.groupby(rows, key=tuple) for part in _run_parts(list(run), fmt)]


def _run_parts(run: list[dict], fmt: str) -> list[tuple[int, dict]]:
    """(row count, {name: cells}) of a run, names in the rows' key order."""
    columns = [_column(key, [row[key] for row in run], fmt) for key in run[0]]
    if None in columns:  # a CSV column flattens differently row by row
        return [part for row in run for part in _run_parts([row], fmt)]
    named: dict = {}
    for column in columns:
        named.update(column)  # a repeated name keeps its place and takes the last cells
    return [(len(run), named)]


def _column(key, values: Sequence, fmt: str) -> list[tuple[str, list[str]]] | None:
    """(name, cells) parts of one column of a run, its formatter chosen once.

    JSON gives one part whose cells are complete values; CSV gives one part
    per flattened column, <key>_re and <key>_im for complex values.  None
    when the cells of a CSV column do not all flatten to the same names.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        return [(key, _float_cells(values, fmt))]
    if kinds == {int}:
        return [(key, list(map(str, values)))]
    if kinds == {complex}:
        re = _float_cells([c.real for c in values], fmt)
        im = _float_cells([c.imag for c in values], fmt)
        if fmt == "json":
            return [(key, [f'{{"re": {r}, "im": {i}}}' for r, i in zip(re, im)])]
        return [(f"{key}_re", re), (f"{key}_im", im)]
    if fmt == "json":
        return [(key, list(map(_json_value, values)))]
    flat = [_flatten_row({key: value}) for value in values]
    names = list(flat[0])
    if any(list(cell) != names for cell in flat):
        return None
    return [(name, [_csv_cell(cell[name]) for cell in flat]) for name in names]


def _float_cells(values: Sequence[float], fmt: str) -> list[str]:
    cells = list(map(format, values, itertools.repeat(".17g")))  # f"{x:.17g}"
    if not all(map(math.isfinite, values)):
        patch = _format_float if fmt == "json" else _csv_cell
        for i, x in enumerate(values):
            if not math.isfinite(x):
                cells[i] = patch(x)
    return cells


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    raise ValueError(f"unknown format {fmt!r}")
