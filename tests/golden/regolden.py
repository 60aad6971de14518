#!/usr/bin/env python3
"""Golden CLI reports: the command list, the file for each command, and a rewriter.

Each command in ``COMMANDS`` has one file in this directory holding the
stdout of ``semifourier.cli.main`` on it, byte for byte.  A report over
256 KiB is stored gzipped (``.out.gz``, mtime 0, so the same report gives
the same bytes); the rest are plain ``.out``.  ``tests/test_golden.py``
runs every command and compares.

A change that moves report bytes on purpose rewrites the files with

    python3 tests/golden/regolden.py --why "<reason>"

which prints, for every file that moved, each moved row with its old and
new cells and the largest change in each numeric column.  A change is
measured relative to max(|old|, |new|, the largest |value| in its column,
the largest |value| in its row), so a cell that is zero in exact arithmetic
and moves by rounding is judged against the scale of the values around it;
a verify row also shows its ``observed`` as a fraction of its tolerance.
Never rewrite the files to make a failing test pass without that diff and
a reason, and do not drop commands from the list.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gzip
import io
import json
import math
import re
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from semifourier.cli import main  # noqa: E402

GZIP_ABOVE = 256 * 1024  # bytes of report text

# The reports pinned by sha256 digest before these files existed.
DIGEST_COMMANDS = (
    'spectrum --N 20000 --format json',
    'spectrum --N 20000 --format csv',
    'coeffs --function sawtooth --N 20000 --format json',
    'coeffs --function sawtooth --N 20000 --n 2 --format json',
    'coeffs --function sawtooth --N 20000 --format csv',
    'coeffs --function sawtooth --N 20000 --n 2 --format csv',
    'coeffs --function synthetic:4.2 --N 20000 --format json',
    'coeffs --function synthetic:4.2 --N 20000 --n 2 --format json',
    'coeffs --function synthetic:4.2 --N 20000 --format csv',
    'coeffs --function synthetic:4.2 --N 20000 --n 2 --format csv',
    'norms --function synthetic:3.5 --r 1.2 --N 100000',
    'converge --function synthetic:3.1 --N 20000 --n 1',
    'coeffs --function offset-cosine --N 64',
    'verify --N 8',
    'verify --N 8 --a 7.5 --b 10.3 --k 0.5',
    'verify --N 8 --a -2.5 --b 0.75 --k 2.2',
    'norms --function synthetic:3.5 --N 500',
    'converge --function synthetic:3 --N 100 --format csv',
    'coeffs --function mode:3:sin --N 6 --format csv',
    'verify --N 8 --format csv',
    'converge --function sawtooth --N 64 --n 2',
    'converge --function offset-cosine --N 128 --n 2',
    'converge --function offset-cosine --N 100 --n 1 --a 7.5 --b 10.3 --k 0.5',
    'converge --function sawtooth --N 77 --n 2 --a -2.5 --b 0.75 --k 2.2',
    'norms --function offset-cosine --n 3',
    'coeffs --function sawtooth --N 12 --n 2 --method direct',
    'coeffs --function sawtooth --N 300 --n 2',
    'verify --suite quadrature --suite orthonormality --N 12',
    'coeffs --function sawtooth --N 16 --n 3 --method direct --a 7.5 --b 10.3 --k 0.5',
    'coeffs --function sawtooth --N 16 --n 3 --method direct --a -2.5 --b 0.75 --k 2.2',
    'coeffs --function offset-cosine --N 16 --n 1 --method direct --a 7.5 --b 10.3 --k 0.5',
    'coeffs --function offset-cosine --N 16 --n 1 --method direct --a -2.5 --b 0.75 --k 2.2',
    'norms --function sawtooth --n 2 --N 5000',
    'norms --function synthetic:4 --n 1 --N 3000 --format csv',
    'converge --function synthetic:2.5 --N 4096 --n 2 --format csv',
    'verify --suite parseval --suite bessel --suite error-tail --suite ladder-fixtures'
    ' --N 10 --a 3.3 --b 5.9 --k 0.3',
    'verify --suite orthonormality --suite operator-matrix --suite fundamental-relation'
    ' --suite rescale --suite lower-bound --N 10 --n 4 --a 1000.25 --b 1002.75 --k 0.3',
    'verify --suite orthonormality --suite operator-matrix --N 12 --n 4 --a -2.5'
    ' --b 0.75 --k 2.2 --format csv',
    'coeffs --function offset-cosine --N 24 --n 4 --method direct --a 1000.25'
    ' --b 1002.75 --k 0.3 --format csv',
    'converge --function offset-cosine --N 48 --n 3 --a 1000.25 --b 1002.75 --k 0.3',
    'verify --N 6',
    'verify --N 6 --a 7.5 --b 10.3 --k 0.5',
    'verify --N 6 --a -2.5 --b 0.75 --k 2.2',
    'verify --N 10',
    'verify --N 10 --a 7.5 --b 10.3 --k 0.5',
    'verify --N 10 --a -2.5 --b 0.75 --k 2.2',
    'verify --a 1000.25 --b 1002.75 --k 0.3',
    'verify --a 0 --b 0.5',
)

# A batch of reports checked byte for byte when the ladder sum got one code
# path: the quadrature route on the three verify configurations, and one-off
# edge cases (modes near 2e5, a far interval, CSV of every report kind).
BATCH_COMMANDS = (
    'verify --N 6',
    'verify --N 8',
    'verify --N 10',
    'verify --N 8 --suite orthonormality --suite operator-matrix',
    'converge --function offset-cosine --N 40 --n 3',
    'converge --function sawtooth --N 30',
    'norms --function offset-cosine',
    'norms --function sawtooth --n 1',
    'coeffs --function offset-cosine --N 10 --n 2 --method direct',
    'coeffs --function offset-cosine --N 10 --n 2',
    'verify --N 6 --a 7.5 --b 10.3 --k 0.5',
    'verify --N 8 --a 7.5 --b 10.3 --k 0.5',
    'verify --N 10 --a 7.5 --b 10.3 --k 0.5',
    'verify --N 8 --suite orthonormality --suite operator-matrix --a 7.5 --b 10.3 --k 0.5',
    'converge --function offset-cosine --N 40 --n 3 --a 7.5 --b 10.3 --k 0.5',
    'converge --function sawtooth --N 30 --a 7.5 --b 10.3 --k 0.5',
    'norms --function offset-cosine --a 7.5 --b 10.3 --k 0.5',
    'norms --function sawtooth --n 1 --a 7.5 --b 10.3 --k 0.5',
    'coeffs --function offset-cosine --N 10 --n 2 --method direct --a 7.5 --b 10.3 --k 0.5',
    'coeffs --function offset-cosine --N 10 --n 2 --a 7.5 --b 10.3 --k 0.5',
    'verify --N 6 --a -2.5 --b 0.75 --k 2.2',
    'verify --N 8 --a -2.5 --b 0.75 --k 2.2',
    'verify --N 10 --a -2.5 --b 0.75 --k 2.2',
    'verify --N 8 --suite orthonormality --suite operator-matrix --a -2.5 --b 0.75 --k 2.2',
    'converge --function offset-cosine --N 40 --n 3 --a -2.5 --b 0.75 --k 2.2',
    'converge --function sawtooth --N 30 --a -2.5 --b 0.75 --k 2.2',
    'norms --function offset-cosine --a -2.5 --b 0.75 --k 2.2',
    'norms --function sawtooth --n 1 --a -2.5 --b 0.75 --k 2.2',
    'coeffs --function offset-cosine --N 10 --n 2 --method direct --a -2.5 --b 0.75 --k 2.2',
    'coeffs --function offset-cosine --N 10 --n 2 --a -2.5 --b 0.75 --k 2.2',
    'converge --function sawtooth --N 64 --n 2',
    'converge --function offset-cosine --N 128 --n 2',
    'converge --function offset-cosine --N 100 --n 1 --a 7.5 --b 10.3 --k 0.5',
    'converge --function sawtooth --N 77 --n 2 --a -2.5 --b 0.75 --k 2.2',
    'norms --function offset-cosine --n 3',
    'coeffs --function sawtooth --N 12 --n 2 --method direct',
    'coeffs --function sawtooth --N 300 --n 2',
    'verify --suite quadrature --suite orthonormality --N 12',
    'coeffs --function offset-cosine --N 16 --n 3 --method direct --a 7.5 --b 10.3',
    'coeffs --function offset-cosine --N 256',
    'coeffs --function offset-cosine --N 64 --a -2.5 --b 0.75',
    'converge --function offset-cosine --N 32 --n 1',
    'norms --function sawtooth --n 2 --a 7.5 --b 10.3',
    'coeffs --function sawtooth --n 2 --method direct --N 128',
    'coeffs --function mode:200000:cos --N 2 --n 1 --method direct',
    'coeffs --function mode:3:cos --N 6 --n 2',
    'coeffs --function sawtooth --N 500 --a 1e6 --b 1000003.5 --format csv',
    'coeffs --function synthetic:2.7 --N 3000 --n 3 --a -2.5 --b 0.75 --k 2.2',
    'converge --function sawtooth --N 16 --format csv',
    'norms --function synthetic:3.5 --N 500 --n 2 --format csv',
    'norms --function sawtooth --r 0.7 --N 2000 --format csv',
    'norms --function mode:2:sin --n 1',
    'norms --function mode:2:sin',
    'norms --function offset-cosine --n 2 --format csv',
    'spectrum --N 300 --a 7.5 --b 10.3 --k 0.5 --format csv',
    'verify --suite eigenvalues --suite ladder-fixtures --a -2.5 --b 0.75 --k 2.2',
    'verify --N 12 --format csv',
    'verify --N 3 --suite error-tail',
    'converge --function mode:2:cos --N 5 --n 1',
    'converge --function offset-cosine --N 20 --format csv --a 1e3 --b 1001.5',
    'coeffs --function offset-cosine --N 20 --method rescale --n 3',
    'coeffs --function sawtooth --N 20 --method rescale --n 1 --format csv',
)

CONFIGS = ("", " --a 7.5 --b 10.3 --k 0.5", " --a -2.5 --b 0.75 --k 2.2")

# Twelve commands on the three verify configurations, in JSON and CSV: the
# reports checked byte for byte when the renderer took numpy columns.
COLUMN_COMMANDS = tuple(
    f"{command}{config} --format {fmt}"
    for command in (
        "spectrum --N 20000",
        "spectrum --N 7",
        "coeffs --function sawtooth --N 20000",
        "coeffs --function synthetic:2.7 --N 20000",
        "coeffs --function sawtooth --N 300 --n 2",
        "coeffs --function offset-cosine --N 40",
        "coeffs --function offset-cosine --N 12 --n 2 --method direct",
        "coeffs --function mode:3:cos --N 6 --n 2",
        "converge --function sawtooth --N 64 --n 2",
        "converge --function synthetic:3.5 --N 5000 --n 1",
        "converge --function offset-cosine --N 32",
        "verify --N 8",
    )
    for config in CONFIGS
    for fmt in ("json", "csv")
)

# The expansion error of a handle far past the modes the default rule resolves.
HIGH_MODE_COMMANDS = tuple(f"converge --function offset-cosine --N 512{config}" for config in CONFIGS)

COMMANDS = tuple(dict.fromkeys(DIGEST_COMMANDS + BATCH_COMMANDS + COLUMN_COMMANDS + HIGH_MODE_COMMANDS))


def stem(command: str) -> str:
    """File name of a command's report, without the extension."""
    return re.sub(r"[^A-Za-z0-9.+-]+", "_", command.replace("--", "")).strip("_")


def golden_path(command: str, size: int | None = None) -> Path:
    """The report file of command: the existing one, or for size bytes of report the one to write."""
    plain = HERE / f"{stem(command)}.out"
    if size is None:
        return plain if plain.exists() else plain.with_suffix(".out.gz")
    return plain if size <= GZIP_ABOVE else plain.with_suffix(".out.gz")


def read_golden(path: Path) -> bytes:
    data = path.read_bytes()
    return gzip.decompress(data) if path.suffix == ".gz" else data


def run_command(command: str) -> tuple[int, bytes]:
    """Exit code and stdout of ``semifourier.cli.main`` on command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command))
    return code, out.getvalue().encode("utf-8")


def first_difference(got: bytes, want: bytes, context: int = 80) -> str:
    """Where got first differs from want: the line number and both lines around that byte."""
    size = min(len(got), len(want))
    lo, hi = 0, size  # the common prefix is got[:lo]; bisect on slices, no per-byte loop
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if got[lo:mid] == want[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    line = want.count(b"\n", 0, lo) + 1
    start = max(want.rfind(b"\n", 0, lo) + 1, lo - context)

    def excerpt(data: bytes) -> str:
        end = data.find(b"\n", lo)
        end = len(data) if end < 0 else min(end, lo + context)
        return data[start:end].decode("utf-8", "replace")

    return (f"first difference at line {line}, byte offset {lo}:\n"
            f"  golden: {excerpt(want)!r}\n  got:    {excerpt(got)!r}")


# -- the per-row diff -------------------------------------------------------

def _cells(text: str) -> tuple[dict, list[dict]]:
    """(everything but the rows, the rows as flat dicts) of a JSON or CSV report."""
    if text.startswith("{"):
        report = json.loads(text)
        rows = []
        for row in report.pop("rows"):
            flat = {}
            for key, value in row.items():
                if isinstance(value, dict):
                    flat.update({f"{key}_{part}": v for part, v in value.items()})
                else:
                    flat[key] = value
            rows.append(flat)
        return report, rows
    lines = list(csv.reader(io.StringIO(text)))
    header = lines[0]
    return {}, [{key: _csv_value(cell) for key, cell in zip(header, line)} for line in lines[1:]]


def _csv_value(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


# Mode counts and ladder indices: they name a row, they are not a scale for its values.
INDEX_COLUMNS = ("m", "M", "n", "N")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _scale(values) -> float:
    return max((abs(v) for v in values if _is_number(v) and math.isfinite(v)), default=0.0)


def diff_report(old: str, new: str) -> list[str]:
    """Lines describing how the report new differs from old, row by row."""
    old_rest, old_rows = _cells(old)
    new_rest, new_rows = _cells(new)
    lines = []
    if old_rest != new_rest:
        lines.append(f"  header: {json.dumps(old_rest)} -> {json.dumps(new_rest)}")
    if len(old_rows) != len(new_rows):
        lines.append(f"  row count: {len(old_rows)} -> {len(new_rows)}")
    columns = {key: _scale(row.get(key) for row in old_rows) for row in old_rows for key in row}
    worst = dict.fromkeys(columns, 0.0)
    for index, (was, now) in enumerate(zip(old_rows, new_rows)):
        if was == now:
            continue
        row_scale = _scale(value for key, value in was.items() if key not in INDEX_COLUMNS)
        labels = ", ".join(f"{key}={value}" for key, value in was.items()
                           if (isinstance(value, str) or key in INDEX_COLUMNS) and value == now.get(key))
        lines.append(f"  row {index} ({labels}):")
        for key in dict.fromkeys(list(was) + list(now)):
            before, after = was.get(key), now.get(key)
            if before == after:
                continue
            if _is_number(before) and _is_number(after):
                scale = max(abs(before), abs(after), columns.get(key, 0.0), row_scale)
                change = abs(after - before) / scale if scale else math.inf
                worst[key] = max(worst.get(key, 0.0), change)
                line = f"    {key}: {before!r} -> {after!r} (change {change:.2g}"
                if key == "observed" and _is_number(was.get("tolerance")) and was["tolerance"]:
                    tol = was["tolerance"]
                    line += f"; of tolerance {abs(before) / tol:.2g} -> {abs(after) / tol:.2g}"
                lines.append(line + ")")
            else:
                lines.append(f"    {key}: {before!r} -> {after!r}")
    moved = {key: change for key, change in worst.items() if change}
    if moved:
        lines.append("  largest change per column: "
                     + ", ".join(f"{key} {change:.2g}" for key, change in moved.items()))
    return lines


def regolden(why: str) -> int:
    print(f"regolden: {why}")
    moved = 0
    for command in COMMANDS:
        code, new = run_command(command)
        if code != 0:
            print(f"{stem(command)}: exit code {code} from {command!r}; its file is left as it was")
            continue
        path, target = golden_path(command), golden_path(command, len(new))
        old = read_golden(path) if path.exists() else None
        if old == new:
            continue
        moved += 1
        print(f"{target.name}: {command}")
        if old is None:
            print("  new file")
        else:
            for line in diff_report(old.decode("utf-8"), new.decode("utf-8")):
                print(line)
        if path.exists() and path != target:
            path.unlink()
        target.write_bytes(gzip.compress(new, mtime=0) if target.suffix == ".gz" else new)
    print(f"{moved} of {len(COMMANDS)} reports rewritten")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--why", required=True, help="the reason the reports move, printed with the diff")
    args = parser.parse_args()
    sys.exit(regolden(args.why))
