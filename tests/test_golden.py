"""CLI reports byte for byte against the committed files in tests/golden.

Each command of ``tests/golden/regolden.py`` runs through ``cli.main`` and
its stdout must equal its golden file.  A mismatch names the first
differing line and shows both versions around the first differing byte;
the reports are compared as bytes, never through a text diff, since some
are megabytes on one line.  A change that moves a report on purpose
rewrites the files with ``regolden.py --why`` and lists its diff.
"""

import pytest

from golden.regolden import COMMANDS, GZIP_ABOVE, HERE, first_difference, golden_path, read_golden, run_command, stem


@pytest.mark.parametrize("command", COMMANDS, ids=stem)
def test_report_matches_golden_file(command):
    path = golden_path(command)
    assert path.exists(), f"no golden file for {command!r}; run tests/golden/regolden.py"
    want = read_golden(path)
    code, got = run_command(command)
    assert code == 0
    if got != want:
        pytest.fail(f"{command}: {first_difference(got, want)}", pytrace=False)


def test_files_are_one_per_command_and_compressed_only_when_large():
    stems = [stem(command) for command in COMMANDS]
    assert len({s.lower() for s in stems}) == len(stems)  # distinct on a case-insensitive disk too
    files = sorted(HERE.glob("*.out*"))
    assert sorted(path.name.split(".out")[0] for path in files) == sorted(stems)
    for path in files:
        size = len(read_golden(path))
        assert (path.suffix == ".gz") == (size > GZIP_ABOVE), path.name


def test_first_difference_names_the_line_and_the_byte():
    want = b'{"a": 1}\n{"b": 2.5, "c": 3}\n'
    got = b'{"a": 1}\n{"b": 2.5, "c": 4}\n'
    message = first_difference(got, want)
    assert "line 2, byte offset 25" in message
    assert "'{\"b\": 2.5, \"c\": 3}'" in message and "'{\"b\": 2.5, \"c\": 4}'" in message
    assert "line 3, byte offset 28" in first_difference(want + b"x", want)  # one is a prefix of the other
