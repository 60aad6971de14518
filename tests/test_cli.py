import json
import math
import shlex
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semifourier import SpectralConfig, eigenvalue
from semifourier.cli import build_parser, main


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_spectrum_frozen_eigenvalues(capsys):
    code, doc = run_json(capsys, "spectrum", "--N", "3")
    assert code == 0
    assert doc["kind"] == "spectrum"
    assert [row["eigenvalue"] for row in doc["rows"]] == [2.0, 10.0, 26.0]


def test_spectrum_respects_interval(capsys):
    code, doc = run_json(capsys, "spectrum", "--a", "0", "--b", str(2 * math.pi),
                         "--k", "0.5", "--N", "1")
    assert code == 0
    assert doc["rows"][0]["eigenvalue"] == pytest.approx(0.75, rel=1e-15)


def test_coeffs_complex_schema(capsys):
    code, doc = run_json(capsys, "coeffs", "--function", "sawtooth", "--N", "2")
    assert code == 0
    row = doc["rows"][0]
    assert set(row) == {"m", "a", "b"}
    assert row["a"]["re"] == pytest.approx(-2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)
    assert row["a"]["im"] == 0.0


def test_coeffs_ladder_rescale(capsys):
    code, doc = run_json(capsys, "coeffs", "--function", "mode:1:cos",
                         "--N", "1", "--n", "2")
    assert code == 0
    # lambda_1 = 2 at n = 2 scales the unit coefficient to 2
    assert doc["rows"][0]["a"]["re"] == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("method", ["direct", "rescale"])
def test_coeffs_method_without_n_exit_code(method, capsys):
    # the route applies to ladder coefficients only; without --n it would be ignored
    assert main(["coeffs", "--function", "sawtooth", "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--method" in captured.err and "--n" in captured.err


def test_coeffs_method_defaults_to_rescale_with_n(capsys):
    code, doc = run_json(capsys, "coeffs", "--function", "mode:1:cos", "--N", "1", "--n", "2")
    assert code == 0
    assert doc["params"]["method"] == "rescale"


def test_norms_two_routes(capsys):
    code, doc = run_json(capsys, "norms", "--function", "sawtooth",
                         "--N", "400", "--n", "1")
    assert code == 0
    methods = {row["method"]: row["value"] for row in doc["rows"]}
    expected = math.sqrt(math.pi + math.pi ** 3 / 12.0)
    assert methods["definition-quadrature"] == pytest.approx(expected, rel=1e-10)
    assert methods["coefficient-series"] == pytest.approx(expected, rel=1e-3)


def test_norms_rejects_n_and_r_together(capsys):
    code = main(["norms", "--function", "sawtooth", "--n", "1", "--r", "1.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_converge_errors_decrease(capsys):
    code, doc = run_json(capsys, "converge", "--function", "sawtooth", "--N", "16")
    assert code == 0
    errs = [row["l2_error"] for row in doc["rows"]]
    assert all(hi > lo for hi, lo in zip(errs, errs[1:]))


def test_unknown_function_exit_code(capsys):
    code = main(["coeffs", "--function", "wedge"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown function" in captured.err


def test_verify_single_suite(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "eigenvalues")
    assert code == 0
    assert doc["summary"]["fail"] == 0
    assert {row["suite"] for row in doc["rows"]} == {"eigenvalues"}


def test_verify_unknown_suite(capsys):
    code = main(["verify", "--suite", "nope"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_verify_failing_checks_exit_code(capsys):
    # a two-point rule cannot certify orthonormality; the report must say so
    code, doc = run_json(capsys, "verify", "--suite", "orthonormality",
                         "--quad-panels", "2", "--quad-nodes", "2")
    assert code == 3
    assert doc["summary"]["fail"] > 0


def test_failing_verify_writes_its_report_to_output(tmp_path, capsys):
    argv = ["verify", "--suite", "orthonormality", "--quad-panels", "2", "--quad-nodes", "2"]
    target = tmp_path / "report.json"
    assert main([*argv, "--output", str(target)]) == 3
    assert capsys.readouterr().out == ""
    assert main(argv) == 3
    assert target.read_text() == capsys.readouterr().out
    assert json.loads(target.read_text())["summary"]["fail"] > 0


def test_csv_format(capsys):
    code = main(["spectrum", "--N", "2", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,eigenvalue"
    assert lines[1] == "1,2"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["spectrum", "--N", "2", "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["kind"] == "spectrum"


def test_output_deterministic(tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    main(["verify", "--suite", "eigenvalues", "--output", str(first)])
    main(["verify", "--suite", "eigenvalues", "--output", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_invalid_interval_exit_code(capsys):
    code = main(["spectrum", "--a", "2", "--b", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


@pytest.mark.parametrize("trunc", ["0", "-2"])
def test_spectrum_rejects_non_positive_modes(trunc, capsys):
    assert main(["spectrum", "--N", trunc]) == 2
    assert "--N must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--N", "0"],
    ["verify", "--N", "0", "--suite", "quadrature"],
    ["verify", "--N", "-1"],
])
def test_verify_rejects_non_positive_modes(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--N must be a positive integer" in captured.err


@pytest.mark.parametrize("flag", ["--quad-panels", "--quad-nodes"])
def test_spectrum_rejects_quadrature_flags(flag, capsys):
    # spectrum integrates nothing, so a quadrature layout would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", flag, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    for command in (["coeffs", "--function", "sawtooth"], ["norms", "--function", "sawtooth"],
                    ["converge", "--function", "sawtooth"], ["verify"]):
        assert build_parser().parse_args([*command, flag, "3"]) is not None


def test_tol_option_is_gone(capsys):
    # the rule is fixed; no option claims a tolerance that nothing reads
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "eigenvalues", "--tol", "1e-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err


@pytest.mark.parametrize("command", [["spectrum"], ["coeffs", "--function", "sawtooth"],
                                     ["norms", "--function", "sawtooth"],
                                     ["converge", "--function", "sawtooth"], ["verify"]])
def test_modes_spelling_is_gone(command, capsys):
    # --N is the one spelling of the truncation order
    with pytest.raises(SystemExit) as exc:
        main([*command, "--modes", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["mode:0:cos", "mode:-2:sin"])
def test_coeffs_rejects_mode_index_below_one(name, capsys):
    assert main(["coeffs", "--function", name, "--N", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mode index must be >= 1" in captured.err


@pytest.mark.parametrize("argv", [
    ["norms", "--function", "synthetic:3.5", "--n", "-1"],
    ["norms", "--function", "synthetic:3.5", "--n", "0"],
    ["norms", "--function", "sawtooth", "--n", "-1"],
    ["converge", "--function", "synthetic:3", "--N", "8", "--n", "-2"],
    ["converge", "--function", "synthetic:3", "--N", "8", "--n", "0"],
    ["converge", "--function", "sawtooth", "--N", "8", "--n", "0"],
])
def test_invalid_ladder_index_exit_code(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ladder index must be an integer >= 1" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "orthonormality", "--n", "0"],
    ["verify", "--suite", "operator-matrix", "--n", "-3"],
    ["verify", "--n", "0"],
])
def test_verify_rejects_ladder_index_below_one(argv, capsys):
    # checked before any suite runs, so no suite can skip its ladder rows
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ladder index must be an integer >= 1" in captured.err


def test_norms_without_n_is_the_l2_norm(capsys):
    code, doc = run_json(capsys, "norms", "--function", "synthetic:3.5", "--N", "50")
    assert code == 0
    assert doc["params"]["n"] == 0
    (row,) = doc["rows"]
    cfg = SpectralConfig(0.0, math.pi, 1.0)
    expected = math.sqrt(sum(eigenvalue(cfg, m) ** -3.5 for m in range(1, 51)))
    assert row == {"method": "coefficient-series", "n": 0, "N": 50,
                   "value": pytest.approx(expected, rel=1e-14)}


def _readme_cli_commands() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("semifourier ")]


def test_readme_cli_block_found():
    assert len(_readme_cli_commands()) >= 8


@pytest.mark.parametrize("command", _readme_cli_commands())
def test_readme_cli_block_runs(command, capsys):
    assert main(shlex.split(command)[1:]) == 0, capsys.readouterr().err


@given(x=st.floats(allow_nan=False, allow_infinity=False), flag=st.sampled_from(["--a", "--b", "--k"]))
def test_numeric_flags_read_back_any_finite_float(x, flag):
    # argparse before Python 3.13 took -1e5 and -7.8e-05 for flags
    args = build_parser().parse_args(["spectrum", flag, repr(x)])
    assert math.copysign(1.0, getattr(args, flag[2:])) == math.copysign(1.0, x)
    assert getattr(args, flag[2:]) == x


def test_negative_exponent_endpoint_runs(capsys):
    code, doc = run_json(capsys, "spectrum", "--a", "-7.814718497822781e-05", "--b", "2", "--N", "1")
    assert code == 0
    assert doc["config"]["a"] == -7.814718497822781e-05


def test_reused_parser_matches_a_fresh_parse(capsys):
    from semifourier import cli

    runs = [["verify", "--suite", "eigenvalues"], ["spectrum", "--N", "5"], ["verify", "--suite", "eigenvalues"]]
    for argv in runs:
        assert vars(cli._parser().parse_args(argv)) == vars(build_parser().parse_args(argv))
        code = main(argv)
        reused = capsys.readouterr().out
        fresh_code = cli._execute(build_parser().parse_args(argv))
        assert (code, reused) == (fresh_code, capsys.readouterr().out)
    assert cli._parser().parse_args(runs[0]).suite == ["eigenvalues"]  # append does not pile up
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()


def test_unwritable_output_path_exit_code(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code = main(["spectrum", "--N", "3", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write report to {target}: No such file or directory\n"
    assert main(["spectrum", "--N", "3", "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write report to {tmp_path}: Is a directory\n"
