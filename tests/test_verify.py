import pytest

from semifourier.verify import SUITES, default_params, run_suites


def test_all_suites_pass(cfg, spec):
    report = run_suites(list(SUITES), cfg, spec, default_params())
    failing = [row for row in report.rows if not row["passed"]]
    assert failing == []
    assert report.summary["fail"] == 0
    assert report.summary["pass"] == len(report.rows)


def test_suite_selection(cfg, spec):
    report = run_suites(["eigenvalues"], cfg, spec, default_params())
    assert {row["suite"] for row in report.rows} == {"eigenvalues"}


def test_unknown_suite_rejected(cfg, spec):
    with pytest.raises(KeyError):
        run_suites(["bogus"], cfg, spec, default_params())


def test_params_merge_with_defaults(cfg, spec):
    # None entries fall back to the default parameter values
    report = run_suites(["eigenvalues"], cfg, spec, {"modes": None, "trunc": None})
    assert report.params["modes"] == default_params()["modes"]


def test_report_rows_have_uniform_schema(cfg, spec):
    report = run_suites(["quadrature", "parseval"], cfg, spec, default_params())
    for row in report.rows:
        assert set(row) == {"suite", "check", "observed", "tolerance", "passed"}


def test_alternate_interval_still_passes(spec):
    from semifourier import SpectralConfig

    cfg = SpectralConfig(-1.0, 1.0, 3.0)
    names = ["eigenvalues", "basis-boundary", "orthonormality", "fundamental-relation",
             "lower-bound", "diagonal-identity", "norm-ladder"]
    report = run_suites(names, cfg, spec, default_params())
    assert report.summary["fail"] == 0


def test_polynomial_exactness_holds_far_from_the_origin(spec):
    # b^(d+1) - a^(d+1) cancels here: it read 5.35e-11 against 1e-12
    from semifourier import SpectralConfig

    cfg = SpectralConfig(1e5, 100000.01, 1.0)
    report = run_suites(["quadrature"], cfg, spec, default_params())
    [row] = [row for row in report.rows if row["check"] == "polynomial-exactness"]
    assert row["passed"] and row["observed"] < 1e-20
