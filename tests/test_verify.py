import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semifourier.verify import SUITES, default_params, run_suites


def test_all_suites_pass(cfg, spec):
    report = run_suites(list(SUITES), cfg, spec, default_params())
    failing = [row for row in report.rows if not row["passed"]]
    assert failing == []
    assert report.summary["fail"] == 0
    assert report.summary["pass"] == len(report.rows)


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_selection(name, cfg, spec):
    # every row of a suite carries the name it registered under
    report = run_suites([name], cfg, spec, default_params())
    assert {row["suite"] for row in report.rows} == {name}


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
        assert list(row) == ["suite", "check", "observed", "tolerance", "passed"]


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


def _doubling_gain(a, b, k):
    from semifourier import DEFAULT_QUADRATURE, SpectralConfig

    report = run_suites(["quadrature"], SpectralConfig(a, b, k), DEFAULT_QUADRATURE, default_params())
    [row] = [row for row in report.rows if row["check"] == "panel-doubling-gain"]
    return row


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(sign=st.sampled_from([-1.0, 1.0]), magnitude=_log_uniform(1e-3, 1e6),
       length=_log_uniform(1e-3, 1e2), k=st.floats(0.1, 10.0))
# short far intervals on which the oscillatory probe read 0.46, 6.35, 0.32 and NaN
@example(sign=1.0, magnitude=400.0, length=0.001, k=1.0)
@example(sign=1.0, magnitude=100.0, length=0.001, k=1.0)
@example(sign=1.0, magnitude=699.0, length=0.001, k=1.0)
@example(sign=1.0, magnitude=1e5, length=0.00999999999476131, k=1.0)
def test_panel_doubling_gain_holds_on_every_admissible_interval(sign, magnitude, length, k):
    a = sign * magnitude
    row = _doubling_gain(a, a + length, k)
    assert row["passed"], row


@settings(max_examples=100, deadline=None)
@given(a=st.floats(-3.0, 10.0), length=st.floats(2.0, 3.5), k=st.floats(0.1, 10.0))
# the selfcheck config of seed 14012, on which the oscillatory probe read 9.66
@example(a=-2.752160368934597, length=2.3050160752202036, k=0.26864346046339227)
def test_panel_doubling_gain_is_two_to_the_sixth_on_the_benchmark_range(a, length, k):
    # u^6 has a constant sixth derivative, so the 3-node rule's error falls by exactly 2^6
    row = _doubling_gain(a, a + length, k)
    assert abs(row["observed"] - 64.0) <= 1e-4, row


@pytest.mark.parametrize("argv", [
    # set-up operations of selfcheck seeds 21016 and 2205; the oscillatory probe read 9.44 and 4.91
    ["verify", "--a", "-0.32722579445288513", "--b", "2.2576078385392067",
     "--k", "2.7883893001338502", "--N", "6"],
    ["verify", "--a", "7.305328834242488", "--b", "10.339285470188608",
     "--k", "2.8997900844000446", "--N", "6"],
])
def test_selfcheck_setup_commands_pass(argv):
    from semifourier import cli

    assert cli.main(argv) == 0


@pytest.mark.parametrize("a, b, k", [(0.0, math.pi, 1.0), (7.5, 10.3, 0.5), (-2.5, 0.75, 2.2)])
def test_panel_doubling_gain_catches_a_moved_node(a, b, k, monkeypatch):
    # a 3-node rule with one node off by 1e-3 is no longer exact for low degrees,
    # so its error falls by far less than 2^6 per doubling
    from semifourier import quadrature

    real = quadrature._reference_rule

    def moved(order):
        x, w = real(order)
        if order == 3:
            x = x.copy()
            x[0] += 1e-3
        return x, w

    real.cache_clear()
    quadrature._composite_rule.cache_clear()
    monkeypatch.setattr(quadrature, "_reference_rule", moved)
    try:
        row = _doubling_gain(a, b, k)
    finally:
        real.cache_clear()
        quadrature._composite_rule.cache_clear()
    assert not row["passed"], row
