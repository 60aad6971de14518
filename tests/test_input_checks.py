"""Input checks of the public API, one case per rejected or edge input.

Each case names the guard it reaches; the rest of the suite exercises the
accepted inputs.
"""

import math

import numpy as np
import pytest

from semifourier import (
    CoeffVector, DerivativeUnavailableError, FunctionHandle, InvalidConfigError, InvalidModeError,
    Mode, PointOutOfDomainError, SemiFourierError, SpectralConfig, TrigPolynomial, basis_eval,
    basis_polynomial, classical_coeffs, ell_power_coefficients, integrate, membership_classify,
)
from semifourier.cli import main
from semifourier.report import Report, render_csv, render_json


def _poly(cfg):
    return basis_polynomial(cfg, Mode.cos(1))


def _set_config(cfg):
    _poly(cfg).config = cfg


REJECTED = [
    pytest.param(lambda cfg: CoeffVector(cfg, [], []), InvalidConfigError, id="empty-coeff-vector"),
    pytest.param(lambda cfg: classical_coeffs(_poly(SpectralConfig(0.0, 1.0, 1.0)), 4, cfg),
                 InvalidConfigError, id="classical-coeffs-foreign-config"),
    pytest.param(lambda cfg: membership_classify(CoeffVector(cfg, np.ones(32), np.zeros(32), ladder=1), 2),
                 SemiFourierError, id="classify-ladder-coeffs"),
    pytest.param(lambda cfg: Mode(1, "cos"), InvalidModeError, id="mode-branch-not-branch"),
    pytest.param(lambda cfg: basis_eval(cfg, (1, "cos"), 0.5), InvalidModeError, id="basis-eval-not-mode"),
    pytest.param(lambda cfg: TrigPolynomial((0.0, math.pi, 1.0)), InvalidConfigError,
                 id="trig-config-not-spectral-config"),
    pytest.param(lambda cfg: TrigPolynomial(cfg, {(1, "cos"): 1.0}), InvalidModeError, id="trig-key-not-mode"),
    pytest.param(_set_config, AttributeError, id="trig-attribute-assignment"),
    pytest.param(lambda cfg: _poly(cfg) + _poly(SpectralConfig(0.0, 1.0, 1.0)), InvalidConfigError,
                 id="trig-add-across-configs"),
    pytest.param(lambda cfg: _poly(cfg) * _poly(cfg), TypeError, id="trig-product-of-polynomials"),
    pytest.param(lambda cfg: _poly(cfg) + 1.0, TypeError, id="trig-add-scalar"),
    pytest.param(lambda cfg: FunctionHandle(()), DerivativeUnavailableError, id="handle-no-evaluators"),
    pytest.param(lambda cfg: FunctionHandle((np.cos, 1.0)), DerivativeUnavailableError,
                 id="handle-evaluator-not-callable"),
    pytest.param(lambda cfg: ell_power_coefficients(2, 0.0), InvalidConfigError, id="ell-power-k-zero"),
    pytest.param(lambda cfg: ell_power_coefficients(2, -1.0), InvalidConfigError, id="ell-power-k-negative"),
]


@pytest.mark.parametrize("call, error", REJECTED)
def test_rejected_input_raises(call, error, cfg):
    with pytest.raises(error):
        call(cfg)


def test_trig_polynomial_is_not_equal_to_a_scalar(cfg):
    assert (_poly(cfg) == 1.0) is False


class _Counted:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def test_integrate_propagates_package_errors_without_a_scalar_loop(cfg):
    def reject(x):
        raise PointOutOfDomainError("rejected")

    g = _Counted(reject)
    with pytest.raises(PointOutOfDomainError):
        integrate(g, cfg)
    assert g.calls == 1


def test_integrate_broadcasts_a_constant_integrand(cfg):
    g = _Counted(lambda x: 2.0)
    assert integrate(g, cfg) == pytest.approx(2.0 * cfg.length, rel=1e-14)
    assert g.calls == 1


@pytest.mark.parametrize("render", [render_json, render_csv])
def test_report_cell_that_cannot_be_serialized(render, cfg):
    with pytest.raises(TypeError, match="cannot serialize"):
        render(Report("probe", cfg, {}, [{"cell": object()}]))


def test_coeffs_direct_on_a_coefficient_only_entry_exits_2(capsys):
    code = main(["coeffs", "--function", "synthetic:3", "--N", "4", "--n", "1", "--method", "direct"])
    captured = capsys.readouterr()
    assert code == 2
    assert "synthetic:3 has no pointwise handle; use --method rescale" in captured.err


def test_verify_suite_all_is_every_suite(capsys):
    assert main(["verify", "--suite", "all", "--N", "6"]) == 0
    every = capsys.readouterr().out
    assert main(["verify", "--N", "6"]) == 0
    assert capsys.readouterr().out == every
