import math

import numpy as np
import pytest

from semifourier import (
    CoeffVector,
    FunctionHandle,
    InvalidConfigError,
    Mode,
    NonFiniteIntegrandError,
    SemiFourierError,
    TruncationExceededError,
    basis_polynomial,
    classical_coeffs,
    expansion_error,
    leftdef_coeffs,
    parseval_defect,
    partial_sum,
)
from semifourier import catalog


# --------------------------------------------------------- classical coeffs

def test_sawtooth_coeffs_match_closed_form(cfg, spec):
    f = catalog.resolve("sawtooth").handle(cfg)
    got = classical_coeffs(f, 30, cfg, spec)
    want = catalog.coeff_vector("sawtooth", 30, cfg, spec)
    assert np.allclose(got.cos_coeffs, want.cos_coeffs, rtol=0, atol=1e-12)
    assert np.allclose(got.sin_coeffs, want.sin_coeffs, rtol=0, atol=1e-12)


def test_sawtooth_first_coefficient(cfg, spec):
    cv = classical_coeffs(catalog.resolve("sawtooth").handle(cfg), 4, cfg, spec)
    assert cv.coefficient(Mode.cos(1)).real == pytest.approx(
        -2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)
    assert cv.coefficient(Mode.sin(1)) == pytest.approx(0.0, abs=1e-13)


def test_trig_input_reproduces_coefficients_exactly(cfg, spec):
    p = 0.75 * basis_polynomial(cfg, Mode.cos(2)) + 2.5j * basis_polynomial(cfg, Mode.sin(3))
    cv = classical_coeffs(p, 6, cfg, spec)
    assert cv.coefficient(Mode.cos(2)) == 0.75
    assert cv.coefficient(Mode.sin(3)) == 2.5j
    assert cv.coefficient(Mode.cos(6)) == 0.0


def test_non_finite_handle_raises(cfg, spec):
    nan_inside = FunctionHandle((lambda x: np.where(x > 1.0, np.nan, x),))
    with pytest.raises(NonFiniteIntegrandError):
        classical_coeffs(nan_inside, 4, cfg, spec)


def test_coeff_vector_validation(cfg):
    with pytest.raises(InvalidConfigError):
        CoeffVector(cfg, np.array([1.0 + 0j]), np.array([1.0 + 0j, 2.0 + 0j]))
    cv = CoeffVector(cfg, np.array([1.0 + 0j]), np.array([0j]))
    with pytest.raises(TruncationExceededError):
        cv.coefficient(Mode.cos(2))


# -------------------------------------------------------------- partial sums

def test_partial_sum_idempotent(cfg, spec):
    cv = catalog.coeff_vector("sawtooth", 12, cfg, spec)
    s = partial_sum(cv, 12)
    again = classical_coeffs(s, 12, cfg, spec)
    # coefficients of the partial sum are the original ones, bit for bit
    assert np.array_equal(again.cos_coeffs, cv.cos_coeffs)
    assert np.array_equal(again.sin_coeffs, cv.sin_coeffs)


def test_partial_sum_argument_checks(cfg, spec):
    cv = catalog.coeff_vector("sawtooth", 8, cfg, spec)
    with pytest.raises(SemiFourierError):
        partial_sum(cv, 0)
    with pytest.raises(TruncationExceededError):
        partial_sum(cv, 9)
    rescaled = leftdef_coeffs(catalog.resolve("sawtooth").handle(cfg), 8, 1, cfg, spec)
    with pytest.raises(SemiFourierError):
        partial_sum(rescaled, 4)


# ---------------------------------------------------------- expansion error

def test_expansion_error_frozen_values(cfg, spec):
    f = catalog.resolve("sawtooth").handle(cfg)
    cv = catalog.coeff_vector("sawtooth", 8, cfg, spec)
    assert expansion_error(f, cv, 1, spec=spec) == pytest.approx(
        0.19333209913167457, rel=1e-9)
    assert expansion_error(f, cv, 4, spec=spec) == pytest.approx(
        0.028360703803748912, rel=1e-9)


def test_expansion_error_decreases(cfg, spec):
    f = catalog.resolve("sawtooth").handle(cfg)
    cv = catalog.coeff_vector("sawtooth", 16, cfg, spec)
    errs = [expansion_error(f, cv, M, spec=spec) for M in (1, 2, 4, 8, 16)]
    assert all(hi > lo for hi, lo in zip(errs, errs[1:]))


def test_expansion_error_zero_for_exact_polynomial(cfg, spec):
    p = 1.5 * basis_polynomial(cfg, Mode.cos(1)) - 0.5 * basis_polynomial(cfg, Mode.sin(2))
    cv = classical_coeffs(p, 4, cfg, spec)
    assert expansion_error(p, cv, 4, spec=spec) == 0.0
    assert expansion_error(p, cv, 2, spec=spec) == 0.0
    # dropping a live mode leaves exactly its coefficient magnitude
    assert expansion_error(p, cv, 1, spec=spec) == pytest.approx(0.5, rel=1e-14)


def test_expansion_error_in_ladder_norm(cfg, spec):
    f = catalog.resolve("sawtooth").handle(cfg)
    cv = catalog.coeff_vector("sawtooth", 16, cfg, spec)
    plain = expansion_error(f, cv, 8, spec=spec)
    weighted = expansion_error(f, cv, 8, n=1, spec=spec)
    # the first ladder norm dominates L2 whenever k >= 1
    assert weighted > plain > 0.0


# --------------------------------------------------------------- parseval

def test_parseval_defect_shrinks(cfg, spec):
    f = catalog.resolve("sawtooth").handle(cfg)
    small = parseval_defect(f, catalog.coeff_vector("sawtooth", 10, cfg, spec), spec=spec)
    large = parseval_defect(f, catalog.coeff_vector("sawtooth", 100, cfg, spec), spec=spec)
    assert small > large > 0.0
    # closed form tail: norm^2 = pi^3/12 and the N=100 sum is 1e-6 close
    assert large <= 1e-6


def test_parseval_defect_zero_for_polynomial(cfg, spec):
    p = 2.0 * basis_polynomial(cfg, Mode.sin(4))
    cv = classical_coeffs(p, 8, cfg, spec)
    assert parseval_defect(p, cv, spec=spec) == pytest.approx(0.0, abs=1e-14)


def test_parseval_defect_ladder_weights(cfg, spec):
    f = catalog.resolve("sawtooth").handle(cfg)
    cv = catalog.coeff_vector("sawtooth", 200, cfg, spec)
    defect = parseval_defect(f, cv, n=1, spec=spec)
    # tail of sum lambda_m |c_m|^2 with |c_m|^2 ~ m**-4: about 8/(pi N)
    assert 0.0 < defect < 2.0 * 8.0 / (math.pi * 200)


def test_parseval_defect_ladder_vector_requires_matching_n(cfg, spec):
    f = catalog.resolve("sawtooth").handle(cfg)
    rescaled = leftdef_coeffs(f, 40, 1, cfg, spec)
    with pytest.raises(SemiFourierError):
        parseval_defect(f, rescaled, n=2, spec=spec)
    defect = parseval_defect(f, rescaled, n=1, spec=spec)
    assert defect == pytest.approx(
        parseval_defect(f, catalog.coeff_vector("sawtooth", 40, cfg, spec), n=1, spec=spec),
        rel=1e-10)


# ------------------------------------------------------------ ladder coeffs

def test_rescale_identity_basis(cfg, spec):
    z1 = basis_polynomial(cfg, Mode.cos(1))
    cv = leftdef_coeffs(z1, 3, 2, cfg, spec, method="rescale")
    # coefficient against the rescaled basis is lambda**(n/2) * classical
    assert cv.coefficient(Mode.cos(1)) == pytest.approx(2.0, rel=1e-14)
    assert cv.ladder == 2


def test_rescale_vs_direct_sawtooth(cfg, spec):
    f = catalog.resolve("sawtooth").handle(cfg)
    fast = leftdef_coeffs(f, 12, 1, cfg, spec, method="rescale")
    slow = leftdef_coeffs(f, 12, 1, cfg, spec, method="direct")
    assert np.allclose(fast.cos_coeffs, slow.cos_coeffs, rtol=1e-7, atol=1e-10)
    assert np.allclose(fast.sin_coeffs, slow.sin_coeffs, rtol=1e-7, atol=1e-10)


def test_leftdef_first_coefficient_value(cfg, spec):
    f = catalog.resolve("sawtooth").handle(cfg)
    cv = leftdef_coeffs(f, 2, 1, cfg, spec)
    # sqrt(2) * (-2 sqrt(2/pi)) = -4 / sqrt(pi)
    assert cv.coefficient(Mode.cos(1)).real == pytest.approx(
        -4.0 / math.sqrt(math.pi), rel=1e-12)


def test_leftdef_coeffs_unknown_method(cfg, spec):
    f = catalog.resolve("sawtooth").handle(cfg)
    with pytest.raises(SemiFourierError):
        leftdef_coeffs(f, 4, 1, cfg, spec, method="fastest")
