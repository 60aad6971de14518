import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifourier import (
    Branch,
    DerivativeUnavailableError,
    FunctionHandle,
    InvalidConfigError,
    InvalidModeError,
    Mode,
    PointOutOfDomainError,
    SpectralConfig,
    TrigPolynomial,
    angular_frequencies,
    angular_frequency,
    apply_ell,
    apply_ell_power,
    basis_eval,
    basis_polynomial,
    boundary_antisymmetry_defect,
    eigenvalue,
    eigenvalues,
    ell_power_coefficients,
)
from semifourier import catalog
from semifourier.spectral import derivative_evaluator


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(InvalidConfigError):
        SpectralConfig(1.0, 1.0, 1.0)
    with pytest.raises(InvalidConfigError):
        SpectralConfig(0.0, math.pi, 0.0)
    with pytest.raises(InvalidConfigError):
        SpectralConfig(0.0, math.pi, -2.0)
    with pytest.raises(InvalidConfigError):
        SpectralConfig(0.0, math.inf, 1.0)
    assert SpectralConfig(0.0, math.pi, 1.0).length == math.pi


def test_mode_validation():
    with pytest.raises(InvalidModeError):
        Mode(0, Branch.COS)
    with pytest.raises(InvalidModeError):
        Mode(-3, Branch.SIN)
    with pytest.raises(InvalidModeError):
        Mode(1.5, Branch.COS)
    assert Mode.cos(4).m == 4
    assert Mode.sin(2).branch is Branch.SIN


# ------------------------------------------------------------ eigenvalues

def test_eigenvalue_frozen_values():
    cfg = SpectralConfig(0.0, math.pi, 1.0)
    # ((2m-1))^2 + 1 on a pi-length interval
    assert eigenvalue(cfg, 1) == pytest.approx(2.0, rel=1e-15)
    assert eigenvalue(cfg, 2) == pytest.approx(10.0, rel=1e-15)
    assert eigenvalue(cfg, 3) == pytest.approx(26.0, rel=1e-15)

    cfg2 = SpectralConfig(0.0, 2.0 * math.pi, 0.5)
    assert eigenvalue(cfg2, 1) == pytest.approx(0.75, rel=1e-15)

    cfg3 = SpectralConfig(-1.0, 1.0, 3.0)
    assert eigenvalue(cfg3, 1) == pytest.approx((math.pi / 2.0) ** 2 + 3.0, rel=1e-15)


def test_eigenvalue_matches_formula_anywhere(any_cfg):
    length = any_cfg.b - any_cfg.a
    for m in range(1, 21):
        expected = ((2 * m - 1) * math.pi / length) ** 2 + any_cfg.k
        assert eigenvalue(any_cfg, m) == pytest.approx(expected, rel=1e-15)


def test_eigenvalues_increasing_and_above_shift(any_cfg):
    values = [eigenvalue(any_cfg, m) for m in range(1, 30)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))
    assert all(v > any_cfg.k for v in values)


def test_eigenvalue_rejects_bad_mode(cfg):
    with pytest.raises(InvalidModeError):
        eigenvalue(cfg, 0)


# Offsets reach |a| of 1e6 against lengths down to 1e-3, so |a| >> b - a.
configs = st.builds(
    lambda a, length, k: SpectralConfig(a, a + length, k),
    st.one_of(st.floats(-10.0, 10.0), st.floats(-1e6, 1e6)),
    st.floats(1e-3, 20.0),
    st.floats(1e-2, 1e2),
)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@settings(max_examples=60, deadline=None)
@given(cfg=configs, N=st.integers(1, 3000))
def test_array_eigenvalues_equal_scalar_bit_for_bit(cfg, N):
    omega = angular_frequencies(cfg, N)
    lam = eigenvalues(cfg, N)
    assert lam.shape == omega.shape == (N,)
    assert np.array_equal(_bits(omega), _bits([angular_frequency(cfg, m) for m in range(1, N + 1)]))
    assert np.array_equal(_bits(lam), _bits([eigenvalue(cfg, m) for m in range(1, N + 1)]))


@pytest.mark.parametrize("a,b,k", [(0.0, math.pi, 1.0), (7.5, 10.3, 0.5), (-2.5, 0.75, 2.2)])
def test_array_eigenvalues_equal_scalar_at_1e5_modes(a, b, k):
    cfg = SpectralConfig(a, b, k)
    N = 100_000
    scalar = [eigenvalue(cfg, m) for m in range(1, N + 1)]
    assert np.array_equal(_bits(eigenvalues(cfg, N)), _bits(scalar))


def _correctly_rounded_eigenvalues(cfg, omega) -> list[float]:
    # Fraction squares exactly, and float() of a Fraction rounds to nearest
    return [float(Fraction(w) ** 2) + cfg.k for w in omega.tolist()]


@pytest.mark.parametrize("a,b,k", [(0.0, math.pi, 1.0), (7.5, 10.3, 0.5), (-2.5, 0.75, 2.2)])
def test_eigenvalues_square_correctly_rounded_at_1e5_modes(a, b, k):
    # Python's w ** 2 (libm pow) is 1 ulp off on 182 of these 3e5 modes
    # (18, 91 and 73 per config on glibc); one multiply is correctly rounded
    cfg = SpectralConfig(a, b, k)
    omega = angular_frequencies(cfg, 100_000)
    assert np.array_equal(_bits(eigenvalues(cfg, 100_000)),
                          _bits(_correctly_rounded_eigenvalues(cfg, omega)))


@settings(max_examples=60, deadline=None)
@given(cfg=configs, N=st.integers(1, 3000))
def test_eigenvalues_square_correctly_rounded(cfg, N):
    want = _bits(_correctly_rounded_eigenvalues(cfg, angular_frequencies(cfg, N)))
    assert np.array_equal(_bits(eigenvalues(cfg, N)), want)
    assert np.array_equal(_bits([eigenvalue(cfg, m) for m in range(1, N + 1)]), want)


@pytest.mark.parametrize("N", [0, -3, 2.0, True])
def test_array_eigenvalues_reject_bad_count(cfg, N):
    with pytest.raises(InvalidModeError):
        eigenvalues(cfg, N)
    with pytest.raises(InvalidModeError):
        angular_frequencies(cfg, N)


# ------------------------------------------------------------- basis eval

def test_basis_values_on_reference_interval(cfg):
    amp = math.sqrt(2.0 / math.pi)
    assert basis_eval(cfg, Mode.cos(1), 0.0) == pytest.approx(amp, rel=1e-15)
    assert basis_eval(cfg, Mode.sin(1), math.pi / 2.0) == pytest.approx(amp, rel=1e-15)
    assert basis_eval(cfg, Mode.cos(2), 0.0) == pytest.approx(amp, rel=1e-15)
    # cos(3 * pi/6) = cos(pi/2) = 0
    assert basis_eval(cfg, Mode.cos(2), math.pi / 6.0) == pytest.approx(0.0, abs=1e-15)


def test_basis_matches_plain_trig(any_cfg):
    rng = np.random.default_rng(404)
    xs = any_cfg.a + any_cfg.length * rng.random(16)
    amp = math.sqrt(2.0 / any_cfg.length)
    for m in (1, 2, 5, 9):
        omega = angular_frequency(any_cfg, m)
        for x in xs:
            assert basis_eval(any_cfg, Mode.cos(m), x) == pytest.approx(
                amp * math.cos(omega * x), rel=0, abs=1e-13)
            assert basis_eval(any_cfg, Mode.sin(m), x) == pytest.approx(
                amp * math.sin(omega * x), rel=0, abs=1e-13)


def test_basis_derivatives_against_finite_differences(any_cfg):
    # independent oracle: 4th order central stencil on the 0th derivative
    h = 1e-4
    x = any_cfg.a + 0.37 * any_cfg.length
    for mode in (Mode.cos(1), Mode.sin(1), Mode.cos(3), Mode.sin(4)):
        f = lambda t: basis_eval(any_cfg, mode, t)
        stencil = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
        assert basis_eval(any_cfg, mode, x, deriv_order=1) == pytest.approx(
            stencil, rel=1e-9, abs=1e-9)


def test_basis_derivative_cycle(any_cfg):
    # d/dx cos-branch = -omega sin-branch, d/dx sin-branch = +omega cos-branch
    omega = angular_frequency(any_cfg, 3)
    x = any_cfg.a + 0.61 * any_cfg.length
    assert basis_eval(any_cfg, Mode.cos(3), x, 1) == pytest.approx(
        -omega * basis_eval(any_cfg, Mode.sin(3), x), rel=1e-13)
    assert basis_eval(any_cfg, Mode.sin(3), x, 1) == pytest.approx(
        omega * basis_eval(any_cfg, Mode.cos(3), x), rel=1e-13)
    # second derivative returns to the same branch scaled by -omega^2
    assert basis_eval(any_cfg, Mode.cos(3), x, 2) == pytest.approx(
        -omega ** 2 * basis_eval(any_cfg, Mode.cos(3), x), rel=1e-13)


def test_basis_eval_vectorized(cfg):
    xs = np.linspace(0.0, math.pi, 7)
    vec = basis_eval(cfg, Mode.sin(2), xs)
    scalars = [basis_eval(cfg, Mode.sin(2), float(x)) for x in xs]
    assert np.allclose(vec, scalars, rtol=0, atol=1e-15)


def test_basis_eval_out_of_domain(cfg):
    with pytest.raises(PointOutOfDomainError):
        basis_eval(cfg, Mode.cos(1), -0.5)
    with pytest.raises(PointOutOfDomainError):
        basis_eval(cfg, Mode.cos(1), math.pi + 0.5)


# ---------------------------------------------------- boundary anti-symmetry

def test_basis_boundary_defect_is_exactly_zero(any_cfg):
    # f^(j)(a) = -f^(j)(b) must hold to the last bit for every basis element
    for m in (1, 2, 7, 12):
        for branch in (Branch.COS, Branch.SIN):
            z = basis_polynomial(any_cfg, Mode(m, branch))
            for order in range(7):
                assert boundary_antisymmetry_defect(z, any_cfg, order) == 0.0


def test_sawtooth_boundary_defects(cfg):
    f = catalog.resolve("sawtooth").handle(cfg)
    # the centered ramp is odd about the midpoint: order 0 passes ...
    assert boundary_antisymmetry_defect(f, cfg, 0) == pytest.approx(0.0, abs=1e-15)
    # ... and the constant slope breaks anti-periodicity at order 1
    assert boundary_antisymmetry_defect(f, cfg, 1) == pytest.approx(2.0, rel=1e-15)


def test_offset_cosine_boundary_defect(cfg):
    f = catalog.resolve("offset-cosine").handle(cfg)
    # cos(x)(x - pi/2) takes the value -pi/2 at both endpoints
    assert boundary_antisymmetry_defect(f, cfg, 0) == pytest.approx(math.pi, rel=1e-15)


# --------------------------------------------------------- trig polynomials

def test_trig_polynomial_algebra(cfg):
    z1 = basis_polynomial(cfg, Mode.cos(1))
    z2 = basis_polynomial(cfg, Mode.sin(2))
    p = 2.0 * z1 - 0.5 * z2
    assert p.coefficient(Mode.cos(1)) == 2.0
    assert p.coefficient(Mode.sin(2)) == -0.5
    assert p.coefficient(Mode.cos(9)) == 0.0
    q = p + 0.5 * z2
    assert q.coefficient(Mode.sin(2)) == 0.0
    assert q.modes() == (Mode.cos(1),)
    assert (p - p) == TrigPolynomial.zero(cfg)
    assert (-p).coefficient(Mode.cos(1)) == -2.0


def test_trig_polynomial_evaluate_matches_sum(cfg):
    p = 1.5 * basis_polynomial(cfg, Mode.cos(2)) + (0.25 + 1.0j) * basis_polynomial(cfg, Mode.sin(5))
    x = 0.83
    expected = (1.5 * basis_eval(cfg, Mode.cos(2), x)
                + (0.25 + 1.0j) * basis_eval(cfg, Mode.sin(5), x))
    assert p(x) == pytest.approx(expected, rel=1e-14)
    assert not p.is_real


def test_trig_polynomial_derivative_object(cfg):
    omega = angular_frequency(cfg, 2)
    p = basis_polynomial(cfg, Mode.cos(2)).derivative()
    assert p.coefficient(Mode.sin(2)) == pytest.approx(-omega, rel=1e-15)
    # derivative of derivative agrees with deriv_order=2 evaluation
    pp = p.derivative()
    x = 1.2
    assert pp(x) == pytest.approx(basis_eval(cfg, Mode.cos(2), x, 2), rel=1e-13)


@pytest.mark.parametrize("order", [1.5, True, -1, "2"])
def test_trig_polynomial_derivative_rejects_non_integer_orders(cfg, order):
    with pytest.raises(DerivativeUnavailableError):
        basis_polynomial(cfg, Mode.cos(2)).derivative(order)


def test_trig_polynomial_derivative_accepts_numpy_integers(cfg):
    p = basis_polynomial(cfg, Mode.cos(2))
    assert p.derivative(np.int64(3)) == p.derivative(3)


# ----------------------------------------------------- shifted second order

def test_ell_power_coefficients_frozen():
    assert ell_power_coefficients(1, 1.0) == [1.0, -1.0]
    assert ell_power_coefficients(2, 1.0) == [1.0, -2.0, 1.0]
    assert ell_power_coefficients(3, 2.0) == [8.0, -12.0, 6.0, -1.0]


def test_apply_ell_is_diagonal(any_cfg):
    for mode in (Mode.cos(1), Mode.sin(3)):
        z = basis_polynomial(any_cfg, mode)
        image = apply_ell(z)
        lam = eigenvalue(any_cfg, mode.m)
        assert image.coefficient(mode) == pytest.approx(lam, rel=1e-14)
        assert len(image.modes()) == 1


def test_apply_ell_power_routes_agree(cfg):
    rng = np.random.default_rng(1234)
    for _ in range(25):
        terms = rng.integers(1, 8)
        p = TrigPolynomial.zero(cfg)
        for _ in range(terms):
            m = int(rng.integers(1, 12))
            branch = Branch.COS if rng.random() < 0.5 else Branch.SIN
            coeff = complex(rng.normal(), rng.normal())
            p = p + coeff * basis_polynomial(cfg, Mode(m, branch))
        n = int(rng.integers(1, 6))
        via_iterate = apply_ell_power(p, n, method="iterate")
        via_binomial = apply_ell_power(p, n, method="binomial")
        for mode in via_iterate.modes():
            lhs = via_iterate.coefficient(mode)
            rhs = via_binomial.coefficient(mode)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_apply_ell_power_diagonal_action(cfg):
    z = basis_polynomial(cfg, Mode.sin(4))
    lam = eigenvalue(cfg, 4)
    for n in (1, 2, 3):
        image = apply_ell_power(z, n)
        assert image.coefficient(Mode.sin(4)) == pytest.approx(lam ** n, rel=1e-12)


def test_apply_ell_power_rejects_unknown_method(cfg):
    z = basis_polynomial(cfg, Mode.cos(1))
    with pytest.raises(ValueError):
        apply_ell_power(z, 2, method="nope")


# --------------------------------------------------------- function handles

def test_function_handle_derivative_bound(cfg):
    f = FunctionHandle(derivatives=(lambda x: x, lambda x: 1.0))
    assert f.max_deriv == 1
    assert f(0.5) == 0.5
    with pytest.raises(DerivativeUnavailableError):
        f.deriv(2)


def test_derivative_evaluator_gives_each_supplied_order(cfg):
    f = FunctionHandle(derivatives=(lambda x: x, lambda x: 1.0))
    assert derivative_evaluator(f, 1) is f.derivatives[1]
    p = basis_polynomial(cfg, Mode.sin(3))
    assert derivative_evaluator(p, 5)(0.4) == basis_eval(cfg, Mode.sin(3), 0.4, 5)
    g = math.cos
    assert derivative_evaluator(g, 0) is g


@pytest.mark.parametrize("f,order", [
    (FunctionHandle(derivatives=(math.sin,)), 1),
    (math.cos, 1),
    (3.0, 0),
    (math.cos, -1),
    (math.cos, 0.5),
])
def test_derivative_evaluator_rejects_unavailable_orders(f, order):
    with pytest.raises(DerivativeUnavailableError):
        derivative_evaluator(f, order)


def test_boundary_defect_requires_derivative(cfg):
    f = FunctionHandle(derivatives=(lambda x: x,))
    with pytest.raises(DerivativeUnavailableError):
        boundary_antisymmetry_defect(f, cfg, 1)


# ------------------------------------- ell^n without intermediate polynomials
# apply_ell_power runs the scalar operations of the composed polynomial
# operations term by term; the composition itself is the reference.

def _apply_ell_power_composed(p, n, method):
    if method == "iterate":
        out = p
        for _ in range(n):
            out = apply_ell(out)
        return out
    coeffs = ell_power_coefficients(n, p.config.k)
    acc = TrigPolynomial.zero(p.config)
    for j, c in enumerate(coeffs):
        acc = acc + c * p.derivative(2 * j)
    return acc


def _random_polynomial(rng):
    a = float(rng.uniform(-10.0, 10.0))
    cfg = SpectralConfig(a, a + 10.0 ** rng.uniform(-3, 2), 10.0 ** rng.uniform(-3, 3))
    parts = [0.0, -0.0, 1.0, -1.0]
    terms = {}
    for _ in range(int(rng.integers(1, 9))):
        m = int(10 ** rng.uniform(0, 5))
        branch = Branch.COS if rng.random() < 0.5 else Branch.SIN
        re, im = (float(rng.standard_normal() * 10.0 ** rng.uniform(-300, 300))
                  if rng.random() < 0.8 else parts[int(rng.integers(4))] for _ in range(2))
        terms[Mode(m, branch)] = complex(re, im)
    return TrigPolynomial(cfg, terms)


@pytest.mark.parametrize("method", ["iterate", "binomial"])
def test_apply_ell_power_equals_the_composition(method):
    rng = np.random.default_rng(90210)
    for _ in range(400):
        p = _random_polynomial(rng)
        for n in range(1, 7):
            assert repr(apply_ell_power(p, n, method)) == repr(_apply_ell_power_composed(p, n, method))


@pytest.mark.parametrize("method", ["iterate", "binomial"])
def test_apply_ell_power_drops_terms_that_vanish(method):
    cfg = SpectralConfig(0.0, 1000.0, 1e-3)  # lambda_1 ~ 1e-3: tiny coefficients underflow
    p = TrigPolynomial(cfg, {Mode.cos(1): 1e-320, Mode.sin(1): complex(-0.0, 5e-324), Mode.cos(2): 1.0})
    image = apply_ell_power(p, 3, method)
    assert repr(image) == repr(_apply_ell_power_composed(p, 3, method))
    assert image.modes() == (Mode.cos(2),)
