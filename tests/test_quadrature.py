import math

import numpy as np
import pytest

from semifourier import (
    InvalidConfigError,
    Mode,
    NonFiniteIntegrandError,
    QuadratureSpec,
    SpectralConfig,
    basis_polynomial,
    integrate,
    l2_inner,
)
from semifourier import quadrature
from semifourier.quadrature import composite_rule


def test_spec_validation():
    with pytest.raises(InvalidConfigError):
        QuadratureSpec(panels=0)
    with pytest.raises(InvalidConfigError):
        QuadratureSpec(nodes_per_panel=1)
    with pytest.raises(InvalidConfigError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(InvalidConfigError):
        QuadratureSpec(abs_tol=math.nan)


def test_composite_rule_shape_and_weight_sum(any_cfg):
    spec = QuadratureSpec(panels=5, nodes_per_panel=4)
    nodes, weights = composite_rule(any_cfg, spec)
    assert nodes.size == 20
    assert weights.sum() == pytest.approx(any_cfg.length, rel=1e-14)
    assert np.all(nodes > any_cfg.a) and np.all(nodes < any_cfg.b)
    assert not nodes.flags.writeable


def test_rule_cache_stays_bounded_over_fresh_intervals():
    spec = QuadratureSpec(panels=2, nodes_per_panel=3)
    for i in range(1000):
        composite_rule(SpectralConfig(0.5 * i, 0.5 * i + 1.25, 1.0), spec)
    assert quadrature._composite_rule.cache_info().currsize <= 32


def test_frozen_elementary_integrals(cfg, spec):
    assert integrate(np.sin, cfg, spec) == pytest.approx(2.0, rel=1e-13)
    assert integrate(lambda x: np.cos(x) ** 2, cfg, spec) == pytest.approx(
        math.pi / 2.0, rel=1e-13)
    # centered ramp squared: integral is pi**3 / 12
    assert integrate(lambda x: (x - math.pi / 2.0) ** 2, cfg, spec) == pytest.approx(
        math.pi ** 3 / 12.0, rel=1e-14)


def test_single_panel_gauss_degree(cfg):
    # q nodes are exact through degree 2q - 1 and first fail at 2q
    q = 4
    spec = QuadratureSpec(panels=1, nodes_per_panel=q)
    for deg in range(2 * q):
        exact = math.pi ** (deg + 1) / (deg + 1)
        got = integrate(lambda x, d=deg: x ** d, cfg, spec)
        assert got == pytest.approx(exact, rel=1e-14), f"degree {deg}"
    deg = 2 * q
    exact = math.pi ** (deg + 1) / (deg + 1)
    got = integrate(lambda x, d=deg: x ** d, cfg, spec)
    assert abs(got - exact) / exact > 1e-9


def test_panel_doubling_improves_oscillatory_integral(cfg):
    omega = 15.0
    exact = (math.exp(math.pi) * (math.cos(omega * math.pi)
                                  + omega * math.sin(omega * math.pi)) - 1.0) / (1.0 + omega ** 2)
    errs = []
    for panels in (16, 32, 64):
        spec = QuadratureSpec(panels=panels, nodes_per_panel=3)
        got = integrate(lambda x: np.exp(x) * np.cos(omega * x), cfg, spec)
        errs.append(abs(got - exact))
    assert errs[0] / errs[1] > 10.0
    assert errs[1] / errs[2] > 10.0


def test_linearity_random_combinations(cfg, spec):
    rng = np.random.default_rng(77)
    f = lambda x: np.exp(-x) * np.sin(3.0 * x)
    g = lambda x: np.cos(2.0 * x)
    int_f = integrate(f, cfg, spec)
    int_g = integrate(g, cfg, spec)
    for _ in range(10):
        alpha, beta = rng.normal(size=2)
        combined = integrate(lambda x: alpha * f(x) + beta * g(x), cfg, spec)
        assert combined == pytest.approx(alpha * int_f + beta * int_g, abs=1e-13)


def test_bitwise_deterministic(cfg, spec):
    f = lambda x: np.sin(x) * np.exp(x / 4.0)
    first = integrate(f, cfg, spec)
    for _ in range(5):
        assert integrate(f, cfg, spec) == first


def test_scalar_only_integrand(cfg, spec):
    # integrands that reject arrays fall back to a scalar loop
    def f(x):
        if isinstance(x, np.ndarray):
            raise TypeError("scalar only")
        return math.sin(x)

    assert integrate(f, cfg, spec) == pytest.approx(2.0, rel=1e-13)


def test_nonfinite_integrand_rejected(cfg, spec):
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteIntegrandError):
        integrate(lambda x: 1.0 / (x - x), cfg, spec)
    with pytest.raises(NonFiniteIntegrandError):
        integrate(lambda x: np.full_like(np.asarray(x, dtype=float), np.nan), cfg, spec)


def test_l2_inner_orthonormal_pairs(any_cfg, spec):
    z1 = basis_polynomial(any_cfg, Mode.cos(1))
    z2 = basis_polynomial(any_cfg, Mode.sin(2))
    assert l2_inner(z1, z1, any_cfg, spec) == pytest.approx(1.0, rel=1e-14)
    assert l2_inner(z1, z2, any_cfg, spec) == pytest.approx(0.0, abs=1e-14)
    # quadrature route must agree with the coefficient route
    assert l2_inner(z1, z1, any_cfg, spec, force_quadrature=True) == pytest.approx(
        1.0, rel=1e-12)
    assert l2_inner(z1, z2, any_cfg, spec, force_quadrature=True) == pytest.approx(
        0.0, abs=1e-12)


def test_l2_inner_conjugate_symmetry(cfg, spec):
    p = (1.0 + 2.0j) * basis_polynomial(cfg, Mode.cos(1)) + 0.5 * basis_polynomial(cfg, Mode.sin(3))
    q = 2.0j * basis_polynomial(cfg, Mode.cos(1)) - basis_polynomial(cfg, Mode.sin(3))
    lhs = l2_inner(p, q, cfg, spec)
    rhs = l2_inner(q, p, cfg, spec)
    assert lhs == pytest.approx(rhs.conjugate(), rel=1e-13)
    # second slot is conjugate linear
    assert l2_inner(p, 1.0j * q, cfg, spec) == pytest.approx(-1.0j * lhs, rel=1e-13)


def test_l2_inner_mixed_handle_and_poly(cfg, spec):
    z = basis_polynomial(cfg, Mode.cos(1))
    got = l2_inner(lambda x: np.asarray(x, dtype=float), z, cfg, spec)
    # integral of x * sqrt(2/pi) cos(x) over (0, pi) is -2 sqrt(2/pi)
    assert got == pytest.approx(-2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)


def test_l2_inner_config_mismatch(cfg, spec):
    other = SpectralConfig(0.0, 1.0, 1.0)
    z_here = basis_polynomial(cfg, Mode.cos(1))
    z_there = basis_polynomial(other, Mode.cos(1))
    with pytest.raises(InvalidConfigError):
        l2_inner(z_here, z_there, cfg, spec)
