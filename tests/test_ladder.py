import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifourier import (
    Branch,
    CoeffVector,
    InsufficientModesError,
    InvalidConfigError,
    InvalidModeError,
    Mode,
    SemiFourierError,
    SpectralConfig,
    TrigPolynomial,
    TruncationMismatchError,
    Verdict,
    apply_ell,
    apply_ell_power,
    basis_polynomial,
    classical_coeffs,
    domain_indicator,
    eigenvalue,
    fundamental_relation_defect,
    in_v_space,
    l2_inner,
    leftdef_inner,
    leftdef_norm,
    lower_bound_margin,
    membership_classify,
    mode_sequence,
    operator_matrix,
    scaled_basis,
    spectral_inner_r,
)
from semifourier import catalog

SAWTOOTH_NORM1_SQ = math.pi + math.pi ** 3 / 12.0  # k=1 ramp on (0, pi)


# ------------------------------------------------------------ inner product

def test_basis_ladder_inner_frozen(cfg, spec):
    z1 = basis_polynomial(cfg, Mode.cos(1))
    # (z, z)_n = lambda**n for an orthonormal eigenfunction; lambda_1 = 2
    assert leftdef_inner(z1, z1, 2, cfg, spec) == pytest.approx(4.0, rel=1e-14)
    assert leftdef_inner(z1, z1, 2, cfg, spec, force_quadrature=True) == pytest.approx(
        4.0, rel=1e-12)


def test_basis_ladder_inner_cross_terms_vanish(any_cfg, spec):
    z1 = basis_polynomial(any_cfg, Mode.cos(1))
    z2 = basis_polynomial(any_cfg, Mode.sin(2))
    for n in (1, 2, 3):
        exact = leftdef_inner(z1, z2, n, any_cfg, spec)
        quad = leftdef_inner(z1, z2, n, any_cfg, spec, force_quadrature=True)
        assert exact == pytest.approx(0.0, abs=1e-14)
        assert quad == pytest.approx(0.0, abs=1e-9)


def test_sawtooth_ladder_inner_frozen(cfg, spec):
    f = catalog.resolve("sawtooth").handle(cfg)
    got = leftdef_inner(f, f, 1, cfg, spec)
    assert got.real == pytest.approx(SAWTOOTH_NORM1_SQ, rel=1e-12)
    assert got.imag == pytest.approx(0.0, abs=1e-14)


def test_leftdef_norm_values(cfg, spec):
    z1 = basis_polynomial(cfg, Mode.cos(1))
    assert leftdef_norm(z1, 1, cfg, spec) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert leftdef_norm(z1, 2, cfg, spec) == pytest.approx(2.0, rel=1e-14)
    f = catalog.resolve("sawtooth").handle(cfg)
    assert leftdef_norm(f, 1, cfg, spec) == pytest.approx(
        math.sqrt(SAWTOOTH_NORM1_SQ), rel=1e-12)


def test_ladder_index_validation(cfg, spec):
    z1 = basis_polynomial(cfg, Mode.cos(1))
    with pytest.raises(InvalidModeError):
        leftdef_inner(z1, z1, 0, cfg, spec)
    with pytest.raises(InvalidModeError):
        scaled_basis(Mode.cos(1), 0, cfg)


# Offsets far larger than the interval: |a| of 1e2 to 1e5 against lengths up to 10.
far_configs = st.builds(
    lambda a, length, k: SpectralConfig(a, a + length, k),
    st.one_of(st.floats(1e2, 1e5), st.floats(-1e5, -1e2)),
    st.floats(1e-2, 10.0),
    st.floats(1e-2, 1e2),
)
coefficients = st.builds(complex, st.floats(-10.0, 10.0), st.one_of(st.just(0.0), st.floats(-10.0, 10.0)))


@st.composite
def trig_polynomials(draw, cfg):
    terms = draw(st.dictionaries(
        st.builds(Mode, st.integers(1, 64), st.sampled_from(Branch)), coefficients, max_size=8,
    ))
    return TrigPolynomial(cfg, terms)


def _underflow_slack(cfg, mode, n) -> float:
    """Rounding that no relative bound covers: gradual underflow.

    An operation whose result is subnormal may be off by half the smallest
    subnormal, and later factors of up to lambda_m**n amplify that.  Either
    route makes at most (n + 1)(2n + 2) <= 36 roundings per coefficient, so
    64 of them bound it.  The term outweighs the relative bounds below only
    for values under about 1e-308, near or in the subnormal range.
    """
    return 64 * eigenvalue(cfg, mode.m) ** n * 5e-324


@settings(max_examples=200, deadline=None)
@given(data=st.data(), cfg=far_configs, n=st.integers(1, 5))
def test_binomial_power_equals_iterated_power(data, cfg, n):
    p = data.draw(trig_polynomials(cfg))
    via_binomial = apply_ell_power(p, n, method="binomial")
    via_iterate = apply_ell_power(p, n, method="iterate")
    for mode in set(via_binomial.modes()) | set(via_iterate.modes()):
        lhs, rhs = via_binomial.coefficient(mode), via_iterate.coefficient(mode)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs)) + _underflow_slack(cfg, mode, n)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), cfg=far_configs, n=st.integers(1, 5))
def test_ladder_inner_equals_l2_inner_of_the_power(data, cfg, n):
    # (p, q)_n = (ell^n p, q): the relation that makes ell^n the Gram operator
    p, q = data.draw(trig_polynomials(cfg)), data.draw(trig_polynomials(cfg))
    lhs = leftdef_inner(p, q, n, cfg)
    rhs = l2_inner(apply_ell_power(p, n), q, cfg)
    # terms may cancel, so the bound scales with the sum of their magnitudes
    bound = sum(1e-13 * eigenvalue(cfg, mode.m) ** n * abs(c * q.coefficient(mode))
                + _underflow_slack(cfg, mode, n) * (1.0 + abs(q.coefficient(mode)))
                for mode, c in p.items())
    assert abs(lhs - rhs) <= bound


# ------------------------------------------------------------- scaled basis

def test_scaled_basis_coefficients(cfg):
    # lambda_1 = 2 at n = 2 gives 2**-1; lambda_2 = 10 at n = 1 gives 10**-0.5
    s = scaled_basis(Mode.cos(1), 2, cfg)
    assert s.coefficient(Mode.cos(1)) == pytest.approx(0.5, rel=1e-15)
    s = scaled_basis(Mode.sin(2), 1, cfg)
    assert s.coefficient(Mode.sin(2)) == pytest.approx(10.0 ** -0.5, rel=1e-15)


def test_scaled_basis_is_ladder_orthonormal(any_cfg, spec):
    for n in (1, 3):
        for mode in (Mode.cos(1), Mode.sin(2), Mode.cos(4)):
            s = scaled_basis(mode, n, any_cfg)
            assert leftdef_inner(s, s, n, any_cfg, spec, force_quadrature=True) \
                == pytest.approx(1.0, rel=1e-10)


# ------------------------------------------------------ fundamental relation

def test_fundamental_relation_sawtooth(cfg, spec):
    f = catalog.resolve("sawtooth").handle(cfg)
    for m in (1, 2, 5):
        defect = fundamental_relation_defect(Mode.cos(m), f, 1, cfg, spec)
        assert defect <= 1e-7 * eigenvalue(cfg, m)


def test_fundamental_relation_inner_value(cfg, spec):
    # (z_1, f)_1 = lambda_1 * a_1 = 2 * (-2 sqrt(2/pi))
    f = catalog.resolve("sawtooth").handle(cfg)
    z1 = basis_polynomial(cfg, Mode.cos(1))
    got = leftdef_inner(z1, f, 1, cfg, spec)
    assert got.real == pytest.approx(-4.0 * math.sqrt(2.0 / math.pi), rel=1e-10)


def test_fundamental_relation_trig_fixture(any_cfg, spec):
    p = (0.7 * basis_polynomial(any_cfg, Mode.cos(1))
         - 0.3 * basis_polynomial(any_cfg, Mode.sin(4))
         + 1.1 * basis_polynomial(any_cfg, Mode.cos(7)))
    for n in (1, 2, 3):
        for mode in (Mode.cos(1), Mode.sin(4), Mode.cos(7), Mode.sin(9)):
            defect = fundamental_relation_defect(mode, p, n, any_cfg, spec)
            assert defect <= 1e-7 * eigenvalue(any_cfg, mode.m) ** n


# ------------------------------------------------------------- lower bound

def test_lower_bound_margin_values(cfg, spec):
    z1 = basis_polynomial(cfg, Mode.cos(1))
    # (z, z)_1 - k (z, z) = lambda - k = 1 on the reference interval
    assert lower_bound_margin(z1, 1, cfg, spec) == pytest.approx(1.0, rel=1e-13)
    f = catalog.resolve("sawtooth").handle(cfg)
    assert lower_bound_margin(f, 1, cfg, spec) == pytest.approx(math.pi, rel=1e-12)


def test_lower_bound_margin_nonnegative(any_cfg, spec):
    for name in ("sawtooth", "mode:3:sin"):
        f = catalog.resolve(name).handle(any_cfg)
        assert lower_bound_margin(f, 1, any_cfg, spec) >= -1e-8


# -------------------------------------------------------- coefficient sums

def _tiny_vector(cfg):
    return CoeffVector(
        config=cfg,
        cos_coeffs=np.array([1.0, 0.5], dtype=complex),
        sin_coeffs=np.array([0.0, 0.25], dtype=complex),
    )


def test_spectral_inner_r_hand_sum(cfg):
    cv = _tiny_vector(cfg)
    # lambda = (2, 10): sum lambda**r (|a|^2 + |b|^2)
    expected_r1 = 2.0 * 1.0 + 10.0 * (0.25 + 0.0625)
    assert spectral_inner_r(cv, cv, 1.0).real == pytest.approx(expected_r1, rel=1e-14)
    expected_half = math.sqrt(2.0) + math.sqrt(10.0) * 0.3125
    assert spectral_inner_r(cv, cv, 0.5).real == pytest.approx(expected_half, rel=1e-14)


def test_spectral_inner_r_errors(cfg, spec):
    cv = _tiny_vector(cfg)
    other = CoeffVector(
        config=cfg,
        cos_coeffs=np.array([1.0], dtype=complex),
        sin_coeffs=np.array([0.0], dtype=complex),
    )
    with pytest.raises(TruncationMismatchError):
        spectral_inner_r(cv, other, 1.0)
    with pytest.raises(InvalidModeError):
        spectral_inner_r(cv, cv, 0.0)
    mismatched = CoeffVector(
        config=SpectralConfig(0.0, 1.0, 1.0),
        cos_coeffs=np.array([1.0, 0.5], dtype=complex),
        sin_coeffs=np.array([0.0, 0.25], dtype=complex),
    )
    with pytest.raises(InvalidConfigError):
        spectral_inner_r(cv, mismatched, 1.0)
    f = catalog.resolve("sawtooth").handle(cfg)
    ladder_cv = CoeffVector(
        config=cfg,
        cos_coeffs=np.array([1.0, 0.5], dtype=complex),
        sin_coeffs=np.array([0.0, 0.25], dtype=complex),
        ladder=1,
    )
    with pytest.raises(SemiFourierError):
        spectral_inner_r(ladder_cv, ladder_cv, 1.0)


def test_spectral_inner_r_matches_ladder_inner(cfg, spec):
    p = 0.8 * basis_polynomial(cfg, Mode.cos(2)) + 0.1 * basis_polynomial(cfg, Mode.sin(6))
    cv = classical_coeffs(p, 12, cfg, spec)
    for n in (1, 2):
        series = spectral_inner_r(cv, cv, float(n))
        direct = leftdef_inner(p, p, n, cfg, spec)
        assert series.real == pytest.approx(direct.real, rel=1e-12)


# ------------------------------------------------------------ classification

def test_membership_sawtooth(cfg, spec):
    entry = catalog.resolve("sawtooth")
    cv = catalog.coeff_vector(entry, 400, cfg, spec)
    report = membership_classify(cv, 2, entry.handle(cfg), spec)
    assert report.verdict_per_n[1] is Verdict.MEMBER
    assert report.verdict_per_n[2] is Verdict.NON_MEMBER
    assert report.critical_r == pytest.approx(1.5, abs=0.1)
    # slope of log |c|^2 vs log lambda for the ramp is -2
    assert report.decay_slope == pytest.approx(-2.0, abs=0.1)


def test_membership_synthetic_profile(cfg, spec):
    # |c_m|^2 = lambda**-p makes sum lambda**(r-p) diverge exactly at
    # r = p - 1/2 (lambda grows like m**2, so the sum behaves like an
    # integral with density dm ~ lambda**-0.5 dlambda)
    cv = catalog.coeff_vector("synthetic:3.5", 400, cfg, spec)
    report = membership_classify(cv, 3, None, spec)
    assert report.critical_r == pytest.approx(3.0, abs=0.1)
    assert report.verdict_per_n[1] is Verdict.MEMBER
    assert report.verdict_per_n[2] is Verdict.MEMBER


def test_membership_single_mode(cfg, spec):
    cv = catalog.coeff_vector("mode:5:sin", 64, cfg, spec)
    report = membership_classify(cv, 6, None, spec)
    assert math.isinf(report.critical_r)
    assert all(v is Verdict.MEMBER for v in report.verdict_per_n.values())


def test_membership_requires_enough_modes(cfg, spec):
    cv = catalog.coeff_vector("sawtooth", 16, cfg, spec)
    with pytest.raises(InsufficientModesError):
        membership_classify(cv, 2, None, spec)


def test_membership_verdicts_antitone(cfg, spec):
    rank = {Verdict.MEMBER: 2, Verdict.INCONCLUSIVE: 1, Verdict.NON_MEMBER: 0}
    cv = catalog.coeff_vector("sawtooth", 128, cfg, spec)
    report = membership_classify(cv, 4, catalog.resolve("sawtooth").handle(cfg), spec)
    ranks = [rank[report.verdict_per_n[n]] for n in range(1, 5)]
    assert all(hi >= lo for hi, lo in zip(ranks, ranks[1:]))


# ------------------------------------------------------------ matrix picture

def test_mode_sequence_order():
    seq = mode_sequence(3)
    assert seq == [Mode.cos(1), Mode.sin(1), Mode.cos(2), Mode.sin(2),
                   Mode.cos(3), Mode.sin(3)]


def test_operator_matrix_diagonal_frozen(cfg, spec):
    got = operator_matrix(1, 2, cfg, spec)
    expected = np.diag([2.0, 2.0, 10.0, 10.0])
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("a, b, k", [(0.0, math.pi, 1.0), (7.5, 10.3, 0.5), (-2.5, 0.75, 2.2)])
def test_operator_matrix_diagonal_equals_every_pair(a, b, k, spec):
    # the coefficient route evaluates only the diagonal; every pair gives the same bits
    cfg = SpectralConfig(a, b, k)
    for n in (1, 2, 3):
        scaled = [scaled_basis(mode, n, cfg) for mode in mode_sequence(20)]
        want = np.array([[leftdef_inner(apply_ell(f), g, n, cfg, spec).real for g in scaled]
                         for f in scaled])
        got = operator_matrix(n, 20, cfg, spec)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_operator_matrix_quadrature_route(cfg, spec):
    for n in (1, 2):
        got = operator_matrix(n, 3, cfg, spec, force_quadrature=True)
        lam = [eigenvalue(cfg, m) for m in (1, 1, 2, 2, 3, 3)]
        offdiag = got - np.diag(np.diag(got))
        assert np.max(np.abs(offdiag)) <= 1e-8
        assert np.max(np.abs(np.diag(got) - lam)) <= 1e-10 * max(lam)


# ---------------------------------------------------------------- domains

def test_sawtooth_domain_split(cfg, spec):
    f = catalog.resolve("sawtooth").handle(cfg)
    verdict = domain_indicator(f, 0, cfg, spec)
    assert verdict.in_sqrt_domain
    assert not verdict.in_operator_domain
    assert in_v_space(f, 1, cfg, spec)
    assert not in_v_space(f, 2, cfg, spec)


def test_offset_cosine_outside_first_space(cfg, spec):
    f = catalog.resolve("offset-cosine").handle(cfg)
    assert not in_v_space(f, 1, cfg, spec)
    verdict = domain_indicator(f, 0, cfg, spec)
    assert not verdict.in_sqrt_domain


def test_basis_elements_in_every_space(any_cfg, spec):
    for mode in (Mode.cos(1), Mode.sin(5)):
        z = basis_polynomial(any_cfg, mode)
        for n in (1, 2, 6):
            assert in_v_space(z, n, any_cfg, spec)
        verdict = domain_indicator(z, 3, any_cfg, spec)
        assert verdict.in_operator_domain
        assert verdict.in_sqrt_domain
        assert all(d == 0.0 for _, d in verdict.boundary_defects)
