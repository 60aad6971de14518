import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifourier import Branch, Mode, SemiFourierError, SpectralConfig, angular_frequency, eigenvalue
from semifourier import catalog


def test_resolve_known_names():
    assert catalog.resolve("sawtooth").known_ladder == 1
    assert catalog.resolve("offset-cosine").known_ladder == 0
    assert catalog.resolve("mode:4:sin").known_ladder is None
    assert catalog.resolve("synthetic:2.5").known_ladder is None


def test_resolve_parse_errors():
    for bad in ("nope", "mode:4", "mode:x:cos", "mode:4:tan",
                "synthetic:abc", "synthetic:-1", "synthetic:0"):
        with pytest.raises(SemiFourierError):
            catalog.resolve(bad)


def test_mode_entry_builds_basis_function(cfg, spec):
    entry = catalog.resolve("mode:3:cos")
    cv = catalog.coeff_vector(entry, 5, cfg, spec)
    assert cv.coefficient(Mode.cos(3)) == 1.0
    assert cv.coefficient(Mode.sin(3)) == 0.0
    assert cv.coefficient(Mode.cos(1)) == 0.0
    p = entry.handle(cfg)
    assert p.coefficient(Mode.cos(3)) == 1.0


def test_synthetic_profile_values(cfg, spec):
    cv = catalog.coeff_vector("synthetic:3.5", 6, cfg, spec)
    for m in (1, 2, 6):
        lam = eigenvalue(cfg, m)
        assert cv.coefficient(Mode.cos(m)).real == pytest.approx(
            lam ** -1.75, rel=1e-14)
        assert cv.coefficient(Mode.sin(m)) == 0.0


def test_synthetic_has_no_handle(cfg, spec):
    entry = catalog.resolve("synthetic:2.0")
    assert entry.handle(cfg) is None
    with pytest.raises(SemiFourierError):
        catalog.coeff_vector(entry, 8, cfg, spec, prefer_closed_form=False)


def test_sawtooth_closed_form_matches_quadrature(any_cfg, spec):
    # the closed form must hold on shifted and scaled intervals too
    exact = catalog.coeff_vector("sawtooth", 20, any_cfg, spec)
    quad = catalog.coeff_vector("sawtooth", 20, any_cfg, spec, prefer_closed_form=False)
    assert np.allclose(exact.cos_coeffs, quad.cos_coeffs, rtol=0, atol=1e-11)
    assert np.allclose(exact.sin_coeffs, quad.sin_coeffs, rtol=0, atol=1e-11)


def test_sawtooth_coefficient_magnitude_profile(any_cfg, spec):
    # |a_m|^2 + |b_m|^2 = 8 / (L omega_m**4) regardless of the offset
    cv = catalog.coeff_vector("sawtooth", 10, any_cfg, spec)
    L = any_cfg.length
    for m in (1, 2, 7):
        omega = (2 * m - 1) * math.pi / L
        got = abs(cv.coefficient(Mode.cos(m))) ** 2 + abs(cv.coefficient(Mode.sin(m))) ** 2
        assert got == pytest.approx(8.0 / (L * omega ** 4), rel=1e-13)


def test_handles_supply_seven_derivative_orders(cfg):
    for name in ("sawtooth", "offset-cosine"):
        f = catalog.resolve(name).handle(cfg)
        assert f.max_deriv == 6


def test_offset_cosine_derivatives(cfg):
    f = catalog.resolve("offset-cosine").handle(cfg)
    x = 0.9
    c = math.pi / 2.0
    assert f(x) == pytest.approx(math.cos(x) * (x - c), rel=1e-14)
    # product rule: f' = -sin(x)(x - c) + cos(x)
    assert f.deriv(1)(x) == pytest.approx(-math.sin(x) * (x - c) + math.cos(x), rel=1e-13)
    # f'' = -cos(x)(x - c) - 2 sin(x)
    assert f.deriv(2)(x) == pytest.approx(-math.cos(x) * (x - c) - 2.0 * math.sin(x), rel=1e-13)


def test_available_functions_lists_all_forms():
    names = catalog.available_functions()
    assert "sawtooth" in names and "offset-cosine" in names
    assert any(s.startswith("mode:") for s in names)
    assert any(s.startswith("synthetic:") for s in names)


# ------------------------------------------- closed forms against per-mode formulas
# The per-mode formulas below are the reference: the closed forms evaluate all
# modes at once and must reproduce them bit for bit.

def _sawtooth_reference(cfg, m):
    omega = angular_frequency(cfg, m)
    scale = -2.0 * math.sqrt(2.0 / cfg.length) / (omega * omega)
    return complex(scale * math.cos(omega * cfg.a)), complex(scale * math.sin(omega * cfg.a))


def _synthetic_reference(p):
    return lambda cfg, m: (complex(eigenvalue(cfg, m) ** (-p / 2.0)), 0j)


def _mode_reference(mode_m, branch):
    def formula(cfg, m):
        if m != mode_m:
            return 0j, 0j
        return (1 + 0j, 0j) if branch is Branch.COS else (0j, 1 + 0j)

    return formula


def _assert_bit_equal(name, reference, cfg, N):
    cv = catalog.coeff_vector(name, N, cfg)
    pairs = [reference(cfg, m) for m in range(1, N + 1)]
    for got, want in ((cv.cos_coeffs, [p[0] for p in pairs]), (cv.sin_coeffs, [p[1] for p in pairs])):
        want = np.array(want, dtype=complex)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# Offsets reach |a| of 1e6 against lengths down to 1e-3.
configs = st.builds(
    lambda a, length, k: SpectralConfig(a, a + length, k),
    st.one_of(st.floats(-10.0, 10.0), st.floats(-1e6, 1e6)),
    st.floats(1e-3, 20.0),
    st.floats(1e-2, 1e2),
)


@settings(max_examples=60, deadline=None)
@given(cfg=configs, N=st.integers(1, 2000))
def test_sawtooth_closed_form_equals_per_mode_formula(cfg, N):
    _assert_bit_equal("sawtooth", _sawtooth_reference, cfg, N)


@settings(max_examples=60, deadline=None)
@given(cfg=configs, N=st.integers(1, 2000), p=st.floats(0.05, 12.0))
def test_synthetic_closed_form_equals_per_mode_formula(cfg, N, p):
    _assert_bit_equal(f"synthetic:{p!r}", _synthetic_reference(p), cfg, N)


@settings(max_examples=40, deadline=None)
@given(cfg=configs, N=st.integers(1, 60), m=st.integers(1, 80), branch=st.sampled_from(Branch))
def test_mode_closed_form_equals_per_mode_formula(cfg, N, m, branch):
    _assert_bit_equal(f"mode:{m}:{branch.value}", _mode_reference(m, branch), cfg, N)


@pytest.mark.parametrize("a,b,k", [(0.0, math.pi, 1.0), (7.5, 10.3, 0.5), (-2.5, 0.75, 2.2)])
def test_closed_forms_equal_per_mode_formulas_at_2e4_modes(a, b, k):
    cfg = SpectralConfig(a, b, k)
    _assert_bit_equal("sawtooth", _sawtooth_reference, cfg, 20_000)
    _assert_bit_equal("synthetic:4.2", _synthetic_reference(4.2), cfg, 20_000)


@pytest.mark.parametrize("name", ["mode:0:cos", "mode:-2:sin"])
def test_resolve_rejects_mode_index_below_one(name):
    with pytest.raises(SemiFourierError):
        catalog.resolve(name)


@pytest.mark.parametrize("name", ["sawtooth", "synthetic:3", "mode:2:cos"])
@pytest.mark.parametrize("N", [0, -1])
def test_closed_form_rejects_non_positive_truncation(name, N, cfg):
    with pytest.raises(SemiFourierError):
        catalog.coeff_vector(name, N, cfg)
