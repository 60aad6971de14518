"""The domain theorem as the ladder module applies it, over random intervals.

f lies in the n-th ladder space exactly when f^(j)(a) + f^(j)(b) = 0 for
every j < n and f^(n) is square integrable.  ``ladder._boundary_defects``
returns the defects and j0, the first order that fails, and every domain
verdict reads j0.  These tests check that trig polynomials have exactly zero
defects, that the verdicts equal the per-function checks they replaced, that
far from the origin the rounding of the endpoint values decides no verdict,
and how much work one verdict costs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifourier import (
    Branch,
    DerivativeUnavailableError,
    DomainVerdict,
    FunctionHandle,
    Mode,
    QuadratureSpec,
    SemiFourierError,
    SpectralConfig,
    TrigPolynomial,
    Verdict,
    basis_polynomial,
    boundary_antisymmetry_defect,
    domain_indicator,
    in_v_space,
    l2_inner,
    membership_classify,
)
from semifourier import catalog, ladder
from semifourier.ladder import BOUNDARY_TOL, _boundary_defects
from semifourier.quadrature import _on_grid, _weighted_sum
from semifourier.spectral import derivative_evaluator

# Offsets up to 1e5 against lengths down to 1e-2, so |a| >> b - a is covered.
configs = st.builds(
    lambda a, length, k: SpectralConfig(a, a + length, k),
    st.one_of(st.floats(-10.0, 10.0), st.floats(1e2, 1e5), st.floats(-1e5, -1e2)),
    st.floats(1e-2, 20.0),
    st.floats(1e-2, 1e2),
)
rules = st.builds(QuadratureSpec, panels=st.integers(1, 12), nodes_per_panel=st.integers(2, 12))
coefficients = st.builds(complex, st.floats(-10.0, 10.0), st.one_of(st.just(0.0), st.floats(-10.0, 10.0)))


@st.composite
def trig_polynomials(draw, cfg):
    terms = draw(st.dictionaries(
        st.builds(Mode, st.integers(1, 64), st.sampled_from(Branch)), coefficients, max_size=8,
    ))
    return TrigPolynomial(cfg, terms)


@st.composite
def functions(draw, cfg):
    """A random complex trig polynomial or one of the two catalog handles."""
    name = draw(st.sampled_from(["trig", "sawtooth", "offset-cosine"]))
    if name == "trig":
        return draw(trig_polynomials(cfg))
    return catalog.resolve(name).handle(cfg)


def _old_norm_sq(f, order, cfg, spec):
    top = _on_grid(f, cfg, spec)(order)
    return _weighted_sum(top * np.conjugate(top), cfg, spec)


def _threshold(f, j, cfg, scale):
    """BOUNDARY_TOL * scale, plus the rounding of the endpoint values of f^(j).

    That rounding is about 4 eps max(|a|, |b|) (|f^(j+1)(a)| + |f^(j+1)(b)|)
    when f supplies order j + 1; without it, sawtooth far from the origin
    would count as not anti-periodic (see the far-interval tests below).
    """
    limit = BOUNDARY_TOL * scale
    try:
        slope = derivative_evaluator(f, j + 1)
    except DerivativeUnavailableError:
        return limit
    term = 4 * np.finfo(float).eps * max(abs(cfg.a), abs(cfg.b)) * (
        abs(complex(slope(cfg.a))) + abs(complex(slope(cfg.b))))
    return limit + term if math.isfinite(term) else limit


def _old_in_v_space(f, n, cfg, spec):
    """in_v_space as written before the shared helper: stop at the first bad order."""
    derivative_evaluator(f, n)
    scale = max(math.sqrt(max(l2_inner(f, f, cfg, spec).real, 0.0)), 1e-300)
    for j in range(n):
        if boundary_antisymmetry_defect(f, cfg, j) > _threshold(f, j, cfg, scale):
            return False
    try:
        _old_norm_sq(f, n, cfg, spec)
    except SemiFourierError:
        return False
    return True


def _old_domain_indicator(f, n, cfg, spec):
    """domain_indicator as written before the shared helper."""
    derivative_evaluator(f, n + 2)
    scale = max(math.sqrt(max(l2_inner(f, f, cfg, spec).real, 0.0)), 1e-300)
    defects = tuple((j, boundary_antisymmetry_defect(f, cfg, j)) for j in range(n + 2))
    try:
        top_norm_sq = float(np.real(_old_norm_sq(f, n + 2, cfg, spec)))
        finite = True
    except SemiFourierError:
        top_norm_sq = math.inf
        finite = False
    ok = [d <= _threshold(f, j, cfg, scale) for j, d in defects]
    return DomainVerdict(
        ladder_index=n,
        boundary_defects=defects,
        top_deriv_norm_sq=top_norm_sq,
        in_sqrt_domain=ok[0] and _old_in_v_space(f, 1, cfg, spec),
        in_operator_domain=finite and all(ok),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cfg=configs, spec=rules)
def test_trig_polynomial_defects_are_exactly_zero(data, cfg, spec):
    p = data.draw(trig_polynomials(cfg))
    for j in range(7):
        assert boundary_antisymmetry_defect(p, cfg, j) == 0.0, j
    assert _boundary_defects(p, 7, cfg, spec) == (tuple((j, 0.0) for j in range(7)), 7)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cfg=configs, spec=rules)
def test_verdicts_equal_the_per_function_checks(data, cfg, spec):
    f = data.draw(functions(cfg))
    for n in range(1, 5):
        assert in_v_space(f, n, cfg, spec) == _old_in_v_space(f, n, cfg, spec), n
    for n in range(3):
        assert domain_indicator(f, n, cfg, spec) == _old_domain_indicator(f, n, cfg, spec), n


# Offsets of 1e3 to 1e6 against lengths of 1e-3 to 1e-1: an endpoint value
# there carries rounding of about one ulp of |a| times the slope.
far_intervals = st.builds(
    lambda a, length: SpectralConfig(a, a + length, 1.0),
    st.one_of(st.floats(1e3, 1e6), st.floats(-1e6, -1e3)),
    st.floats(1e-3, 1e-1),
)


@settings(max_examples=200, deadline=None)
@given(cfg=far_intervals, spec=rules)
def test_sawtooth_is_anti_periodic_far_from_the_origin(cfg, spec):
    # x - (a+b)/2 takes opposite values at a and b up to rounding
    saw = catalog.resolve("sawtooth").handle(cfg)
    assert _boundary_defects(saw, 3, cfg, spec)[1] == 1


@settings(max_examples=200, deadline=None)
@given(cfg=far_intervals, spec=rules)
def test_offset_line_fails_at_order_zero_far_from_the_origin(cfg, spec):
    # x - a has defect b - a, far above the rounding of the endpoint values
    a = cfg.a
    line = FunctionHandle((lambda x: x - a, np.ones_like, np.zeros_like))
    assert _boundary_defects(line, 2, cfg, spec)[1] == 0
    assert not in_v_space(line, 1, cfg, spec)


def test_slope_that_cannot_be_evaluated_at_an_endpoint_adds_no_rounding(cfg, spec):
    # sqrt(x - a) fails at order 0; its slope divides by zero at x = a, and
    # order 1 is read only to bound the rounding of the order-0 values
    a = cfg.a
    root = FunctionHandle((lambda x: math.sqrt(x - a), lambda x: 0.5 / math.sqrt(x - a)))
    assert _boundary_defects(root, 1, cfg, spec)[1] == 0
    assert not in_v_space(root, 1, cfg, spec)
    cv = catalog.coeff_vector("mode:5:sin", 64, cfg, spec)
    assert membership_classify(cv, 1, root, spec).verdict_per_n == {1: Verdict.NON_MEMBER}


@pytest.mark.parametrize("name", ["sawtooth", "offset-cosine"])
def test_first_failing_order_is_the_known_ladder_index(name, cfg, spec):
    entry = catalog.resolve(name)
    _, j0 = _boundary_defects(entry.handle(cfg), 7, cfg, spec)
    assert j0 == entry.known_ladder


@pytest.mark.parametrize("name", ["sawtooth", "offset-cosine"])
def test_membership_boundary_verdicts_follow_j0(name, cfg, spec):
    # single-mode coefficients make every index a member by decay alone, so
    # each non-member verdict below comes from the boundary defects
    cv = catalog.coeff_vector("mode:5:sin", 64, cfg, spec)
    f = catalog.resolve(name).handle(cfg)
    report = membership_classify(cv, 4, f, spec)
    defects, j0 = _boundary_defects(f, 4, cfg, spec)
    assert report.boundary_defects == defects
    assert report.verdict_per_n == {
        n: Verdict.MEMBER if n <= j0 else Verdict.NON_MEMBER for n in range(1, 5)
    }


def test_derivative_not_finite_on_the_nodes_is_not_square_integrable(cfg, spec):
    z = basis_polynomial(cfg, Mode(1, Branch.COS))
    f = FunctionHandle((z, lambda x: z.evaluate(x, 1), lambda x: np.full(np.shape(x), np.inf)))
    assert in_v_space(f, 1, cfg, spec)
    assert not in_v_space(f, 2, cfg, spec)
    verdict = domain_indicator(f, 0, cfg, spec)
    assert verdict.in_sqrt_domain and not verdict.in_operator_domain
    assert verdict.top_deriv_norm_sq == math.inf


def test_undefined_boundary_value_fails_the_condition(cfg, spec):
    z = basis_polynomial(cfg, Mode(1, Branch.COS))
    f = FunctionHandle((lambda x: np.where(np.asarray(x) == cfg.a, np.nan, z.evaluate(x)),
                        lambda x: z.evaluate(x, 1)))
    assert _boundary_defects(f, 1, cfg, spec)[1] == 0
    assert not in_v_space(f, 1, cfg, spec)


def _count_calls(monkeypatch):
    counts = {"l2_inner": 0, "boundary_antisymmetry_defect": 0}
    for name in counts:
        original = getattr(ladder, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ladder, name, counted)
    return counts


@pytest.mark.parametrize("n", [0, 1, 2])
def test_domain_indicator_reads_one_set_of_defects(n, cfg, spec, monkeypatch):
    saw = catalog.resolve("sawtooth").handle(cfg)
    counts = _count_calls(monkeypatch)
    verdict = domain_indicator(saw, n, cfg, spec)
    assert counts == {"l2_inner": 1, "boundary_antisymmetry_defect": n + 2}
    assert verdict.in_sqrt_domain and not verdict.in_operator_domain


@pytest.mark.parametrize("n", [1, 2, 3])
def test_in_v_space_reads_one_set_of_defects(n, cfg, spec, monkeypatch):
    saw = catalog.resolve("sawtooth").handle(cfg)
    counts = _count_calls(monkeypatch)
    assert in_v_space(saw, n, cfg, spec) == (n == 1)
    assert counts == {"l2_inner": 1, "boundary_antisymmetry_defect": n}
