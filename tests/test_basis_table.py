"""Basis values on the quadrature nodes against direct basis evaluation.

The waves on a rule's nodes must reproduce ``basis_eval`` bit for bit, each
row of a stacked basis side must equal the one-term polynomial on the grid
bit for bit, and the quadrature route of the inner products must lie within
the rounding bound of the sum built from ``basis_eval`` values and
``integrate``; each entry of the ladder matrix equals the same matrix taken
on its pair alone, bit for bit.  The batched checks of
``verify`` (trig polynomial evaluation without per-term checks, derivatives
taken in one pass, the fundamental relation over many modes at once) must
equal their one-at-a-time references bit for bit.
"""

import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifourier import (
    Branch,
    FunctionHandle,
    Mode,
    NonFiniteIntegrandError,
    QuadratureSpec,
    SpectralConfig,
    TrigPolynomial,
    basis_eval,
    basis_polynomial,
    boundary_antisymmetry_defect,
    domain_indicator,
    eigenvalue,
    fundamental_relation_defect,
    fundamental_relation_defects,
    in_v_space,
    integrate,
    l2_inner,
    leftdef_coeffs,
    leftdef_inner,
    mode_sequence,
    operator_matrix,
    scaled_basis,
)
from semifourier import (
    catalog, classical_coeffs, expansion, expansion_error, ladder, partial_sum, quadrature, spectral,
    verify,
)
from semifourier.quadrature import composite_rule
from semifourier.spectral import _derivative_wave, apply_ell

# Offsets reach |a| of 1e5 against lengths down to 1e-3.
configs = st.builds(
    lambda a, length, k: SpectralConfig(a, a + length, k),
    st.one_of(st.floats(-10.0, 10.0), st.floats(-1e5, 1e5)),
    st.floats(1e-3, 20.0),
    st.floats(1e-2, 1e2),
)
# Offsets far larger than the interval: |a| of 1e2 to 1e5 against lengths up to 10.
far_configs = st.builds(
    lambda a, length, k: SpectralConfig(a, a + length, k),
    st.one_of(st.floats(1e2, 1e5), st.floats(-1e5, -1e2)),
    st.floats(1e-2, 10.0),
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


@settings(max_examples=60, deadline=None)
@given(cfg=configs, spec=rules, M=st.integers(1, 64), j=st.integers(0, 6))
def test_table_columns_equal_basis_eval(cfg, spec, M, j):
    nodes, _ = composite_rule(cfg, spec)
    for m, (omega, cos_psi, sin_psi) in enumerate(quadrature._grid_waves(cfg, spec, range(1, M + 1)), 1):
        for branch in Branch:
            mode = Mode(m, branch)
            column = _derivative_wave(cfg, branch, omega, cos_psi, sin_psi, j)
            assert np.array_equal(column, basis_eval(cfg, mode, nodes, j)), (mode, j)


def _reference_values(p: TrigPolynomial, j: int, nodes: np.ndarray) -> np.ndarray:
    acc = np.zeros(nodes.shape, dtype=complex)
    for mode, coeff in p.items():
        acc = acc + coeff * basis_eval(p.config, mode, nodes, j)
    return acc.real if p.is_real else acc


U = 2.0 ** -53
ETA = 2.0 ** -1074  # the smallest subnormal


def _gamma(m: int) -> float:
    return m * U / (1 - m * U)


def _rounding_bound(f_values, g_values, n, cfg, spec):
    """2 gamma_(N+n+4) sum_j C(n, j) k**(n-j) sum_i w_i |f^(j)(x_i)| |g^(j)(x_i)|, N the rule's nodes.

    This bounds the distance between two routes that sum the same ladder
    sum in different orders.  Rounding model (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 3): a real
    operation gives (x op y)(1 + d) with |d| <= u = 2**-53; a complex
    product is within sqrt(2) gamma_2 of the exact one relative to its
    modulus (Lemma 3.5), a complex times a real or a complex sum within u;
    and (1 + theta_a)(1 + theta_b) = 1 + theta_(a+b), |theta_m| <= gamma_m =
    m u / (1 - m u).  Each term t_i = w_i f_i conj(g_i) is formed with one
    scaling by the weight and one complex product, so it carries 1 +
    theta_4 (u + sqrt(2) gamma_2 <= gamma_4).  A sum of the N terms in any
    order puts each term through at most N - 1 additions, so the order's
    integral is within gamma_(N+3) sum_i |t_i| of exact.  Scaling it by
    C(n, j) k**(n-j), the same float on both routes, adds one rounding, and
    accumulating the n + 1 orders from zero adds n.  So each route is
    within gamma_(N+n+4) S of the exact weighted sum, S the sum above, and
    the two routes lie within twice that of each other.  (The n additions
    across orders are why the index is N + n + 4 and not N + 4.)
    f_values and g_values map j to the grid values of one side.

    The relative model misses gradual underflow: a real product whose
    result is subnormal may also be off by an absolute ETA / 2 (Higham,
    section 2.1), ETA the smallest subnormal, which no 1 + theta factor
    covers (a sum of subnormals is exact).  Each term takes at most six real
    products, two for the weight and four for the complex product, and an
    error in the first is scaled by at most m_i = max(1, w_i, |f^(j)(x_i)|,
    |g^(j)(x_i)|) before the sum; the order's scaling C(n, j) k**(n-j)
    takes two more.  Counting ETA per product for the later 1 + theta
    factors, each route is within ETA sum_j (6 C(n, j) k**(n-j) sum_i m_i +
    2) of exact in this way, and the bound adds twice that.  The term
    matters only when values reach about 1e-308.
    """
    _, weights = composite_rule(cfg, spec)
    total = underflow = 0.0
    for j in range(n + 1):
        scale = math.comb(n, j) * cfg.k ** (n - j)
        f_abs, g_abs = np.abs(f_values(j)), np.abs(g_values(j))
        total += scale * float(np.sum(weights * f_abs * g_abs))
        largest = np.maximum(np.maximum(weights, 1.0), np.maximum(f_abs, g_abs))
        underflow += 6 * scale * float(np.sum(largest)) + 2
    return 2 * _gamma(weights.size + n + 4) * total + 2 * ETA * underflow


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cfg=configs, spec=rules, n=st.integers(1, 4))
def test_quadrature_inner_products_are_within_rounding_of_basis_eval_reference(data, cfg, spec, n):
    _assert_inner_products_within_rounding(data.draw(trig_polynomials(cfg)),
                                           data.draw(trig_polynomials(cfg)), n, cfg, spec)


def test_inner_products_are_within_rounding_when_products_underflow():
    # a subnormal coefficient: every product in the relative bound underflows to 0.0,
    # while the two routes differ by 1e-323, two subnormal units; st.data() takes no
    # @example, so this drawn case is pinned here
    cfg = SpectralConfig(0.0, 1.0, 1.0)
    p = TrigPolynomial(cfg, {Mode(1, Branch.COS): 1 + 0j})
    q = TrigPolynomial(cfg, {Mode(1, Branch.COS): 2.2250738585e-313 + 0j})
    _assert_inner_products_within_rounding(p, q, 1, cfg, QuadratureSpec(panels=1, nodes_per_panel=2))


def _assert_inner_products_within_rounding(p, q, n, cfg, spec):
    nodes, _ = composite_rule(cfg, spec)

    def reference_integral(j):
        values = _reference_values(p, j, nodes) * np.conjugate(_reference_values(q, j, nodes))
        return complex(integrate(lambda x: values, cfg, spec))

    want = 0j
    for j in range(n + 1):
        want += math.comb(n, j) * cfg.k ** (n - j) * reference_integral(j)
    p_values = lambda j: _reference_values(p, j, nodes)  # noqa: E731
    q_values = lambda j: _reference_values(q, j, nodes)  # noqa: E731
    got = leftdef_inner(p, q, n, cfg, spec, force_quadrature=True)
    assert abs(got - want) <= _rounding_bound(p_values, q_values, n, cfg, spec)
    got = l2_inner(p, q, cfg, spec, force_quadrature=True)
    assert abs(got - reference_integral(0)) <= _rounding_bound(p_values, q_values, 0, cfg, spec)


@st.composite
def complex_trig_polynomials(draw, cfg):
    """Trig polynomials with a nonzero imaginary part, so their values are complex."""
    terms = draw(st.dictionaries(
        st.builds(Mode, st.integers(1, 64), st.sampled_from(Branch)),
        st.builds(complex, st.floats(-10.0, 10.0), st.floats(0.5, 10.0)), min_size=1, max_size=8,
    ))
    return TrigPolynomial(cfg, terms)


def _pairwise_ladder(f_grids, g_grids, n, cfg, spec):
    """Each entry on its own: C(n, j) k**(n-j) times ``integrate`` of f^(j) conj(g^(j)), from 0j."""
    want = [[0j] * len(g_grids) for _ in f_grids]
    for j in range(n + 1):
        weight = math.comb(n, j) * cfg.k ** (n - j)
        for row, f in zip(want, f_grids):
            for q, g in enumerate(g_grids):
                products = f(j) * np.conjugate(g(j))
                row[q] += weight * complex(integrate(lambda x: products, cfg, spec))
    return want


def _stack(grids):
    """The side of ``_ladder_matrix`` whose rows are the given one-function grids."""
    return lambda j: np.array([grid(j) for grid in grids])


def _poisoned(grid, order, index):
    """grid with NaN at node ``index`` of derivative ``order``."""
    def values(j):
        out = np.array(grid(j))
        if j == order:
            out[index] = np.nan
        return out

    return values


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cfg=far_configs, spec=rules, n=st.integers(0, 3),
       complex_side=st.booleans())
def test_ladder_matrix_is_within_rounding_of_the_pairwise_sums(data, cfg, spec, n, complex_side):
    rows = data.draw(st.lists(st.one_of(
        complex_trig_polynomials(cfg),
        st.sampled_from(["sawtooth", "offset-cosine"]).map(lambda name: catalog.resolve(name).handle(cfg)),
    ), min_size=1, max_size=4))
    if complex_side:
        cols = data.draw(st.lists(complex_trig_polynomials(cfg), min_size=1, max_size=6))
    else:
        modes = mode_sequence(data.draw(st.integers(1, 4)))
        cols = [scaled_basis(mode, n, cfg) if n else basis_polynomial(cfg, mode) for mode in modes]
    f_grids = [quadrature._on_grid(f, cfg, spec) for f in rows]
    g_grids = [quadrature._on_grid(g, cfg, spec) for g in cols]
    got = quadrature._ladder_matrix(_stack(f_grids), _stack(g_grids), n, cfg, spec)
    assert isinstance(got, np.ndarray) and got.shape == (len(rows), len(cols))
    want = _pairwise_ladder(f_grids, g_grids, n, cfg, spec)
    for p, f in enumerate(f_grids):
        for q, g in enumerate(g_grids):
            assert abs(got[p, q] - want[p][q]) <= _rounding_bound(f, g, n, cfg, spec), (p, q)

    nodes, _ = composite_rule(cfg, spec)
    order = data.draw(st.integers(0, n))
    index = data.draw(st.integers(0, nodes.size - 1))
    if data.draw(st.booleans()):
        p = data.draw(st.integers(0, len(rows) - 1))
        f_grids[p] = _poisoned(f_grids[p], order, index)
    else:
        q = data.draw(st.integers(0, len(cols) - 1))
        g_grids[q] = _poisoned(g_grids[q], order, index)
    with pytest.raises(NonFiniteIntegrandError) as reference:
        _pairwise_ladder(f_grids, g_grids, n, cfg, spec)
    with pytest.raises(NonFiniteIntegrandError, match=re.escape(str(reference.value))):
        quadrature._ladder_matrix(_stack(f_grids), _stack(g_grids), n, cfg, spec)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cfg=far_configs, spec=rules, n=st.integers(0, 3),
       complex_rows=st.booleans(), complex_side=st.booleans())
def test_ladder_matrix_entry_equals_the_call_on_its_pair(data, cfg, spec, n, complex_rows, complex_side):
    # each side all real or all complex, as every caller passes them: a side
    # that mixes the two is summed as complex throughout
    real_rows = st.one_of(
        st.builds(lambda terms: TrigPolynomial(cfg, terms), st.dictionaries(
            st.builds(Mode, st.integers(1, 64), st.sampled_from(Branch)), st.floats(-10.0, 10.0), max_size=8)),
        st.sampled_from(["sawtooth", "offset-cosine"]).map(lambda name: catalog.resolve(name).handle(cfg)),
    )
    rows = data.draw(st.lists(complex_trig_polynomials(cfg) if complex_rows else real_rows, min_size=1, max_size=5))
    if complex_side:
        cols = data.draw(st.lists(complex_trig_polynomials(cfg), min_size=1, max_size=6))
    else:
        modes = mode_sequence(data.draw(st.integers(1, 4)))
        cols = [scaled_basis(mode, n, cfg) if n else basis_polynomial(cfg, mode) for mode in modes]
    f_grids = [quadrature._on_grid(f, cfg, spec) for f in rows]
    g_grids = [quadrature._on_grid(g, cfg, spec) for g in cols]
    f_side = _stack(f_grids)
    got = quadrature._ladder_matrix(f_side, _stack(g_grids), n, cfg, spec)
    gram = quadrature._ladder_matrix(f_side, f_side, n, cfg, spec)
    for p, f in enumerate(f_grids):
        for q, g in enumerate(g_grids):
            assert _bits(got[p, q]) == _bits(quadrature._ladder_matrix(_stack([f]), _stack([g]), n, cfg, spec)), (p, q)
        for q, g in enumerate(f_grids):
            assert _bits(gram[p, q]) == _bits(quadrature._ladder_matrix(_stack([f]), _stack([g]), n, cfg, spec)), (p, q)


def test_ladder_matrix_with_an_empty_side_is_empty():
    cfg = SpectralConfig(-0.5, 1.75, 1.5)
    spec = QuadratureSpec()
    empty = quadrature._basis_side([], [], cfg, spec)
    grid = quadrature._function_side(basis_polynomial(cfg, Mode(2, Branch.SIN)), cfg, spec)
    assert empty(3).shape == (0, composite_rule(cfg, spec)[0].size)
    assert quadrature._ladder_matrix(empty, grid, 2, cfg, spec).shape == (0, 1)
    assert quadrature._ladder_matrix(grid, empty, 2, cfg, spec).shape == (1, 0)
    assert fundamental_relation_defects([], basis_polynomial(cfg, Mode(2, Branch.SIN)), 1, cfg).size == 0


# Offsets reach |a| of 1e6 against lengths down to 1e-3.
wide_configs = st.builds(
    lambda a, length, k: SpectralConfig(a, a + length, k),
    st.one_of(st.floats(-10.0, 10.0), st.floats(-1e6, 1e6)),
    st.floats(1e-3, 20.0),
    st.floats(1e-2, 1e2),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cfg=wide_configs, spec=rules, j=st.integers(0, 6))
def test_basis_side_rows_equal_the_one_term_polynomial_on_the_grid(data, cfg, spec, j):
    # repeated mode indices on both branches, in any order, with any real scale
    modes = data.draw(st.lists(st.builds(Mode, st.sampled_from([1, 2, 3, 17, 40, 10**6]), st.sampled_from(Branch)),
                               max_size=10))
    scales = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(-1e3, 1e3), st.sampled_from([1.0, -1.0])),
                                min_size=len(modes), max_size=len(modes)))
    values = quadrature._basis_side(modes, scales, cfg, spec)(j)
    assert values.shape == (len(modes), composite_rule(cfg, spec)[0].size) and values.dtype == float
    for p, (mode, scale) in enumerate(zip(modes, scales)):
        want = quadrature._on_grid(scale * basis_polynomial(cfg, mode), cfg, spec)(j)
        assert _bits(values[p]) == _bits(want), (mode, scale)


def test_basis_side_walks_each_distinct_mode_once(monkeypatch):
    calls = []
    block = spectral._basis_block
    monkeypatch.setattr(spectral, "_basis_block", lambda cfg, ms, xs: calls.append(list(ms)) or block(cfg, ms, xs))
    cfg = SpectralConfig(-0.75, 0.5, 2.0)
    spec = QuadratureSpec(panels=5, nodes_per_panel=7)
    blocks = [list(range(1, 17)), list(range(17, 33)), list(range(33, 41))]
    assert all(len(ms) <= spectral._BLOCK_MODES for ms in blocks)
    handle = catalog.resolve("offset-cosine").handle(cfg)
    for n in range(5):
        calls.clear()
        side = quadrature._basis_side(mode_sequence(40), ladder._ladder_scales(mode_sequence(40), n, cfg), cfg, spec)
        for j in range(n + 1):
            side(j)
        assert calls == blocks, n
        # repeated modes out of order: the distinct indices in first-seen order
        calls.clear()
        modes = [Mode(m, branch) for m in (5, 2, 5, 9, 2) for branch in Branch]
        quadrature._basis_side(modes, [1.0] * len(modes), cfg, spec)(n)
        assert calls == [[5, 2, 9]], n
        if n:
            calls.clear()
            leftdef_coeffs(handle, 40, n, cfg, spec, method="direct")
            assert calls == blocks, n


def test_forced_operator_matrix_makes_no_per_entry_sums(monkeypatch):
    calls = []
    weighted_sum = quadrature._weighted_sum
    monkeypatch.setattr(quadrature, "_weighted_sum", lambda *a: calls.append(a) or weighted_sum(*a))
    cfg = SpectralConfig(-0.5, 1.75, 1.5)
    matrix = operator_matrix(2, 6, cfg, force_quadrature=True)
    assert matrix.shape == (12, 12) and matrix.dtype == float
    assert calls == []


def test_high_mode_needs_only_its_own_row():
    cfg = SpectralConfig(0.0, 1.0, 1.0)
    z = basis_polynomial(cfg, Mode(10**6, Branch.SIN))
    tracemalloc.start()
    try:
        assert in_v_space(z, 2, cfg)
        assert math.isfinite(domain_indicator(z, 1, cfg).top_deriv_norm_sq)
        fundamental_relation_defect(Mode(10**6, Branch.SIN), z, 1, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # a dense table of modes 1..10**6 would take gigabytes


def test_operator_matrix_equals_pairwise_inner_products():
    cfg = SpectralConfig(-0.5, 1.75, 1.5)
    spec = QuadratureSpec(panels=9, nodes_per_panel=6)
    for n in (1, 3):
        scaled = [scaled_basis(mode, n, cfg) for mode in mode_sequence(4)]
        want = [[leftdef_inner(apply_ell(f), g, n, cfg, spec, force_quadrature=True).real for g in scaled]
                for f in scaled]
        assert np.array_equal(operator_matrix(n, 4, cfg, spec, force_quadrature=True), want)


def test_operator_matrix_holds_one_derivative_order_at_a_time():
    cfg = SpectralConfig(-0.5, 1.75, 1.5)
    operator_matrix(3, 8, cfg, force_quadrature=True)  # the rule cached before measuring
    tracemalloc.start()
    try:
        operator_matrix(3, 8, cfg, force_quadrature=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 16 functions x 4 orders x 2 sides of 640-node vectors would be 1.3 MiB
    assert peak < 512 * 2**10


def _pointwise_residual(f, cv, M, n, spec):
    """The squared expansion error from f^(j) - s_M^(j) evaluated pointwise at the nodes,
    and the residual's values as a function of j.

    This is how the residual was formed before it was taken on the grid:
    the handle's derivative and the partial sum's ``evaluate`` at the nodes,
    then one quadrature per order, weighted C(n, j) k**(n-j) and summed in
    ascending j (the plain integral for the L2 error).
    """
    cfg = cv.config
    s = partial_sum(cv, M)
    nodes, _ = composite_rule(cfg, spec)
    residuals = [np.asarray(f.deriv(j)(nodes)) - np.asarray(s.evaluate(nodes, j))
                 for j in range(1 if n is None else n + 1)]
    total = 0j
    for j, r in enumerate(residuals):
        integral = complex(integrate(lambda x: r * np.conjugate(r), cfg, spec))
        total = integral if n is None else total + math.comb(n, j) * cfg.k ** (n - j) * integral
    return max(total.real, 0.0), residuals.__getitem__


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cfg=far_configs, spec=rules,
       name=st.sampled_from(["sawtooth", "offset-cosine"]), N=st.integers(1, 16),
       n=st.sampled_from([None, 1, 2, 3]))
def test_handle_residual_on_grid_is_within_rounding_of_pointwise_residual(data, cfg, spec, name, N, n):
    M = data.draw(st.integers(1, N))
    f = catalog.resolve(name).handle(cfg)
    cv = classical_coeffs(f, N, cfg, spec)
    calls = []
    basis_eval_ = spectral.basis_eval
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "basis_eval", lambda *a, **kw: calls.append(a) or basis_eval_(*a, **kw))
        got = expansion_error(f, cv, M, n, spec)
    assert calls == []
    want_sq, residual = _pointwise_residual(f, cv, M, n, spec)
    # the bound on the squared error, plus the root taken by expansion_error
    # and the square taken here: three roundings of got**2, within gamma_4 of it
    bound = _rounding_bound(residual, residual, n or 0, cfg, spec) + _gamma(4) * got**2
    assert abs(got**2 - want_sq) <= bound


def _per_mode_defect(mode, f, n, cfg, spec):
    """The fundamental-relation defect as one-mode inner products computed it."""
    z = basis_polynomial(cfg, mode)
    lhs = leftdef_inner(z, f, n, cfg, spec, force_quadrature=True)
    rhs = eigenvalue(cfg, mode.m) ** n * l2_inner(z, f, cfg, spec, force_quadrature=True)
    return abs(lhs - rhs)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cfg=far_configs, spec=rules, n=st.integers(1, 3))
def test_fundamental_relation_defects_equal_the_per_mode_reference(data, cfg, spec, n):
    f = data.draw(st.one_of(
        complex_trig_polynomials(cfg),
        trig_polynomials(cfg),
        st.sampled_from(["sawtooth", "offset-cosine"]).map(lambda name: catalog.resolve(name).handle(cfg)),
    ))
    modes = data.draw(st.lists(st.builds(Mode, st.integers(1, 64), st.sampled_from(Branch)),
                               min_size=1, max_size=8))
    want = [_per_mode_defect(mode, f, n, cfg, spec) for mode in modes]
    got = fundamental_relation_defects(modes, f, n, cfg, spec)
    assert got.tobytes() == np.array(want, dtype=float).tobytes()
    assert fundamental_relation_defect(modes[0], f, n, cfg, spec) == want[0]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cfg=far_configs, j=st.integers(0, 6))
def test_evaluate_equals_the_per_term_basis_eval_sum(data, cfg, j):
    p = data.draw(st.one_of(trig_polynomials(cfg), complex_trig_polynomials(cfg)))
    inside = st.floats(cfg.a, cfg.b)
    points = [cfg.a, cfg.b, data.draw(inside), np.array([cfg.a, cfg.b]),
              np.array(data.draw(st.lists(inside, min_size=1, max_size=5)))]
    for x in points:
        got = p.evaluate(x, j)
        want = _reference_values(p, j, np.asarray(x))
        assert np.ndim(got) == np.ndim(x)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), x
    ends = _reference_values(p, j, np.asarray(cfg.a)), _reference_values(p, j, np.asarray(cfg.b))
    assert boundary_antisymmetry_defect(p, cfg, j) == abs(complex(ends[0]) + complex(ends[1]))


def _coefficient_bytes(p):
    return [(mode, struct.pack("<2d", c.real, c.imag)) for mode, c in p.items()]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cfg=far_configs, k=st.integers(0, 8))
def test_derivative_equals_iterated_first_derivatives(data, cfg, k):
    p = data.draw(st.one_of(trig_polynomials(cfg), complex_trig_polynomials(cfg)))
    want = p
    for _ in range(k):
        want = want.derivative(1)
    assert _coefficient_bytes(p.derivative(k)) == _coefficient_bytes(want)


def test_fundamental_relation_suite_makes_one_ladder_matrix_per_side(monkeypatch):
    calls = []
    ladder_matrix = ladder._ladder_matrix
    monkeypatch.setattr(ladder, "_ladder_matrix", lambda *a: calls.append(a) or ladder_matrix(*a))
    params = verify.default_params()
    assert params["modes"] == 8
    rows = verify.suite_fundamental_relation(SpectralConfig(7.5, 10.3, 0.5), QuadratureSpec(), params)
    assert all(row["passed"] for row in rows)
    assert len(calls) <= 8  # one (f, n) pair per sawtooth and fixture order, two sides each


def test_basis_boundary_suite_makes_no_basis_eval_calls(monkeypatch):
    calls = []
    basis_eval_ = spectral.basis_eval
    monkeypatch.setattr(spectral, "basis_eval", lambda *a, **kw: calls.append(a) or basis_eval_(*a, **kw))
    rows = verify.suite_basis_boundary(SpectralConfig(-2.5, 0.75, 2.2), QuadratureSpec(), verify.default_params())
    assert all(row["passed"] for row in rows)
    assert calls == []


def _bits(values) -> bytes:
    """The IEEE bytes of real or complex values, so that -0.0 differs from 0.0."""
    flat = np.asarray(values).ravel()
    if np.iscomplexobj(flat):
        flat = flat.view(float)
    return struct.pack(f"<{flat.size}d", *flat.astype(float))


def _one_mode_wave(cfg, m, xs):
    """omega_m, cos(omega_m x), sin(omega_m x) as one mode was computed before blocks."""
    big_m = 2 * m - 1
    u = (xs - cfg.a) / (cfg.b - cfg.a)
    base_sin, base_cos = spectral._sincospi(big_m * u)
    omega = spectral.angular_frequency(cfg, m)
    phase = omega * cfg.a
    pc, ps = math.cos(phase), math.sin(phase)
    return omega, base_cos * pc - base_sin * ps, base_sin * pc + base_cos * ps


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cfg=far_configs,
       ms=st.lists(st.one_of(st.integers(1, 64), st.integers(1, 10**6)), min_size=1, max_size=12))
def test_block_rows_equal_the_one_mode_wave(data, cfg, ms):
    inside = st.floats(cfg.a, cfg.b)
    xs = np.array([cfg.a, cfg.b] + data.draw(st.lists(inside, max_size=6)))
    omegas, cos_psi, sin_psi = spectral._basis_block(cfg, ms, xs)
    assert cos_psi.shape == sin_psi.shape == (len(ms), xs.size)
    for i, m in enumerate(ms):
        omega, want_cos, want_sin = _one_mode_wave(cfg, m, xs)
        assert struct.pack("<d", omegas[i]) == struct.pack("<d", omega)
        assert _bits(cos_psi[i]) == _bits(want_cos) and _bits(sin_psi[i]) == _bits(want_sin), m


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cfg=far_configs,
       ms=st.lists(st.integers(1, 10**6), min_size=1, max_size=12))
def test_block_row_does_not_depend_on_its_neighbours(data, cfg, ms):
    xs = np.array([cfg.a, cfg.b, data.draw(st.floats(cfg.a, cfg.b))])
    neighbours = data.draw(st.permutations(ms + data.draw(st.lists(st.integers(1, 10**6), max_size=6))))
    whole = spectral._basis_block(cfg, neighbours, xs)
    for m in ms:
        alone = spectral._basis_block(cfg, [m], xs)
        i = neighbours.index(m)
        assert alone[0] == [whole[0][i]]
        assert _bits(alone[1][0]) == _bits(whole[1][i]) and _bits(alone[2][0]) == _bits(whole[2][i])


def _per_mode_coeffs(f, N, cfg, spec):
    """(f, z_mode) for m <= N as one checked ``basis_eval`` sum per mode and branch."""
    nodes, weights = composite_rule(cfg, spec)
    wf = weights * np.asarray(f(nodes))
    return [[np.sum(wf * basis_eval(cfg, Mode(m, branch), nodes)) for m in range(1, N + 1)]
            for branch in (Branch.COS, Branch.SIN)]


@settings(max_examples=40, deadline=None)
@given(cfg=far_configs, spec=rules, N=st.sampled_from([1, 15, 16, 17, 33]), complex_valued=st.booleans())
def test_classical_coeffs_equal_the_per_mode_basis_eval_sums(cfg, spec, N, complex_valued):
    if complex_valued:
        mid = (cfg.a + cfg.b) / 2
        f = FunctionHandle((lambda x: np.exp(1j * (x - mid)) + 0.5 * (x - mid),))
    else:
        f = catalog.resolve("offset-cosine").handle(cfg)
    cv = classical_coeffs(f, N, cfg, spec)
    want_cos, want_sin = _per_mode_coeffs(f, N, cfg, spec)
    assert _bits(cv.cos_coeffs) == _bits(np.array(want_cos, dtype=complex))
    assert _bits(cv.sin_coeffs) == _bits(np.array(want_sin, dtype=complex))


def test_zero_polynomial_and_scalar_points_keep_their_shapes():
    cfg = SpectralConfig(-3.25, 0.5, 1.5)
    grid = np.array([[cfg.a, -1.0, cfg.b], [0.0, cfg.a, 0.25]])
    zero = TrigPolynomial.zero(cfg)
    p = TrigPolynomial(cfg, {Mode(3, Branch.COS): 2.0, Mode(3, Branch.SIN): -1.0, Mode(40, Branch.SIN): 0.5})
    for j in (0, 1, 4):
        assert np.ndim(zero.evaluate(cfg.a, j)) == 0 and zero.evaluate(cfg.a, j) == 0.0
        assert zero.evaluate(grid, j).shape == grid.shape and not np.any(zero.evaluate(grid, j))
        assert np.ndim(p.evaluate(0.25, j)) == 0 and p.evaluate(grid, j).shape == grid.shape
        assert isinstance(basis_eval(cfg, Mode(40, Branch.SIN), 0.25, j), float)
        assert basis_eval(cfg, Mode(40, Branch.SIN), grid, j).shape == grid.shape
    omegas, cos_psi, sin_psi = spectral._basis_block(cfg, [], grid)
    assert omegas == [] and cos_psi.shape == sin_psi.shape == (0, 2, 3)


def test_classical_coeffs_take_blocks_not_per_mode_basis_eval(monkeypatch):
    calls = []
    basis_eval_ = spectral.basis_eval
    counting = lambda *a, **kw: calls.append(a) or basis_eval_(*a, **kw)  # noqa: E731
    monkeypatch.setattr(spectral, "basis_eval", counting)
    monkeypatch.setattr(expansion, "basis_eval", counting, raising=False)
    cfg = SpectralConfig(7.5, 10.3, 0.5)
    f = catalog.resolve("offset-cosine").handle(cfg)
    classical_coeffs(f, 1, cfg)  # the rule cached before measuring
    tracemalloc.start()
    try:
        cv = classical_coeffs(f, 512, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cv.size == 512 and calls == []
    assert peak < 1.5 * 2**20  # one block of all 512 modes would take about 15 MiB


def test_direct_ladder_coefficient_memory_is_bounded_by_the_mode_blocks():
    cfg = SpectralConfig(0.0, math.pi, 1.0)
    f = catalog.resolve("sawtooth").handle(cfg)
    leftdef_coeffs(f, 1, 1, cfg, method="direct")  # the rule cached before measuring
    tracemalloc.start()
    try:
        cv = leftdef_coeffs(f, 4000, 1, cfg, method="direct")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cv.size == 4000
    assert peak < 4 * 2**20  # one side over all 8,000 basis functions took about 120 MiB


@pytest.mark.parametrize("a, b, k", [(0.0, math.pi, 1.0), (7.5, 10.3, 0.5), (-2.5, 0.75, 2.2)])
def test_direct_ladder_coefficients_equal_one_stacked_sum(a, b, k):
    cfg, spec = SpectralConfig(a, b, k), QuadratureSpec()
    modes = mode_sequence(40)  # three blocks of modes
    for name in ("sawtooth", "offset-cosine"):
        f = catalog.resolve(name).handle(cfg)
        for n in (1, 2, 3):
            basis = quadrature._basis_side(modes, ladder._ladder_scales(modes, n, cfg), cfg, spec)
            row = quadrature._ladder_matrix(quadrature._function_side(f, cfg, spec), basis, n, cfg, spec)[0]
            cv = leftdef_coeffs(f, 40, n, cfg, spec, method="direct")
            assert cv.cos_coeffs.tobytes() == row[0::2].tobytes(), (name, n)
            assert cv.sin_coeffs.tobytes() == row[1::2].tobytes(), (name, n)


def test_evaluation_memory_is_bounded_by_the_mode_blocks():
    cfg = SpectralConfig(-3.25, 0.5, 1.5)
    terms = {Mode(m, branch): 1.0 / m for m in range(1, 257) for branch in Branch}
    p = TrigPolynomial(cfg, terms)
    assert len(p) == 512
    xs = np.linspace(cfg.a, cfg.b, 10_000)
    tracemalloc.start()
    try:
        values = p.evaluate(xs, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == xs.shape
    assert peak < 24 * 2**20  # one block of all 256 modes took about 120 MiB


@settings(max_examples=40, deadline=None)
@given(cfg=far_configs, N=st.integers(1, 40))
def test_basis_boundary_suite_equals_the_public_defect(cfg, N):
    [row] = verify.suite_basis_boundary(cfg, QuadratureSpec(), {"modes": N})
    want = max(boundary_antisymmetry_defect(basis_polynomial(cfg, Mode(m, branch)), cfg, order)
               for m in range(1, N + 1) for branch in Branch for order in range(7))
    assert struct.pack("<d", row["observed"]) == struct.pack("<d", want)


def test_basis_boundary_suite_walks_the_modes_once(monkeypatch):
    calls = []
    block = spectral._basis_block
    monkeypatch.setattr(spectral, "_basis_block", lambda cfg, ms, xs: calls.append(list(ms)) or block(cfg, ms, xs))
    rows = verify.suite_basis_boundary(SpectralConfig(-2.5, 0.75, 2.2), QuadratureSpec(), verify.default_params())
    assert all(row["passed"] for row in rows)
    assert calls == [list(range(1, 9))]
