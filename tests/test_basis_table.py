"""The quadrature basis table against direct basis evaluation.

The table must reproduce ``basis_eval`` on the rule's nodes bit for bit, and
the quadrature route of the inner products must equal, exactly, the sum
built from ``basis_eval`` values and ``integrate``.
"""

import math
import tracemalloc
from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semifourier import (
    Branch,
    Mode,
    QuadratureSpec,
    SpectralConfig,
    TrigPolynomial,
    basis_eval,
    basis_polynomial,
    domain_indicator,
    fundamental_relation_defect,
    in_v_space,
    integrate,
    l2_inner,
    leftdef_coeffs,
    leftdef_inner,
    mode_sequence,
    operator_matrix,
    scaled_basis,
)
from semifourier import quadrature
from semifourier.quadrature import composite_rule
from semifourier.spectral import _derivative_wave, apply_ell

# Offsets reach |a| of 1e5 against lengths down to 1e-3.
configs = st.builds(
    lambda a, length, k: SpectralConfig(a, a + length, k),
    st.one_of(st.floats(-10.0, 10.0), st.floats(-1e5, 1e5)),
    st.floats(1e-3, 20.0),
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
    for m in range(1, M + 1):
        omega, cos_psi, sin_psi = quadrature._basis_row(cfg, spec, m)
        for branch in Branch:
            mode = Mode(m, branch)
            column = _derivative_wave(cfg, branch, omega, cos_psi, sin_psi, j)
            assert np.array_equal(column, basis_eval(cfg, mode, nodes, j)), (mode, j)


def _reference_values(p: TrigPolynomial, j: int, nodes: np.ndarray) -> np.ndarray:
    acc = np.zeros(nodes.shape, dtype=complex)
    for mode, coeff in p.items():
        acc = acc + coeff * basis_eval(p.config, mode, nodes, j)
    return acc.real if p.is_real else acc


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cfg=configs, spec=rules, n=st.integers(1, 4))
def test_quadrature_inner_products_equal_basis_eval_reference(data, cfg, spec, n):
    p = data.draw(trig_polynomials(cfg))
    q = data.draw(trig_polynomials(cfg))
    nodes, _ = composite_rule(cfg, spec)

    def reference_integral(j):
        values = _reference_values(p, j, nodes) * np.conjugate(_reference_values(q, j, nodes))
        return complex(integrate(lambda x: values, cfg, spec))

    want = 0j
    for j in range(n + 1):
        want += math.comb(n, j) * cfg.k ** (n - j) * reference_integral(j)
    assert leftdef_inner(p, q, n, cfg, spec, force_quadrature=True) == want
    assert l2_inner(p, q, cfg, spec, force_quadrature=True) == reference_integral(0)


def test_rows_are_reused_read_only_and_bounded():
    spec = QuadratureSpec(panels=3, nodes_per_panel=4)
    cfg = SpectralConfig(0.25, 1.5, 1.0)
    row = quadrature._basis_row(cfg, spec, 3)
    assert quadrature._basis_row(SpectralConfig(0.25, 1.5, 7.0), spec, 3) is row
    assert not row[1].flags.writeable and not row[2].flags.writeable
    for m in range(1, quadrature._BASIS_CACHE_VALUES // 12 + 50):
        quadrature._basis_row(cfg, spec, m)
    kept = sum(cos_psi.size for _, cos_psi, _ in quadrature._basis_rows.values())
    assert kept == quadrature._basis_rows_values <= quadrature._BASIS_CACHE_VALUES


def test_direct_coefficients_compute_each_row_once(monkeypatch):
    calls = []
    wave = quadrature._basis_wave
    monkeypatch.setattr(quadrature, "_basis_rows", OrderedDict())
    monkeypatch.setattr(quadrature, "_basis_rows_values", 0)
    monkeypatch.setattr(quadrature, "_basis_wave", lambda cfg, m, xs: calls.append(m) or wave(cfg, m, xs))
    cfg = SpectralConfig(-0.75, 0.5, 2.0)
    f = TrigPolynomial(cfg, {Mode(2, Branch.COS): 1.0, Mode(5, Branch.SIN): 0.5j})
    leftdef_coeffs(f, 12, 2, cfg, QuadratureSpec(panels=5, nodes_per_panel=7), method="direct")
    assert sorted(calls) == list(range(1, 13))


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
    operator_matrix(3, 8, cfg, force_quadrature=True)  # rows cached before measuring
    tracemalloc.start()
    try:
        operator_matrix(3, 8, cfg, force_quadrature=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 16 functions x 4 orders x 2 sides of 640-node vectors would be 1.3 MiB
    assert peak < 512 * 2**10
