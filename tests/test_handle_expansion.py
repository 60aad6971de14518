"""The handle-expansion path computes each wave and each residual once.

``spectral._sincospi`` must give the bits of the two one-wave reductions it
replaced, kept verbatim below.  The ascending sweep of ``_expansion_errors``
must equal one ``expansion_error`` per checkpoint bit for bit while adding
each partial-sum term once per derivative order, a trig polynomial on the
rule's nodes must take its waves in blocks from one walk and give the bits
of ``TrigPolynomial.evaluate`` for every order, and a side passed to the
ladder sum as both of its sides, (f, f) among them, must be evaluated once
per order.  With no handle the errors are the stored coefficient tail.
Points outside [a, b], NaN among them, are rejected wherever they are
evaluated.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifourier import (
    Branch,
    FunctionHandle,
    Mode,
    NonFiniteIntegrandError,
    PointOutOfDomainError,
    QuadratureSpec,
    SpectralConfig,
    TrigPolynomial,
    basis_eval,
    boundary_antisymmetry_defect,
    catalog,
    classical_coeffs,
    expansion_error,
    l2_inner,
    leftdef_inner,
    mode_sequence,
    operator_matrix,
    quadrature,
    spectral,
)
from semifourier.cli import _checkpoints
from semifourier.expansion import _expansion_errors

far_configs = st.builds(
    lambda a, length, k: SpectralConfig(a, a + length, k),
    st.one_of(st.floats(1e2, 1e5), st.floats(-1e5, -1e2)),
    st.floats(1e-2, 10.0),
    st.floats(1e-2, 1e2),
)
rules = st.builds(QuadratureSpec, panels=st.integers(1, 12), nodes_per_panel=st.integers(2, 12))


# The two reductions ``_sincospi`` replaced, verbatim.
def _sinpi(t: np.ndarray) -> np.ndarray:
    """sin(pi * t), exact zero at every integer t."""
    r = np.fmod(np.asarray(t, dtype=float), 2.0)  # exact remainder
    r = np.where(r < 0.0, r + 2.0, r)
    sign = np.where(r > 1.0, -1.0, 1.0)
    r = np.where(r > 1.0, r - 1.0, r)
    r = np.where(r > 0.5, 1.0 - r, r)
    return sign * np.sin(np.pi * r)


def _cospi(t: np.ndarray) -> np.ndarray:
    """cos(pi * t), exact zero at every half-integer and exact +-1 at integers."""
    r = np.abs(np.fmod(np.asarray(t, dtype=float), 2.0))
    r = np.where(r > 1.0, 2.0 - r, r)
    sign = np.where(r > 0.5, -1.0, 1.0)
    r = np.where(r > 0.5, 1.0 - r, r)
    out = sign * np.cos(np.pi * r)
    return np.where(r == 0.5, 0.0, out)


def _assert_kernel_bits(t):
    t = np.asarray(t, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # fmod of NaN
        want_sin, want_cos = _sinpi(t), _cospi(t)
    sin, cos = spectral._sincospi(t)
    assert sin.shape == cos.shape == t.shape
    assert sin.tobytes() == want_sin.tobytes()
    assert cos.tobytes() == want_cos.tobytes()


def test_kernel_at_integers_half_integers_and_signed_zeros():
    steps = np.arange(-64, 65) / 2.0
    _assert_kernel_bits(np.concatenate([steps, [0.0, -0.0], np.nextafter(steps, 0.0), np.nextafter(steps, 3.0)]))


def test_kernel_just_below_zero():
    # points just below a, within the domain slack, give (2m - 1) * u in (-1e-9, 0)
    rng = np.random.default_rng(18)
    _assert_kernel_bits(np.concatenate([-rng.uniform(0.0, 1e-9, 2000), -np.geomspace(1e-300, 1e-9, 500)]))


def test_kernel_at_huge_tiny_and_nan_arguments():
    big = np.concatenate([2.0 ** np.arange(52, 60), [2.0**53 + 2, 2.0**52 + 0.5, 1e17, 1.5e300, np.finfo(float).max]])
    tiny = np.array([5e-324, 1e-320, 2.2250738585072009e-308, np.finfo(float).tiny])
    _assert_kernel_bits(np.concatenate([big, -big, tiny, -tiny, [np.nan, -np.nan]]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernel_on_block_grids(seed):
    rng = np.random.default_rng(seed)
    odd = (2 * rng.integers(1, 10**6, 16) - 1).astype(float)
    u = np.concatenate([[0.0, 1.0, -1e-12, 1.0 + 1e-12], rng.uniform(0.0, 1.0, 636)])
    _assert_kernel_bits(odd[:, None] * u)


def test_kernel_keeps_the_zeros_of_sine_and_cosine():
    sin, cos = spectral._sincospi(np.array([[-3.0, -2.0, 0.0, 1.0], [-1.5, -0.5, 0.5, 2.5]]))
    assert not np.any(sin[0]) and not np.any(cos[1])
    assert np.array_equal(cos[0], [-1.0, 1.0, 1.0, -1.0])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cfg=far_configs, spec=rules,
       name=st.sampled_from(["sawtooth", "offset-cosine"]), N=st.integers(1, 64),
       n=st.sampled_from([None, 1, 2, 3]))
def test_sweep_equals_one_expansion_error_per_checkpoint(data, cfg, spec, name, N, n):
    f = catalog.resolve(name).handle(cfg)
    cv = classical_coeffs(f, N, cfg, spec)
    Ms = sorted(data.draw(st.sets(st.integers(1, N), min_size=1, max_size=8)))
    got = _expansion_errors(f, cv, Ms, n, spec)
    assert len(got) == len(Ms)
    for M, errors in zip(Ms, got):
        want = [expansion_error(f, cv, M, None, spec)]
        if n is not None:
            want.append(expansion_error(f, cv, M, n, spec))
        assert np.array(errors).tobytes() == np.array(want).tobytes(), M


def test_sweep_adds_each_term_once_per_order(monkeypatch):
    cfg = SpectralConfig(-1.25, 1.5, 0.7)
    f = catalog.resolve("offset-cosine").handle(cfg)
    N, n = 128, 2
    cv = classical_coeffs(f, N, cfg)
    calls = []
    wave = spectral._derivative_wave
    monkeypatch.setattr(spectral, "_derivative_wave", lambda *a: calls.append(a[-1]) or wave(*a))
    _expansion_errors(f, cv, _checkpoints(N), n)
    for order in range(n + 1):
        assert 0 < calls.count(order) <= 2 * N
    assert set(calls) == set(range(n + 1))


def test_sweep_on_a_trig_polynomial_takes_the_coefficient_route():
    cfg = SpectralConfig(0.5, 3.25, 1.5)
    p = TrigPolynomial(cfg, {Mode(2, Branch.COS): 1.0, Mode(5, Branch.SIN): 0.5j})
    cv = classical_coeffs(p, 8, cfg)
    got = _expansion_errors(p, cv, [1, 4, 8], 2)
    assert got[0] == (expansion_error(p, cv, 1), expansion_error(p, cv, 1, 2))
    assert got[2] == (0.0, 0.0)


def test_trig_polynomial_on_grid_walks_its_modes_in_blocks(monkeypatch):
    calls = []
    block = spectral._basis_block
    monkeypatch.setattr(spectral, "_basis_block", lambda cfg, ms, xs: calls.append(list(ms)) or block(cfg, ms, xs))
    cfg = SpectralConfig(-0.75, 0.5, 2.0)
    spec = QuadratureSpec(panels=5, nodes_per_panel=7)
    p = TrigPolynomial(cfg, {Mode(m, Branch.SIN if m % 3 else Branch.COS): 1.0 / m for m in range(1, 41)})
    grid = quadrature._on_grid(p, cfg, spec)
    values = [grid(j) for j in range(3)]
    # every order sums the waves of the one walk
    assert calls == [list(range(1, 17)), list(range(17, 33)), list(range(33, 41))]
    nodes, _ = quadrature.composite_rule(cfg, spec)
    for j, got in enumerate(values):
        assert got.tobytes() == p.evaluate(nodes, j).tobytes(), j


def test_gram_matrix_evaluates_each_order_once():
    cfg = SpectralConfig(-0.5, 1.75, 1.5)
    spec = QuadratureSpec(panels=9, nodes_per_panel=6)
    calls = []
    basis = quadrature._basis_side(mode_sequence(3), [1.0] * 6, cfg, spec)

    def side(j):
        calls.append(j)
        return basis(j)

    gram = quadrature._ladder_matrix(side, side, 2, cfg, spec)
    assert calls == [0, 1, 2]
    assert gram.tobytes() == quadrature._ladder_matrix(lambda j: basis(j), basis, 2, cfg, spec).tobytes()


def test_self_inner_product_evaluates_each_order_once():
    cfg = SpectralConfig(-0.5, 1.75, 1.5)
    g = catalog.resolve("offset-cosine").handle(cfg)
    calls = []

    def counted(j):
        return lambda xs: calls.append(j) or g.deriv(j)(xs)

    h = FunctionHandle(tuple(counted(j) for j in range(4)))
    twin = FunctionHandle(g.derivatives)  # equal to g, but a second side
    # one side serves both, with the bits of two equal sides
    assert leftdef_inner(h, h, 3, cfg) == leftdef_inner(g, twin, 3, cfg)
    assert sorted(calls) == [0, 1, 2, 3]
    calls.clear()
    assert l2_inner(h, h, cfg) == l2_inner(g, twin, cfg)
    assert calls == [0]


def test_coefficient_only_entry_errors_are_the_stored_tail(cfg):
    cv = catalog.coeff_vector("synthetic:3.5", 64, cfg)
    Ms = _checkpoints(64)
    got = _expansion_errors(None, cv, Ms, 2)
    lam = cv.eigenvalues
    for M, errors in zip(Ms, got):
        tail = cv.power[M:]
        assert errors == (math.sqrt(float(np.sum(tail))), math.sqrt(float(np.sum(lam[M:] ** 2 * tail)))), M
    assert _expansion_errors(None, cv, Ms, None) == [e[:1] for e in got]
    assert expansion_error(None, cv, 4, 2) == got[2][1]


def test_finite_rows_skip_the_node_search(monkeypatch):
    calls = []
    require = quadrature._require_finite
    monkeypatch.setattr(quadrature, "_require_finite", lambda *a: calls.append(a) or require(*a))
    operator_matrix(2, 4, SpectralConfig(-0.5, 1.75, 1.5), force_quadrature=True)
    assert calls == []


def test_opposite_infinities_raise_at_the_first_bad_node():
    cfg = SpectralConfig(0.0, 1.0, 1.0)
    spec = QuadratureSpec(panels=2, nodes_per_panel=3)
    nodes, _ = quadrature.composite_rule(cfg, spec)
    values = np.ones(nodes.size)
    values[2:4] = [np.inf, -np.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf in the row sum
        with pytest.raises(NonFiniteIntegrandError, match=repr(float(nodes[2]))):
            quadrature._ladder_matrix(lambda j: values[None], lambda j: np.ones((1, nodes.size)), 0, cfg, spec)


def test_nan_points_are_outside_the_domain():
    cfg = SpectralConfig(0.0, math.pi, 1.0)
    p = TrigPolynomial(cfg, {Mode(1, Branch.COS): 1.0, Mode(2, Branch.SIN): 0.5})
    with pytest.raises(PointOutOfDomainError, match="nan"):
        basis_eval(cfg, Mode.cos(1), math.nan)
    with pytest.raises(PointOutOfDomainError, match="nan"):
        basis_eval(cfg, Mode.sin(3), np.array([0.5, math.nan]), 2)
    for x in (math.nan, [0.5, math.nan], [[0.5, 1.0], [math.nan, 2.0]]):
        with pytest.raises(PointOutOfDomainError, match="nan"):
            p.evaluate(x)
    # a handle that evaluates the polynomial at NaN fails instead of giving a NaN defect
    handle = FunctionHandle((lambda x: p.evaluate(x * math.nan),))
    with pytest.raises(PointOutOfDomainError, match="nan"):
        boundary_antisymmetry_defect(handle, cfg)
    with pytest.raises(PointOutOfDomainError, match="4.0"):
        p.evaluate([0.5, 4.0, math.nan])
    assert boundary_antisymmetry_defect(p, cfg, 3) == 0.0
