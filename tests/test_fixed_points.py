"""A function's values at a fixed point set against ``TrigPolynomial.evaluate``.

``quadrature._on_points`` serves both fixed point sets, the endpoints [a, b]
(``_endpoint_values``) and the rule's nodes (``integrate``), from the waves
of one walk, and inside ``_wave_memo`` from rows kept since an earlier call.
Either way a trig polynomial's values must be the bits ``evaluate`` gives at
the same points; a polynomial on another interval is evaluated directly.
"""

import contextlib
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semifourier import Branch, Mode, QuadratureSpec, SpectralConfig, TrigPolynomial, integrate
from semifourier import quadrature
from semifourier.quadrature import _endpoint_values, _weighted_sum, composite_rule

# Offsets up to |a| of 1e5 against lengths down to 1e-3.
configs = st.builds(
    lambda a, length, k: SpectralConfig(a, a + length, k),
    st.one_of(st.floats(-10.0, 10.0), st.floats(1e2, 1e5), st.floats(-1e5, -1e2)),
    st.floats(1e-3, 20.0),
    st.floats(1e-2, 1e2),
)
rules = st.builds(QuadratureSpec, panels=st.integers(1, 12), nodes_per_panel=st.integers(2, 12))
real_coefficients = st.builds(complex, st.floats(-10.0, 10.0))
complex_coefficients = st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))


def polynomials(cfg):
    modes = st.builds(Mode, st.integers(1, 64), st.sampled_from(Branch))
    terms = st.one_of(st.dictionaries(modes, real_coefficients, max_size=8),
                      st.dictionaries(modes, complex_coefficients, max_size=8))
    return terms.map(lambda t: TrigPolynomial(cfg, t))


def _bits(values) -> bytes:
    return np.asarray(values).tobytes()


def _assert_equals_evaluate(p, cfg, spec, j):
    nodes, _ = composite_rule(cfg, spec)
    ends = _endpoint_values(p, cfg, j)
    want = p.evaluate([cfg.a, cfg.b], j)
    assert ends == want.tolist()
    assert _bits(ends) == _bits(want), j
    got = integrate(p, cfg, spec)
    want = _weighted_sum(p.evaluate(nodes), cfg, spec)
    assert got == want
    assert _bits(got) == _bits(want)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cfg=configs, spec=rules, j=st.integers(0, 6), memo=st.booleans())
def test_fixed_point_values_equal_evaluate(data, cfg, spec, j, memo):
    p = data.draw(polynomials(cfg))
    with quadrature._wave_memo() if memo else contextlib.nullcontext():
        for _ in range(2):  # inside the memo the second pass reads kept rows
            _assert_equals_evaluate(p, cfg, spec, j)


def test_polynomial_on_another_interval_is_evaluated(monkeypatch):
    cfg = SpectralConfig(0.0, math.pi, 1.0)
    wider = SpectralConfig(-1.0, 2.0 * math.pi, 1.0)
    p = TrigPolynomial(wider, {Mode(1, Branch.COS): 0.5, Mode(3, Branch.SIN): 2j})

    def no_walk(*args):
        raise AssertionError("a polynomial on another interval has no waves on this one")

    monkeypatch.setattr(quadrature, "_waves_on", no_walk)
    for j in range(4):
        _assert_equals_evaluate(p, cfg, QuadratureSpec(panels=4, nodes_per_panel=5), j)
