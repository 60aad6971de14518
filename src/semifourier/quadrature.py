"""Deterministic composite Gauss-Legendre integration on [a, b].

A fixed rule (panel count and nodes per panel) is used for every integral;
there is no adaptivity, so repeated runs are bit-identical.  The rule with q
nodes per panel integrates polynomials of degree <= 2q - 1 exactly on each
panel.  The default budget (64 panels x 10 nodes) is sized for products of
basis functions up to mode index around 40 together with smooth factors.

Basis functions reach a rule's nodes as sides: functions of the derivative
order j that return one row of values per function.  ``_basis_side`` stacks
scale * z_mode for a list of modes and real scales, with the waves of each
distinct mode index taken from one ``_basis_blocks`` walk (``_grid_waves``)
and each row bit-equal to ``_on_grid`` of the one-term polynomial.
``_on_grid`` takes a trig polynomial's waves the same way, once per call,
and sums them for every order with ``TrigPolynomial._combine``, the
summation loop of ``TrigPolynomial.evaluate``; so its values are
bit-identical to ``evaluate`` and to a sum of ``basis_eval(cfg, mode,
nodes, j)`` columns.

Outside a verify run nothing is kept between calls: a library call holds
its waves only while it runs, so a direct ladder coefficient vector at
large N or a fresh config per call leaves nothing behind.  ``verify``
evaluates the same modes on the same rule in many suites, so
``run_suites`` opens ``_wave_memo`` for the length of the run and every
``_grid_waves`` call in it reads the rows of a mode index walked before on
the same grid.  A row does not depend on the other modes of its block, so
a memo row is the row a fresh walk gives, bit for bit; the rows are
read-only.

``_ladder_matrix`` is the one place that forms the ladder sum
sum_j C(n, j) k**(n-j) * integral f^(j) conj(g^(j)) on the nodes, one array
over all pairs of rows of two sides; n = 0 is the L2 inner product.  Every
quadrature-route inner product goes through it: the Gram matrices of the
orthonormality suite, ``l2_inner``, ``leftdef_inner`` (one function as a
one-row side, ``_function_side``), ``operator_matrix``, direct ladder
coefficients and the expansion errors of a handle, whose residual is its
grid values minus the partial sum's.  A side passed as both fs and gs (a
Gram matrix, a residual, the one side of (f, f)) is evaluated once per
order.  Each order is one ``np.einsum`` contraction over all pairs.  An
entry does not depend on the other rows of the call, so it equals the same
sum taken on its pair alone bit for bit (while each side is all real or
all complex), and it lies within the rounding bound 2 gamma_(N+n+4) sum_j
C(n, j) k**(n-j) sum_i w_i |f^(j)(x_i)| |g^(j)(x_i)| of any other
summation order, such as an ``integrate`` per entry (N nodes, gamma_m = m u
/ (1 - m u)).  Products are searched for a non-finite node only when a sum
is not finite.  Pointwise evaluation and ``classical_coeffs`` take no side.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InvalidConfigError, NonFiniteIntegrandError
from .spectral import (
    SpectralConfig,
    TrigPolynomial,
    _basis_blocks,
    _check_integer,
    _derivative_wave,
    _values_on,
    derivative_evaluator,
    eigenvalue,
)

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "integrate",
    "l2_inner",
    "composite_rule",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre rule: panel count and nodes per panel.

    abs_tol is not read by the rule; verify's error-tail check takes its
    tolerance from it.
    """

    panels: int = 64
    nodes_per_panel: int = 10
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        panels = _check_integer(self.panels, 1, InvalidConfigError, "panels")
        nodes = _check_integer(self.nodes_per_panel, 2, InvalidConfigError, "nodes_per_panel")
        if not (isinstance(self.abs_tol, (int, float)) and math.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise InvalidConfigError(f"abs_tol must be positive and finite, got {self.abs_tol!r}")
        object.__setattr__(self, "panels", panels)
        object.__setattr__(self, "nodes_per_panel", nodes)
        object.__setattr__(self, "abs_tol", float(self.abs_tol))


DEFAULT_QUADRATURE = QuadratureSpec()


@lru_cache(maxsize=None)
def _reference_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=32)  # verify uses 5 per interval: its rule and the four probe rules
def _composite_rule(a: float, b: float, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _reference_rule(order)
    h = (b - a) / panels
    starts = a + h * np.arange(panels)
    nodes = (starts[:, None] + (x[None, :] + 1.0) * (h / 2.0)).ravel()
    weights = np.tile(w * (h / 2.0), panels)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def composite_rule(cfg: SpectralConfig, spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Nodes and weights of the composite rule on [a, b] (read-only arrays)."""
    return _composite_rule(cfg.a, cfg.b, spec.panels, spec.nodes_per_panel)


# Inside ``_wave_memo``: grid (a, b, panels, nodes_per_panel) -> {m: grid waves of m}.
_WAVE_MEMO: ContextVar[dict | None] = ContextVar("_WAVE_MEMO", default=None)


@contextmanager
def _wave_memo():
    """Share the waves of every ``_grid_waves`` call made inside; all dropped on exit."""
    token = _WAVE_MEMO.set({})
    try:
        yield
    finally:
        _WAVE_MEMO.reset(token)


def _grid_waves(cfg: SpectralConfig, spec: QuadratureSpec, ms) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """omega_m, cos(omega_m x) and sin(omega_m x) on the rule's nodes for each m in ms.

    The distinct indices not yet walked on this grid are walked once, in
    first-seen order, through ``_basis_blocks``; the rows are read-only.
    Inside ``_wave_memo`` they are kept for later calls on the same grid,
    outside it for this call only.
    """
    memo = _WAVE_MEMO.get()
    rows = {} if memo is None else memo.setdefault((cfg.a, cfg.b, spec.panels, spec.nodes_per_panel), {})
    missing = [m for m in dict.fromkeys(ms) if m not in rows]
    nodes, _ = composite_rule(cfg, spec)
    walked = (row for block in _basis_blocks(cfg, missing, nodes) for row in zip(*block))
    for m, (omega, cos_row, sin_row) in zip(missing, walked):
        cos_row.flags.writeable = False
        sin_row.flags.writeable = False
        rows[m] = omega, cos_row, sin_row
    return [rows[m] for m in ms]


def _on_grid(f, cfg: SpectralConfig, spec: QuadratureSpec) -> Callable[[int], np.ndarray]:
    """j -> values of the j-th derivative of f on the rule's nodes.

    A trig polynomial on this interval takes its waves from one
    ``_grid_waves`` call and sums them with ``TrigPolynomial._combine`` for
    each j; anything else is evaluated.
    """
    nodes, _ = composite_rule(cfg, spec)
    if isinstance(f, TrigPolynomial) and (f.config.a, f.config.b) == (cfg.a, cfg.b):
        rows = _grid_waves(cfg, spec, f._mode_indices())
        return lambda j: f._combine(nodes.shape, rows, j)
    return lambda j: _values_on(derivative_evaluator(f, j), nodes)


def _function_side(f, cfg: SpectralConfig, spec: QuadratureSpec) -> Callable[[int], np.ndarray]:
    """``_on_grid`` of f as a one-row side of ``_ladder_matrix``."""
    grid = _on_grid(f, cfg, spec)
    return lambda j: grid(j)[None]


def _basis_side(modes, scales, cfg: SpectralConfig, spec: QuadratureSpec) -> Callable[[int], np.ndarray]:
    """j -> the j-th derivative of scale * z_mode on the rule's nodes, one row per mode.

    The waves of the distinct mode indices come from one ``_grid_waves``
    call, which a verify run serves from its memo.  A row is scale *
    ``_derivative_wave`` + 0.0, the bits of ``_on_grid`` of the one-term
    polynomial, whose ``_combine`` adds the term to a zero accumulator, so a
    -0.0 product reads +0.0.
    """
    nodes, _ = composite_rule(cfg, spec)
    waves = _grid_waves(cfg, spec, [mode.m for mode in modes])

    def side(j: int) -> np.ndarray:
        values = np.empty((len(modes), nodes.size))
        for row, mode, scale, wave in zip(values, modes, scales, waves):
            np.multiply(scale, _derivative_wave(cfg, mode.branch, *wave, j), out=row)
        values += 0.0
        return values

    return side


def integrate(g: Callable, cfg: SpectralConfig, spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Composite Gauss-Legendre approximation of the integral of g over [a, b].

    Parameters
    ----------
    g : callable
        Real- or complex-valued integrand; should accept numpy arrays.
    cfg : SpectralConfig
        Supplies the interval.
    spec : QuadratureSpec, optional
        Rule parameters.

    Returns
    -------
    float or complex
        Weighted node sum in a fixed order (numpy pairwise summation), so
        the result is deterministic for a given spec.

    Raises
    ------
    NonFiniteIntegrandError
        If g produces NaN or infinity at any node.
    """
    return _weighted_sum(_values_on(g, composite_rule(cfg, spec)[0]), cfg, spec)


def _require_finite(values: np.ndarray, nodes: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        bad = np.broadcast_to(nodes, values.shape)[~np.isfinite(values)]
        raise NonFiniteIntegrandError(
            f"integrand not finite at node x={float(bad[0])!r}"
        )


def _weighted_sum(values: np.ndarray, cfg: SpectralConfig, spec: QuadratureSpec):
    """sum(weights * values) over the rule's nodes, after the finite check."""
    nodes, weights = composite_rule(cfg, spec)
    _require_finite(values, nodes)
    total = np.sum(weights * values)
    if np.iscomplexobj(values):
        return complex(total)
    return float(total)


def l2_inner(f, g, cfg: SpectralConfig, spec: QuadratureSpec = DEFAULT_QUADRATURE, *,
             force_quadrature: bool = False) -> complex:
    """L2 inner product (f, g) = integral of f * conj(g) over [a, b].

    For a pair of trig polynomials the value is computed exactly from the
    coefficients (the basis is orthonormal); every other combination goes
    through quadrature.  ``force_quadrature=True`` takes the quadrature
    route unconditionally, which verification code uses as an independent
    cross-check of the coefficient path.
    """
    return _inner(f, g, 0, cfg, spec, force_quadrature)


def _inner(f, g, n: int, cfg: SpectralConfig, spec: QuadratureSpec, force_quadrature: bool) -> complex:
    """(f, g)_n for an integer n >= 0, where n = 0 is the L2 inner product.

    A pair of trig polynomials is summed as sum_m lambda_m**n f_m conj(g_m)
    over f's modes unless ``force_quadrature`` is set; anything else is
    ``_ladder_matrix`` on the rule's nodes, where (f, f) passes one side
    as both.
    """
    if isinstance(f, TrigPolynomial) and isinstance(g, TrigPolynomial) and not force_quadrature:
        for p in (f, g):
            if p.config != cfg:
                raise InvalidConfigError(
                    f"trig polynomial config {p.config} does not match requested config {cfg}"
                )
        total = 0j
        for mode, coeff in f.items():
            other = g.coefficient(mode)
            if other != 0:
                if n:
                    coeff = eigenvalue(cfg, mode.m) ** n * coeff
                total += coeff * other.conjugate()
        return total
    fs = _function_side(f, cfg, spec)
    gs = fs if g is f else _function_side(g, cfg, spec)
    return complex(_ladder_matrix(fs, gs, n, cfg, spec)[0, 0])


def _norm(sq: complex) -> float:
    """sqrt of the real part of a squared norm, a negative rounding read as 0."""
    return math.sqrt(max(sq.real, 0.0))


def _ladder_matrix(fs: Callable[[int], np.ndarray], gs: Callable[[int], np.ndarray], n: int,
                   cfg: SpectralConfig, spec: QuadratureSpec) -> np.ndarray:
    """(f_p, g_q)_n by quadrature for every pair of rows, as a complex array.

    fs and gs are sides: functions of j giving the j-th derivatives of their
    functions on the rule's nodes, one row each (``_basis_side``,
    ``_function_side``, or a residual).  Entry (p, q) is sum_j C(n, j)
    k**(n-j) * integral f_p^(j) conj(g_q^(j)), accumulated from zero in
    ascending j; n = 0 is the L2 inner product.  Per order, the f rows meet
    the conj(g) rows in one contraction (``_add_order``).  Each entry is
    summed on its own, so it is bit-equal to the 1 x 1 call on its pair
    while each side is all real or all complex (callers pass a real basis or
    one function; a mixed side sums as complex), and it is within the
    rounding bound of the module docstring of an ``integrate`` per entry.
    When fs is gs (a Gram matrix, or a residual against itself) each order
    is evaluated once and serves as both sides.  A side with no rows gives
    an empty matrix.
    """
    nodes, weights = composite_rule(cfg, spec)
    total = 0j
    for j in range(n + 1):
        total = _add_order(total, fs, gs, j, math.comb(n, j) * cfg.k ** (n - j), nodes, weights)
    return total


def _add_order(total, fs: Callable[[int], np.ndarray], gs: Callable[[int], np.ndarray], j: int,
               weight: float, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """total + weight * integral f_p^(j) conj(g_q^(j)), one contraction for all pairs.

    The g rows are evaluated and conjugated before the f rows are
    evaluated, and only their conjugate is kept; when fs is gs one
    evaluation serves both.  ``np.einsum`` sums over the nodes for every
    pair in its own loop, with no BLAS call, so no thread pool starts.  A
    non-finite product makes its weighted sum non-finite (the weights are
    positive), so the products are formed and searched for the offending
    node, in (p, q, node) order, only when a sum is not finite.  The
    order's values are released on return.
    """
    f_values = gs(j)  # the g values until fs is evaluated
    g_conj = np.conjugate(f_values)
    if fs is not gs:
        f_values = fs(j)
    sums = np.einsum("pn,qn->pq", f_values * weights, g_conj)
    if not np.isfinite(sums).all():
        _require_finite(f_values[:, None, :] * g_conj, nodes)
    return total + weight * sums
