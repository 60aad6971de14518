"""Deterministic composite Gauss-Legendre integration on [a, b].

A fixed rule (panel count and nodes per panel) is used for every integral;
there is no adaptivity, so repeated runs are bit-identical.  The rule with q
nodes per panel integrates polynomials of degree <= 2q - 1 exactly on each
panel.  The default budget (64 panels x 10 nodes) is sized for products of
basis functions up to mode index around 40 together with smooth factors.

Trig polynomials are evaluated on a rule's nodes from a basis table: rows
holding cos(omega_m x) and sin(omega_m x) on the nodes, keyed by
(a, b, panels, nodes_per_panel, m).  ``_table_rows`` looks up a polynomial's
distinct modes at once; the rows it misses come from ``_basis_block`` over
at most ``_BLOCK_MODES`` of them at a time and are stored as copies, so no
row pins its block and memory follows the modes actually asked for, not the
highest index.  The table holds at most ``_BASIS_CACHE_VALUES`` node values
per wave over all rules and drops the least recently used rows first.
``_on_grid`` fetches the rows once and hands them, for every derivative
order, to ``TrigPolynomial._combine``, the same summation loop
``TrigPolynomial.evaluate`` feeds from ``_basis_blocks``; so the values are
bit-identical to ``evaluate`` and to a sum of ``basis_eval(cfg, mode, nodes,
j)`` columns.  The table stays, rather than a fresh block walk per call,
because verify evaluates the same few modes on the same rule many times.

``_ladder_matrix`` is the one place that forms the ladder sum
sum_j C(n, j) k**(n-j) * integral f^(j) conj(g^(j)) on the nodes, one array
over all pairs; n = 0 is the L2 inner product.  Every quadrature-route inner
product goes through it and reads trig polynomials from the table: the Gram
matrices of the orthonormality suite, ``l2_inner``, ``leftdef_inner``,
``operator_matrix``, direct ladder coefficients and the expansion errors of
a handle, whose residual is its grid values minus the partial sum's.  A
side passed as both fs and gs (a Gram matrix, a residual) is evaluated once
per order.  Each order is one ``np.einsum`` contraction over all pairs.  An
entry does not depend on the other rows of the call, so it equals the same
sum taken on its pair alone bit for bit (while each side is all real or all
complex), and it lies within the rounding bound 2 gamma_(N+n+4) sum_j
C(n, j) k**(n-j) sum_i w_i |f^(j)(x_i)| |g^(j)(x_i)| of any other summation
order, such as an ``integrate`` per entry (N nodes, gamma_m = m u / (1 - m
u)).  Products are searched for a non-finite node only when a sum is not
finite.  Pointwise evaluation never reads the table, and neither does
``classical_coeffs``.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    InvalidConfigError,
    NonFiniteIntegrandError,
    SemiFourierError,
)
from .spectral import (
    _BLOCK_MODES,
    SpectralConfig,
    TrigPolynomial,
    _basis_block,
    _check_integer,
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


@lru_cache(maxsize=32)  # a verify run uses about 15; every fresh interval adds one
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


# Most node values kept per wave over all cached basis rows, least recently
# used rows dropped first: 204 modes of the default 640-node rule, 2 MiB for
# the cos and sin waves together.
_BASIS_CACHE_VALUES = 1 << 17

_basis_rows: OrderedDict[tuple, tuple[float, np.ndarray, np.ndarray]] = OrderedDict()
_basis_rows_values = 0
_basis_rows_lock = threading.Lock()


def _basis_row(cfg: SpectralConfig, spec: QuadratureSpec, m: int) -> tuple[float, np.ndarray, np.ndarray]:
    """omega_m, cos(omega_m x) and sin(omega_m x) on the rule's nodes (read-only)."""
    return _table_rows(cfg, spec, [m])[0]


def _table_rows(cfg: SpectralConfig, spec: QuadratureSpec, ms) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """``_basis_row`` for each of the distinct mode indices ms, with one table lookup.

    The rows missing from the table are computed by ``_basis_block`` over at
    most ``_BLOCK_MODES`` of them at a time and stored as copies: a row kept
    as a view would hold its whole block alive.
    """
    global _basis_rows_values
    rule = (cfg.a, cfg.b, spec.panels, spec.nodes_per_panel)
    rows = {}
    with _basis_rows_lock:
        for m in ms:
            row = _basis_rows.get(rule + (m,))
            if row is not None:
                _basis_rows.move_to_end(rule + (m,))
                rows[m] = row
    missing = [m for m in ms if m not in rows]
    if not missing:
        return [rows[m] for m in ms]
    nodes, _ = composite_rule(cfg, spec)
    for start in range(0, len(missing), _BLOCK_MODES):
        chunk = missing[start:start + _BLOCK_MODES]
        for m, omega, cos_psi, sin_psi in zip(chunk, *_basis_block(cfg, chunk, nodes)):
            cos_psi, sin_psi = cos_psi.copy(), sin_psi.copy()
            cos_psi.flags.writeable = False
            sin_psi.flags.writeable = False
            rows[m] = (omega, cos_psi, sin_psi)
    with _basis_rows_lock:
        for m in missing:
            if rule + (m,) not in _basis_rows:
                _basis_rows[rule + (m,)] = rows[m]
                _basis_rows_values += nodes.size
        while _basis_rows_values > _BASIS_CACHE_VALUES:
            _, (_, dropped, _) = _basis_rows.popitem(last=False)
            _basis_rows_values -= dropped.size
    return [rows[m] for m in ms]


def _on_grid(f, cfg: SpectralConfig, spec: QuadratureSpec) -> Callable[[int], np.ndarray]:
    """j -> values of the j-th derivative of f on the rule's nodes.

    A trig polynomial on this interval fetches its table rows once and sums
    them with ``TrigPolynomial._combine`` for each j; anything else is
    evaluated.
    """
    nodes, _ = composite_rule(cfg, spec)
    if isinstance(f, TrigPolynomial) and (f.config.a, f.config.b) == (cfg.a, cfg.b):
        rows = _table_rows(cfg, spec, f._mode_indices())
        return lambda j: f._combine(nodes.shape, rows, j)
    return lambda j: _values_on(derivative_evaluator(f, j), nodes)


def _values_on(g: Callable, nodes: np.ndarray) -> np.ndarray:
    """Evaluate g on all nodes, falling back to a scalar loop when needed."""
    try:
        values = np.asarray(g(nodes))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, SemiFourierError):
            raise
        values = None
    if values is not None and values.shape == ():
        values = np.full(nodes.shape, values[()])
    if values is None or values.shape != nodes.shape:
        values = np.asarray([g(float(t)) for t in nodes])
    return values


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
    ``_ladder_matrix`` on the rule's nodes.
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
    return complex(_ladder_matrix([_on_grid(f, cfg, spec)], [_on_grid(g, cfg, spec)], n, cfg, spec)[0, 0])


def _ladder_matrix(fs: list, gs: list, n: int, cfg: SpectralConfig,
                   spec: QuadratureSpec) -> np.ndarray:
    """(f_p, g_q)_n by quadrature for every pair, as a complex len(fs) x len(gs) array.

    fs and gs hold functions of j giving the j-th derivative on the rule's
    nodes (``_on_grid``, or a residual of two of them).  Entry (p, q) is
    sum_j C(n, j) k**(n-j) * integral f_p^(j) conj(g_q^(j)), accumulated in
    ascending j; n = 0 is the L2 inner product.  Per order, the stacked f
    values meet the stacked conj(g) values in one contraction (``_add_order``).
    Each entry is summed on its own, so it is bit-equal to the 1 x 1 call on
    its pair while each side is all real or all complex (callers pass a real
    basis or one function; a mixed side sums as complex), and it is within
    the rounding bound of the module docstring of an ``integrate`` per entry.
    When fs is gs (a Gram matrix, or a residual against itself) each order
    is evaluated once and its column values serve as the row values.
    """
    nodes, weights = composite_rule(cfg, spec)
    total = np.zeros((len(fs), len(gs)), dtype=complex)
    if not total.size:  # no pair, nothing to stack
        return total
    for j in range(n + 1):
        _add_order(total, fs, gs, j, math.comb(n, j) * cfg.k ** (n - j), nodes, weights)
    return total


def _add_order(total: np.ndarray, fs: list, gs: list, j: int, weight: float,
               nodes: np.ndarray, weights: np.ndarray) -> None:
    """total[p, q] += weight * integral f_p^(j) conj(g_q^(j)), one contraction for all pairs.

    Each side is stacked once, the g values before any f row; when fs is gs
    one stack serves both.  ``np.einsum`` sums over the nodes for every
    pair in its own loop, with no BLAS call, so no thread pool starts.  A
    non-finite product makes its weighted sum non-finite (the weights are
    positive), so the products are formed and searched for the offending
    node, in (p, q, node) order, only when a sum is not finite.  The
    order's values are released on return.
    """
    g_values = np.array([g(j) for g in gs])
    f_values = g_values if fs is gs else np.array([f(j) for f in fs])
    sums = np.einsum("pn,qn->pq", f_values * weights, np.conjugate(g_values))
    if not np.isfinite(sums).all():
        _require_finite(f_values[:, None, :] * np.conjugate(g_values), nodes)
    total += weight * sums
