"""Deterministic composite Gauss-Legendre integration on [a, b].

A fixed rule (panel count and nodes per panel) is used for every integral;
there is no adaptivity, so repeated runs are bit-identical.  The rule with q
nodes per panel integrates polynomials of degree <= 2q - 1 exactly on each
panel.  The default budget (64 panels x 10 nodes) is sized for products of
basis functions up to mode index around 40 together with smooth factors.

Trig polynomials are evaluated on a rule's nodes from a basis table: rows
holding cos(omega_m x) and sin(omega_m x) on the nodes, keyed by
(a, b, panels, nodes_per_panel, m).  A row is computed the first time a
polynomial with a term of mode index m is evaluated on that rule, so memory
follows the modes actually asked for, not the highest index.  The table
holds at most ``_BASIS_CACHE_VALUES`` node values per wave over all rules
and drops the least recently used rows first.  A derivative column is a
quarter-turn sign and branch swap of a row times sqrt(2/(b-a)) * omega_m**j,
made by the same ``_basis_wave`` and ``_derivative_wave`` that
``basis_eval`` uses, so it is bit-identical to
``basis_eval(cfg, mode, nodes, j)``.  The quadrature route of ``l2_inner``
and of the ladder inner products reads the table; endpoint and other
pointwise evaluation never does, and neither does ``classical_coeffs``.
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
    Mode,
    SpectralConfig,
    TrigPolynomial,
    _basis_wave,
    _derivative_wave,
    derivative_evaluator,
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
    """Composite Gauss-Legendre rule: panel count, nodes per panel, tolerance."""

    panels: int = 64
    nodes_per_panel: int = 10
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if isinstance(self.panels, bool) or not isinstance(self.panels, (int, np.integer)) or self.panels < 1:
            raise InvalidConfigError(f"panels must be a positive integer, got {self.panels!r}")
        if (
            isinstance(self.nodes_per_panel, bool)
            or not isinstance(self.nodes_per_panel, (int, np.integer))
            or self.nodes_per_panel < 2
        ):
            raise InvalidConfigError(f"nodes_per_panel must be an integer >= 2, got {self.nodes_per_panel!r}")
        if not (isinstance(self.abs_tol, (int, float)) and math.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise InvalidConfigError(f"abs_tol must be positive and finite, got {self.abs_tol!r}")
        object.__setattr__(self, "panels", int(self.panels))
        object.__setattr__(self, "nodes_per_panel", int(self.nodes_per_panel))
        object.__setattr__(self, "abs_tol", float(self.abs_tol))


DEFAULT_QUADRATURE = QuadratureSpec()


@lru_cache(maxsize=None)
def _reference_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
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
    global _basis_rows_values
    key = (cfg.a, cfg.b, spec.panels, spec.nodes_per_panel, m)
    with _basis_rows_lock:
        row = _basis_rows.get(key)
        if row is not None:
            _basis_rows.move_to_end(key)
            return row
    nodes, _ = composite_rule(cfg, spec)
    row = _basis_wave(cfg, m, nodes)
    row[1].flags.writeable = False
    row[2].flags.writeable = False
    with _basis_rows_lock:
        if key not in _basis_rows:
            _basis_rows[key] = row
            _basis_rows_values += nodes.size
        while _basis_rows_values > _BASIS_CACHE_VALUES:
            _, (_, dropped, _) = _basis_rows.popitem(last=False)
            _basis_rows_values -= dropped.size
    return row


def _grid_values(f, order: int, cfg: SpectralConfig, spec: QuadratureSpec) -> np.ndarray:
    """Values of the order-th derivative of f on the rule's nodes.

    A trig polynomial on this interval is summed from the basis table in the
    order of ``TrigPolynomial.evaluate``; anything else is evaluated.
    """
    nodes, _ = composite_rule(cfg, spec)
    if isinstance(f, TrigPolynomial) and (f.config.a, f.config.b) == (cfg.a, cfg.b):
        def column(mode: Mode) -> np.ndarray:
            omega, cos_psi, sin_psi = _basis_row(cfg, spec, mode.m)
            return _derivative_wave(cfg, mode.branch, omega, cos_psi, sin_psi, order)

        return f._combine(nodes.shape, column)
    return _values_on(derivative_evaluator(f, order), nodes)


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
        bad = nodes[~np.isfinite(values)]
        raise NonFiniteIntegrandError(
            f"integrand not finite at node x={float(np.ravel(bad)[0])!r}"
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
    if isinstance(f, TrigPolynomial) and isinstance(g, TrigPolynomial) and not force_quadrature:
        _check_config(f, cfg)
        _check_config(g, cfg)
        total = 0j
        for mode, coeff in f.items():
            other = g.coefficient(mode)
            if other != 0:
                total += coeff * other.conjugate()
        return total
    values = _grid_values(f, 0, cfg, spec) * np.conjugate(_grid_values(g, 0, cfg, spec))
    return complex(_weighted_sum(values, cfg, spec))


def _check_config(p: TrigPolynomial, cfg: SpectralConfig) -> None:
    if p.config != cfg:
        raise InvalidConfigError(
            f"trig polynomial config {p.config} does not match requested config {cfg}"
        )
