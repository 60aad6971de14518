"""Eigensystem of the anti-periodic Fourier operator on an interval.

The boundary value problem

    -y''(x) + k*y(x) = lambda * y(x),    a <= x <= b,
    y(a) = -y(b),   y'(a) = -y'(b),

with k > 0 has the purely discrete spectrum

    lambda_m = ((2m - 1) * pi / (b - a))**2 + k,    m = 1, 2, ...,

every eigenvalue of multiplicity two.  An orthonormal basis of L2(a, b) is
given by the eigenfunction pairs

    z_{m,cos}(x) = sqrt(2 / (b - a)) * cos((2m - 1) * pi * x / (b - a)),
    z_{m,sin}(x) = sqrt(2 / (b - a)) * sin((2m - 1) * pi * x / (b - a)),

whose derivatives of every order again satisfy the anti-periodic boundary
conditions.

This module supplies the eigenvalues (one at a time, or the first N as an
array through ``eigenvalues``, bit-equal to the scalar), pointwise
evaluation of the basis functions and their derivatives, finite linear
combinations of basis functions (:class:`TrigPolynomial`), explicit bundles
of derivative evaluators (:class:`FunctionHandle`), and the action of
integer powers of the differential expression ell[y] = -y'' + k*y.

Derivatives of the basis are produced by the exact quarter-turn phase cycle
cos -> -sin -> -cos -> sin, never by numerical differentiation.  Evaluation
is arranged so that the anti-symmetry z(a) = -z(b) holds exactly in floating
point at every derivative order; boundary defect checks rely on this.

Basis values at any points come from ``_basis_wave`` (the waves
cos(omega_m x) and sin(omega_m x) of one mode) and ``_derivative_wave`` (the
derivative cycle and normalization applied to them).  ``basis_eval`` and
``TrigPolynomial.evaluate`` evaluate through these two at arbitrary points;
``evaluate`` checks the derivative order and the domain once per call, not
once per term, and ``boundary_antisymmetry_defect`` evaluates a trig
polynomial at both endpoints in one call.  The quadrature layer keeps the
waves of each mode it meets on a rule's nodes as rows of a basis table (see
:mod:`semifourier.quadrature`) and applies the same ``_derivative_wave``, so
its columns are bit-identical to ``basis_eval`` on those nodes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import (
    DerivativeUnavailableError,
    InvalidConfigError,
    InvalidModeError,
    PointOutOfDomainError,
    SemiFourierError,
)

__all__ = [
    "SpectralConfig",
    "Branch",
    "Mode",
    "TrigPolynomial",
    "FunctionHandle",
    "angular_frequency",
    "angular_frequencies",
    "eigenvalue",
    "eigenvalues",
    "basis_eval",
    "basis_polynomial",
    "boundary_antisymmetry_defect",
    "apply_ell",
    "apply_ell_power",
    "ell_power_coefficients",
    "derivative_evaluator",
]

# Relative slack accepted when checking x in [a, b]; composite quadrature
# nodes may overshoot an endpoint by a few ulps.
_DOMAIN_SLACK = 1e-12


def _check_integer(value, minimum: int, error: type[SemiFourierError], name: str) -> int:
    """value as an int; error when it is a bool, not an integer, or below minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SpectralConfig:
    """Interval [a, b] and spectral shift k > 0 of the boundary value problem."""

    a: float
    b: float
    k: float

    def __post_init__(self) -> None:
        a, b, k = float(self.a), float(self.b), float(self.k)
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(k)):
            raise InvalidConfigError(f"a, b, k must be finite, got ({self.a}, {self.b}, {self.k})")
        if not b > a:
            raise InvalidConfigError(f"interval requires b > a, got a={a}, b={b}")
        if not k > 0:
            raise InvalidConfigError(f"spectral shift requires k > 0, got k={k}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "k", k)

    @property
    def length(self) -> float:
        return self.b - self.a


class Branch(enum.Enum):
    """Which member of the doubly degenerate eigenfunction pair."""

    COS = "cos"
    SIN = "sin"

    # members are singletons compared by identity; Enum.__hash__ is a Python
    # call, and every Mode hash goes through it
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Mode:
    """Eigenfunction label: 1-based index m and a cosine or sine branch."""

    m: int
    branch: Branch

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _check_integer(self.m, 1, InvalidModeError, "mode index"))
        if not isinstance(self.branch, Branch):
            raise InvalidModeError(f"unknown branch {self.branch!r}")

    @classmethod
    def cos(cls, m: int) -> "Mode":
        return cls(m, Branch.COS)

    @classmethod
    def sin(cls, m: int) -> "Mode":
        return cls(m, Branch.SIN)

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.m, 0 if self.branch is Branch.COS else 1)


def angular_frequency(cfg: SpectralConfig, m: int) -> float:
    """Frequency (2m - 1) * pi / (b - a) of the m-th eigenfunction pair."""
    m = _check_integer(m, 1, InvalidModeError, "mode index")
    return (2 * m - 1) * math.pi / (cfg.b - cfg.a)


def eigenvalue(cfg: SpectralConfig, m: int) -> float:
    """m-th eigenvalue omega_m**2 + k, of multiplicity two; one multiply squares, correctly rounded."""
    m = _check_integer(m, 1, InvalidModeError, "mode index")
    omega = (2 * m - 1) * math.pi / (cfg.b - cfg.a)
    return omega * omega + cfg.k


def angular_frequencies(cfg: SpectralConfig, N: int) -> np.ndarray:
    """omega_1, ..., omega_N as an array, bit-equal to ``angular_frequency``."""
    N = _check_integer(N, 1, InvalidModeError, "mode count")
    return (2 * np.arange(1, N + 1) - 1) * math.pi / (cfg.b - cfg.a)


def eigenvalues(cfg: SpectralConfig, N: int) -> np.ndarray:
    """lambda_1, ..., lambda_N as an array, bit-equal to ``eigenvalue`` (same operations)."""
    omega = angular_frequencies(cfg, N)
    return omega * omega + cfg.k


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


def _check_domain(cfg: SpectralConfig, xs: np.ndarray) -> None:
    slack = _DOMAIN_SLACK * max(1.0, abs(cfg.a), abs(cfg.b))
    if np.any(xs < cfg.a - slack) or np.any(xs > cfg.b + slack):
        bad = xs[(xs < cfg.a - slack) | (xs > cfg.b + slack)]
        raise PointOutOfDomainError(
            f"evaluation point {float(np.ravel(bad)[0])!r} outside [{cfg.a}, {cfg.b}]"
        )


def basis_eval(cfg: SpectralConfig, mode: Mode, x, deriv_order: int = 0):
    """Evaluate the j-th derivative of an L2-normalized eigenfunction.

    Parameters
    ----------
    cfg : SpectralConfig
        Interval and shift.
    mode : Mode
        Eigenfunction label (index and branch).
    x : float or array_like
        Points inside [a, b].
    deriv_order : int, optional
        Derivative order j >= 0.

    Returns
    -------
    float or ndarray
        sqrt(2/(b-a)) * omega**j * cycle_j(omega * x), where the cycle walks
        cos -> -sin -> -cos -> sin per derivative for the cosine branch and
        correspondingly for the sine branch.

    Notes
    -----
    The oscillatory factor is evaluated through an exact reduction of
    (2m-1) * (x-a)/(b-a) modulo 2, so values at x = a and x = b are exact
    negatives of each other at every derivative order.
    """
    deriv_order = _check_integer(deriv_order, 0, DerivativeUnavailableError, "derivative order")
    if not isinstance(mode, Mode):
        raise InvalidModeError(f"expected a Mode, got {mode!r}")

    xs = np.asarray(x, dtype=float)
    _check_domain(cfg, xs)
    omega, cos_psi, sin_psi = _basis_wave(cfg, mode.m, xs)
    out = _derivative_wave(cfg, mode.branch, omega, cos_psi, sin_psi, deriv_order)
    if np.ndim(x) == 0:
        return float(out)
    return out


def _basis_wave(cfg: SpectralConfig, m: int, xs: np.ndarray):
    """omega_m and the waves cos(omega_m x), sin(omega_m x) at the points xs.

    (2m-1) * (x-a)/(b-a) is reduced exactly modulo 2 and the result rotated
    by the phase omega_m * a, so the waves at x = a and x = b are exact
    negatives of each other.
    """
    big_m = 2 * m - 1
    u = (xs - cfg.a) / (cfg.b - cfg.a)  # u = 1.0 exactly at x = b
    base_cos = _cospi(big_m * u)
    base_sin = _sinpi(big_m * u)

    omega = angular_frequency(cfg, m)
    phase = omega * cfg.a
    pc, ps = math.cos(phase), math.sin(phase)
    cos_psi = base_cos * pc - base_sin * ps  # cos(omega * x)
    sin_psi = base_sin * pc + base_cos * ps  # sin(omega * x)
    return omega, cos_psi, sin_psi


def _derivative_wave(cfg: SpectralConfig, branch: Branch, omega: float,
                     cos_psi: np.ndarray, sin_psi: np.ndarray, deriv_order: int) -> np.ndarray:
    """sqrt(2/(b-a)) * omega**j * cycle_j of cos(omega x), sin(omega x).

    The quarter-turn cycle cos -> -sin -> -cos -> sin only swaps the branch
    and flips the sign, both exact, so the result depends on the waves and
    the scalar factor alone.
    """
    q = (deriv_order + (3 if branch is Branch.SIN else 0)) % 4
    wave = sin_psi if q % 2 else cos_psi
    if q in (1, 2):
        wave = -wave
    return math.sqrt(2.0 / (cfg.b - cfg.a)) * omega**deriv_order * wave


class TrigPolynomial:
    """Finite linear combination of the normalized eigenfunctions.

    The set of such combinations is closed under differentiation and under
    the differential expression ell[y] = -y'' + k*y, both of which act
    exactly on the coefficients.  Coefficients may be complex.
    """

    __slots__ = ("config", "_terms")

    def __init__(self, config: SpectralConfig, terms: Mapping[Mode, complex] = ()) -> None:
        if not isinstance(config, SpectralConfig):
            raise InvalidConfigError(f"expected SpectralConfig, got {config!r}")
        cleaned: dict[Mode, complex] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mode, coeff in items:
            if not isinstance(mode, Mode):
                raise InvalidModeError(f"term keys must be Mode, got {mode!r}")
            c = complex(coeff)
            if c != 0:
                cleaned[mode] = cleaned.get(mode, 0j) + c
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "_terms", {k: v for k, v in cleaned.items() if v != 0})

    def __setattr__(self, name, value):  # immutable by convention
        raise AttributeError("TrigPolynomial is immutable")

    @classmethod
    def zero(cls, config: SpectralConfig) -> "TrigPolynomial":
        return cls(config, {})

    def items(self) -> Iterator[tuple[Mode, complex]]:
        """Terms in deterministic (m, branch) order."""
        return iter(sorted(self._terms.items(), key=lambda kv: kv[0].sort_key))

    def modes(self) -> tuple[Mode, ...]:
        return tuple(sorted(self._terms, key=lambda md: md.sort_key))

    def coefficient(self, mode: Mode) -> complex:
        return self._terms.get(mode, 0j)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def max_mode_index(self) -> int:
        return max((md.m for md in self._terms), default=0)

    @property
    def is_real(self) -> bool:
        return all(c.imag == 0.0 for c in self._terms.values())

    def evaluate(self, x, deriv_order: int = 0):
        """Pointwise value of the deriv_order-th derivative.

        Each term's column is ``basis_eval`` at the same points, taken from
        the same waves without repeating its order and domain checks.
        """
        deriv_order = _check_integer(deriv_order, 0, DerivativeUnavailableError, "derivative order")
        cfg = self.config
        xs = np.asarray(x, dtype=float)
        _check_domain(cfg, xs)
        acc = self._combine(xs.shape, lambda mode: _derivative_wave(
            cfg, mode.branch, *_basis_wave(cfg, mode.m, xs), deriv_order))
        if np.ndim(x) == 0:
            return acc[()] if acc.ndim == 0 else acc
        return acc

    def _combine(self, shape: tuple[int, ...], column: Callable[[Mode], np.ndarray]) -> np.ndarray:
        """sum_mode coeff * column(mode), summed in (m, branch) order.

        ``evaluate`` passes basis values at arbitrary points; the quadrature
        layer passes tabulated columns on its grid.  Both share this
        summation order, so equal columns give bit-equal values.  The
        result is real when every coefficient is.
        """
        acc = np.zeros(shape, dtype=complex)
        for mode, coeff in self.items():
            acc = acc + coeff * column(mode)
        if self.is_real:
            acc = acc.real
        return acc

    def __call__(self, x):
        return self.evaluate(x)

    def derivative(self, order: int = 1) -> "TrigPolynomial":
        """Exact derivative; the basis maps cos -> sin and back with omega factors.

        Each term takes its order quarter-turns on its own, c -> 0j + (-omega c)
        from cos and c -> 0j + omega c from sin, as repeated first derivatives
        would; a term that reaches zero is dropped at the end.
        """
        order = _check_integer(order, 0, DerivativeUnavailableError, "derivative order")
        terms: dict[Mode, complex] = {}
        for mode, coeff in self._terms.items():
            omega = angular_frequency(self.config, mode.m)
            branch = mode.branch
            for _ in range(order):
                if branch is Branch.COS:
                    branch, coeff = Branch.SIN, 0j + -omega * coeff
                else:
                    branch, coeff = Branch.COS, 0j + omega * coeff
            terms[Mode(mode.m, branch)] = coeff
        return TrigPolynomial(self.config, terms)

    def _binary(self, other: "TrigPolynomial", sign: float) -> "TrigPolynomial":
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        if other.config != self.config:
            raise InvalidConfigError("cannot combine trig polynomials with different configs")
        terms = dict(self._terms)
        for mode, coeff in other._terms.items():
            terms[mode] = terms.get(mode, 0j) + sign * coeff
        return TrigPolynomial(self.config, terms)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, scalar):
        if isinstance(scalar, TrigPolynomial):
            raise TypeError("product of two trig polynomials is not supported")
        c = complex(scalar)
        return TrigPolynomial(self.config, {md: c * v for md, v in self._terms.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __eq__(self, other):
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        return self.config == other.config and self._terms == other._terms

    __hash__ = None

    def __repr__(self):
        body = ", ".join(
            f"({md.m},{md.branch.value}): {coeff}" for md, coeff in self.items()
        )
        return f"TrigPolynomial({self.config}, {{{body}}})"


def basis_polynomial(cfg: SpectralConfig, mode: Mode) -> TrigPolynomial:
    """The eigenfunction z_mode as a one-term trig polynomial."""
    return TrigPolynomial(cfg, {mode: 1.0})


@dataclass(frozen=True)
class FunctionHandle:
    """A function given by explicit evaluators for f, f', ..., f^(d).

    No numerical differentiation is ever performed: a derivative order
    beyond the supplied tuple raises DerivativeUnavailableError.  Evaluators
    should accept numpy arrays; scalar-only callables are tolerated by the
    quadrature layer at reduced speed.
    """

    derivatives: tuple[Callable, ...]

    def __post_init__(self) -> None:
        evals = tuple(self.derivatives)
        if not evals:
            raise DerivativeUnavailableError("FunctionHandle needs at least the 0-th derivative")
        for fn in evals:
            if not callable(fn):
                raise DerivativeUnavailableError(f"derivative evaluator {fn!r} is not callable")
        object.__setattr__(self, "derivatives", evals)

    @property
    def max_deriv(self) -> int:
        return len(self.derivatives) - 1

    def deriv(self, order: int) -> Callable:
        if not 0 <= order <= self.max_deriv:
            raise DerivativeUnavailableError(
                f"derivative order {order} unavailable (have 0..{self.max_deriv})"
            )
        return self.derivatives[order]

    def __call__(self, x):
        return self.derivatives[0](x)


def derivative_evaluator(f, order: int) -> Callable:
    """Evaluator of the order-th derivative of f.

    A trig polynomial has every order, a handle the orders it supplies and a
    plain callable order 0 only; any other request raises
    DerivativeUnavailableError.
    """
    order = _check_integer(order, 0, DerivativeUnavailableError, "derivative order")
    if isinstance(f, TrigPolynomial):
        return lambda x: f.evaluate(x, order)
    if isinstance(f, FunctionHandle):
        return f.deriv(order)
    if not callable(f):
        raise DerivativeUnavailableError(f"not a function-like object: {f!r}")
    if order > 0:
        raise DerivativeUnavailableError(
            f"need derivatives up to order {order}, function supplies only 0..0"
        )
    return f


def boundary_antisymmetry_defect(f, cfg: SpectralConfig, order: int = 0) -> float:
    """|f^(j)(a) + f^(j)(b)|, zero exactly when the j-th derivative is anti-periodic.

    A trig polynomial is evaluated at both endpoints in one call; any other
    function is called at each endpoint as a scalar, which it must accept.
    """
    fj = derivative_evaluator(f, order)
    if isinstance(f, TrigPolynomial):
        fa, fb = fj(np.array([cfg.a, cfg.b])).tolist()
    else:
        fa, fb = fj(cfg.a), fj(cfg.b)
    return abs(complex(fa) + complex(fb))


def apply_ell(p: TrigPolynomial) -> TrigPolynomial:
    """Apply ell[y] = -y'' + k*y; each coefficient is scaled by its eigenvalue."""
    cfg = p.config
    return TrigPolynomial(
        cfg, {mode: eigenvalue(cfg, mode.m) * c for mode, c in p._terms.items()}
    )


def ell_power_coefficients(n: int, k: float) -> list[float]:
    """Coefficients c_j of ell^n[y] = sum_j c_j * y^(2j), j = 0..n.

    Expanding (k - d^2/dx^2)^n binomially gives
    c_j = (-1)**j * C(n, j) * k**(n - j).
    """
    n = _check_integer(n, 1, InvalidModeError, "power")
    if not k > 0:
        raise InvalidConfigError(f"spectral shift requires k > 0, got {k}")
    return [(-1) ** j * math.comb(n, j) * k ** (n - j) for j in range(n + 1)]


def apply_ell_power(p: TrigPolynomial, n: int, method: str = "iterate") -> TrigPolynomial:
    """Apply ell^n to a trig polynomial.

    method="iterate" composes apply_ell n times; method="binomial" evaluates
    sum_j c_j * p^(2j) with the closed-form derivative cycle.  Both routes
    scale the coefficient of mode m by lambda_m**n up to floating-point
    association, and tests hold them together at relative 1e-10.
    """
    n = _check_integer(n, 1, InvalidModeError, "power")
    if method == "iterate":
        out = p
        for _ in range(n):
            out = apply_ell(out)
        return out
    if method == "binomial":
        coeffs = ell_power_coefficients(n, p.config.k)
        acc = TrigPolynomial.zero(p.config)
        for j, c in enumerate(coeffs):
            acc = acc + c * p.derivative(2 * j)
        return acc
    raise SemiFourierError(f"unknown method {method!r}, expected 'iterate' or 'binomial'")
