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

Each convention of the basis is written once, here, and every module reads
it from here: the frequency omega_m in ``_omega``, the phase cos(omega_m a),
sin(omega_m a) in ``_phase``, the factor sqrt(2/(b-a)) in
``_normalization``, the cycle of the waves in ``_CYCLE`` (read from each
branch through ``_CYCLE_FROM``) and the quarter-turn factors of a
coefficient in ``_quarter_turns``.

Basis values at any points come from ``_basis_block`` (the waves
cos(omega_m x) and sin(omega_m x), one row per mode of a set, each row the
same bits whatever other modes share the block) and ``_derivative_wave``
(the derivative cycle and normalization applied to a row).  A block reduces
its arguments (2m - 1) * (x - a)/(b - a) once, in ``_sincospi``, which takes
one exact remainder modulo 2 for both the sine and the cosine wave.
``basis_eval`` takes a one-mode block.  Every consumer of many modes at
arbitrary points walks ``_basis_blocks``, which yields blocks of at most
``_BLOCK_MODES`` modes, so its memory is bounded whatever the number of
modes: ``TrigPolynomial.evaluate`` (which checks the order and the domain
once per call), ``classical_coeffs`` on a handle and verify's basis-boundary
suite.  The quadrature layer walks it on a rule's nodes and keeps the rows
for the length of one call, or of one verify run (see
:mod:`semifourier.quadrature`).
``TrigPolynomial._combine`` is the one summation loop: it takes the rows of
the distinct modes in ascending order, so its values are bit-identical to
``basis_eval``; it adds into a given accumulator when a partial sum
continues a lower one.  A point outside [a, b], NaN included, raises
PointOutOfDomainError.  ``boundary_antisymmetry_defect`` evaluates
both endpoints at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable, Iterator, Mapping

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

# Modes per block of waves in ``_basis_blocks``; one block of hundreds of
# modes at many points takes tens of MiBs.
_BLOCK_MODES = 16


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


def _omega(cfg: SpectralConfig, m):
    """omega_m = (2m - 1) * pi / (b - a) for a mode index m or an array of them, unchecked."""
    return (2 * m - 1) * math.pi / (cfg.b - cfg.a)


def _phase(cfg: SpectralConfig, omegas) -> tuple[np.ndarray, np.ndarray]:
    """cos(omega * a) and sin(omega * a) for each omega, the rotation of the basis waves to x."""
    phase = np.multiply(omegas, cfg.a)
    return np.cos(phase), np.sin(phase)


def _normalization(cfg: SpectralConfig) -> float:
    """sqrt(2 / (b - a)), the factor that makes each basis function a unit vector in L2(a, b)."""
    return math.sqrt(2.0 / (cfg.b - cfg.a))


# (wave, sign) of the j-th derivative of the cosine wave, j mod 4:
# cos -> -sin -> -cos -> sin
_CYCLE = ((Branch.COS, 1.0), (Branch.SIN, -1.0), (Branch.COS, -1.0), (Branch.SIN, 1.0))
# the cycle from each branch's wave, indexed by j mod 4; the sine wave is step 3
_CYCLE_FROM = {Branch.COS: _CYCLE, Branch.SIN: _CYCLE[3:] + _CYCLE[:3]}


def _quarter_turns(branch: Branch, omega: float) -> tuple[float, float]:
    """Factors of a coefficient's first and second quarter-turn, starting on branch.

    d/dx cos = -omega sin and d/dx sin = omega cos, so (-omega, omega) from
    cos and (omega, -omega) from sin; the pair repeats.
    """
    return (-omega, omega) if branch is Branch.COS else (omega, -omega)


def angular_frequency(cfg: SpectralConfig, m: int) -> float:
    """Frequency (2m - 1) * pi / (b - a) of the m-th eigenfunction pair."""
    m = _check_integer(m, 1, InvalidModeError, "mode index")
    return _omega(cfg, m)


def eigenvalue(cfg: SpectralConfig, m: int) -> float:
    """m-th eigenvalue omega_m**2 + k, of multiplicity two; one multiply squares, correctly rounded."""
    m = _check_integer(m, 1, InvalidModeError, "mode index")
    omega = _omega(cfg, m)
    return omega * omega + cfg.k


def angular_frequencies(cfg: SpectralConfig, N: int) -> np.ndarray:
    """omega_1, ..., omega_N as an array, bit-equal to ``angular_frequency``."""
    N = _check_integer(N, 1, InvalidModeError, "mode count")
    # float indices (exact, as each 2m - 1 < 2**53): every step after 2 * m then
    # works in place, where int indices would take one more array of N
    return _omega(cfg, np.arange(1.0, N + 1.0))


def eigenvalues(cfg: SpectralConfig, N: int) -> np.ndarray:
    """lambda_1, ..., lambda_N as an array, bit-equal to ``eigenvalue`` (same operations)."""
    omega = angular_frequencies(cfg, N)
    return omega * omega + cfg.k


def _sincospi(t) -> tuple[np.ndarray, np.ndarray]:
    """sin(pi * t) and cos(pi * t) from one exact reduction of t modulo 2.

    The sine is an exact zero at every integer t; the cosine is an exact
    zero at every half-integer and exactly +-1 at integers.  The remainder
    |t| - 2*floor(|t|/2) is exact (Sterbenz), and with the sign of t it is
    fmod(t, 2); each wave then folds its own copy into [0, 1/2] in place.
    ``np.minimum(r, c - r)`` is the fold ``c - r if r > c/2 else r``, since
    c - r is exact wherever it is the smaller.  A sign flip is a multiply
    by -1.0 and the half-integer zero a multiply by 0.0 at a positive value,
    so the bits are those of the per-wave branch-and-select reduction (at
    +-inf, which the domain check keeps out, only the sign of the NaN may
    differ).
    """
    t = np.asarray(t, dtype=float)
    r = np.abs(t)
    r -= 2.0 * np.floor(r * 0.5)  # |fmod(t, 2)|, exact
    s = np.copysign(r, t)  # fmod(t, 2)
    s = np.where(s < 0.0, s + 2.0, s)  # [0, 2)
    flip = s > 1.0
    s -= flip
    np.minimum(s, 1.0 - s, out=s)
    s *= np.pi
    sin = np.sin(s, out=s)
    sin *= 1.0 - 2.0 * flip

    np.minimum(r, 2.0 - r, out=r)  # [0, 1]
    flip = r > 0.5
    np.minimum(r, 1.0 - r, out=r)
    off_half = r != 0.5
    r *= np.pi
    cos = np.cos(r, out=r)
    cos *= 1.0 - 2.0 * flip
    cos *= off_half
    return sin, cos


def _check_domain(cfg: SpectralConfig, xs: np.ndarray) -> None:
    """PointOutOfDomainError unless every point lies in [a, b] (within the slack); NaN never does."""
    slack = _DOMAIN_SLACK * max(1.0, abs(cfg.a), abs(cfg.b))
    inside = (xs >= cfg.a - slack) & (xs <= cfg.b + slack)
    if not inside.all():
        bad = xs[~inside]
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
    omega, cos_psi, sin_psi = next(zip(*_basis_block(cfg, [mode.m], xs)))
    out = _derivative_wave(cfg, mode.branch, omega, cos_psi, sin_psi, deriv_order)
    if np.ndim(x) == 0:
        return float(out)
    return out


def _basis_block(cfg: SpectralConfig, ms, xs: np.ndarray):
    """omega_m and the waves cos(omega_m x), sin(omega_m x) for each m in ms.

    A list of omegas (``_omega``) and two arrays with one row of shape
    xs.shape per mode.  (2m-1) * (x-a)/(b-a) is reduced exactly modulo 2 and
    rotated by the phase omega_m * a of ``_phase``, elementwise, so
    z(a) = -z(b) exactly and no row reads another; at x = a the rows are the
    phase itself, which the sawtooth closed form of ``catalog`` shares.
    """
    u = (np.ravel(xs) - cfg.a) / (cfg.b - cfg.a)  # u = 1.0 exactly at x = b
    base_sin, base_cos = _sincospi(np.array([2 * m - 1 for m in ms], dtype=float)[:, None] * u)

    omegas = [_omega(cfg, m) for m in ms]  # a list: one mode is the common case
    pc, ps = (wave[:, None] for wave in _phase(cfg, omegas))
    cos_psi = base_cos * pc  # cos(omega * x)
    cos_psi -= base_sin * ps
    sin_psi = base_sin * pc  # sin(omega * x)
    sin_psi += base_cos * ps
    shape = (len(omegas),) + np.shape(xs)
    return omegas, cos_psi.reshape(shape), sin_psi.reshape(shape)


def _basis_blocks(cfg: SpectralConfig, ms, xs: np.ndarray) -> Iterator[tuple]:
    """``_basis_block`` over the sequence ms, at most ``_BLOCK_MODES`` modes at a time."""
    for start in range(0, len(ms), _BLOCK_MODES):
        yield _basis_block(cfg, ms[start:start + _BLOCK_MODES], xs)


def _derivative_wave(cfg: SpectralConfig, branch: Branch, omega: float,
                     cos_psi: np.ndarray, sin_psi: np.ndarray, deriv_order: int) -> np.ndarray:
    """sqrt(2/(b-a)) * omega**j * cycle_j of cos(omega x), sin(omega x).

    The quarter-turn cycle cos -> -sin -> -cos -> sin only swaps the branch
    and flips the sign, both exact, so the result depends on the waves and
    the scalar factor alone.
    """
    wave, sign = _CYCLE_FROM[branch][deriv_order % 4]
    # (-s) * wave is s * (-wave), bit for bit, without a negated copy
    scale = sign * (_normalization(cfg) * omega**deriv_order)
    return scale * (sin_psi if wave is Branch.SIN else cos_psi)


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
        kept = sorted((kv for kv in cleaned.items() if kv[1] != 0), key=lambda kv: kv[0].sort_key)
        object.__setattr__(self, "_terms", dict(kept))  # in (m, branch) order

    def __setattr__(self, name, value):  # immutable by convention
        raise AttributeError("TrigPolynomial is immutable")

    @classmethod
    def zero(cls, config: SpectralConfig) -> "TrigPolynomial":
        return cls(config, {})

    def items(self) -> Iterator[tuple[Mode, complex]]:
        """Terms in deterministic (m, branch) order."""
        return iter(self._terms.items())

    def modes(self) -> tuple[Mode, ...]:
        return tuple(self._terms)

    def coefficient(self, mode: Mode) -> complex:
        return self._terms.get(mode, 0j)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_real(self) -> bool:
        return all(c.imag == 0.0 for c in self._terms.values())

    def evaluate(self, x, deriv_order: int = 0):
        """Pointwise value of the deriv_order-th derivative.

        Each term's column is ``basis_eval`` at the same points, read from
        ``_basis_blocks`` over the distinct modes, without its per-term checks.
        """
        deriv_order = _check_integer(deriv_order, 0, DerivativeUnavailableError, "derivative order")
        xs = np.asarray(x, dtype=float)
        _check_domain(self.config, xs)
        blocks = _basis_blocks(self.config, self._mode_indices(), xs)
        acc = self._combine(xs.shape, (row for block in blocks for row in zip(*block)), deriv_order)
        if np.ndim(x) == 0:
            return acc[()]
        return acc

    def _mode_indices(self) -> list[int]:
        """The distinct mode indices m of the terms, ascending."""
        return [m for m, _ in groupby(mode.m for mode in self._terms)]

    def _combine(self, shape: tuple[int, ...], rows: Iterable[tuple], deriv_order: int,
                 acc: np.ndarray | None = None) -> np.ndarray:
        """sum_mode coeff * deriv_order-th derivative of z_mode, summed in (m, branch) order.

        rows yields omega_m, cos(omega_m x) and sin(omega_m x) for each of
        ``_mode_indices`` in turn, from a walk of ``_basis_blocks``:
        ``evaluate`` walks it at arbitrary points, the quadrature layer on a
        rule's nodes.  Both share this summation order, so equal rows give
        bit-equal values.  The terms are added in place to acc, a complex
        array of shape that starts at zero: a caller that passes the
        accumulator of a sum of lower modes continues that sum term by term,
        as one sum from zero would.  The result is real when every
        coefficient is.
        """
        if acc is None:
            acc = np.zeros(shape, dtype=complex)
        for (_, terms), row in zip(groupby(self._terms.items(), key=lambda kv: kv[0].m), rows):
            for mode, coeff in terms:
                acc += coeff * _derivative_wave(self.config, mode.branch, *row, deriv_order)
        if self.is_real:
            return acc.real
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
            turns = _quarter_turns(mode.branch, angular_frequency(self.config, mode.m))
            for j in range(order):
                coeff = 0j + turns[j % 2] * coeff
            branch, _ = _CYCLE_FROM[mode.branch][order % 4]
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

    Each term runs the scalar operations of the composed polynomial
    operations (``apply_ell``; ``derivative``, ``*`` and ``+``), including
    the ``0j +`` of each construction and the dropping of zero terms, and
    one polynomial is built at the end, so the result is bit-equal to the
    composition without its intermediate polynomials.
    """
    n = _check_integer(n, 1, InvalidModeError, "power")
    cfg = p.config
    terms: dict[Mode, complex] = {}
    if method == "iterate":
        for mode, c in p.items():
            lam = eigenvalue(cfg, mode.m)
            for _ in range(n):
                c = 0j + lam * c
                if c == 0:  # apply_ell drops the term
                    break
            terms[mode] = c
    elif method == "binomial":
        coeffs = [complex(c) for c in ell_power_coefficients(n, cfg.k)]
        for mode, d in p.items():
            first, second = _quarter_turns(mode.branch, angular_frequency(cfg, mode.m))
            acc = 0j  # a sum that reaches zero is dropped, and restarts from 0j
            for j, c in enumerate(coeffs):
                if j:  # p.derivative(2j) is two more quarter-turns of p.derivative(2j - 2)
                    d = 0j + second * (0j + first * d)
                if d != 0:  # derivative drops a zero term
                    x = 0j + c * d
                    if x != 0:  # the scaled polynomial drops a zero term
                        acc = 0j + (acc + 1.0 * x)
            terms[mode] = acc
    else:
        raise SemiFourierError(f"unknown method {method!r}, expected 'iterate' or 'binomial'")
    return TrigPolynomial(cfg, terms)
