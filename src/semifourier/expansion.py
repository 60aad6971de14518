"""Eigenfunction expansions: coefficients, partial sums, and error measures.

Classical coefficients are L2 inner products against the orthonormal basis;
ladder coefficients against the rescaled basis differ exactly by the factor
lambda_m**(n/2), so they can be computed either directly from the defining
derivative integrals or by rescaling the classical ones.  Partial sums are
always built from classical coefficients; expansion errors may be measured
in any ladder norm the function supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidModeError,
    SemiFourierError,
    TruncationExceededError,
)
from .ladder import _check_ladder_index, leftdef_inner, scaled_basis
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    _require_finite,
    _values_on,
    composite_rule,
    l2_inner,
)
from .spectral import (
    Branch,
    FunctionHandle,
    Mode,
    SpectralConfig,
    TrigPolynomial,
    basis_eval,
    derivative_evaluator,
    eigenvalue,
    require_derivatives,
)

__all__ = [
    "CoeffVector",
    "classical_coeffs",
    "leftdef_coeffs",
    "partial_sum",
    "expansion_error",
    "parseval_defect",
]


@dataclass(frozen=True)
class CoeffVector:
    """Expansion coefficients for modes 1..N on both branches.

    ladder is None for classical L2 coefficients; an integer n marks
    coefficients taken against the n-th rescaled basis.
    """

    config: SpectralConfig
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray
    ladder: int | None = None

    def __post_init__(self) -> None:
        a = np.array(self.cos_coeffs, dtype=complex)
        b = np.array(self.sin_coeffs, dtype=complex)
        if a.ndim != 1 or b.ndim != 1 or len(a) != len(b):
            raise InvalidConfigError("coefficient arrays must be 1-d and equally long")
        if len(a) < 1:
            raise InvalidConfigError("coefficient vector needs at least one mode")
        if self.ladder is not None:
            _check_ladder_index(self.ladder)
            object.__setattr__(self, "ladder", int(self.ladder))
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)

    @property
    def size(self) -> int:
        """Truncation order N."""
        return len(self.cos_coeffs)

    def coefficient(self, mode: Mode) -> complex:
        if mode.m > self.size:
            raise TruncationExceededError(f"mode {mode.m} beyond truncation {self.size}")
        arr = self.cos_coeffs if mode.branch is Branch.COS else self.sin_coeffs
        return complex(arr[mode.m - 1])


def classical_coeffs(f, N: int, cfg: SpectralConfig,
                     spec: QuadratureSpec = DEFAULT_QUADRATURE) -> CoeffVector:
    """Classical coefficients a_m = (f, z_{m,cos}), b_m = (f, z_{m,sin}) for m <= N.

    Trig polynomial input reproduces its own coefficients exactly; anything
    else is integrated against the basis on the shared quadrature grid.
    """
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
        raise InvalidModeError(f"truncation order must be a positive integer, got {N!r}")
    N = int(N)
    if isinstance(f, TrigPolynomial):
        if f.config != cfg:
            raise InvalidConfigError("trig polynomial config does not match requested config")
        a = [f.coefficient(Mode(m, Branch.COS)) for m in range(1, N + 1)]
        b = [f.coefficient(Mode(m, Branch.SIN)) for m in range(1, N + 1)]
        return CoeffVector(cfg, np.array(a, dtype=complex), np.array(b, dtype=complex))

    nodes, weights = composite_rule(cfg, spec)
    values = _values_on(derivative_evaluator(f, 0), nodes)
    _require_finite(values, nodes)
    wf = weights * values
    a = np.empty(N, dtype=complex)
    b = np.empty(N, dtype=complex)
    for m in range(1, N + 1):
        a[m - 1] = np.sum(wf * basis_eval(cfg, Mode(m, Branch.COS), nodes))
        b[m - 1] = np.sum(wf * basis_eval(cfg, Mode(m, Branch.SIN), nodes))
    return CoeffVector(cfg, a, b)


def leftdef_coeffs(f, N: int, n: int, cfg: SpectralConfig,
                   spec: QuadratureSpec = DEFAULT_QUADRATURE,
                   method: str = "rescale") -> CoeffVector:
    """Ladder coefficients against the n-th rescaled basis.

    method="rescale" multiplies classical coefficients by lambda_m**(n/2);
    method="direct" evaluates the defining inner products by quadrature,
    which requires derivatives of f up to order n.  The two agree up to
    quadrature error, which the verification suite checks.
    """
    n = _check_ladder_index(n)
    if method == "rescale":
        cv = classical_coeffs(f, N, cfg, spec)
        lam = np.array([eigenvalue(cfg, m) for m in range(1, cv.size + 1)])
        factor = lam ** (n / 2.0)
        return CoeffVector(cfg, factor * cv.cos_coeffs, factor * cv.sin_coeffs, ladder=n)
    if method == "direct":
        if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
            raise InvalidModeError(f"truncation order must be a positive integer, got {N!r}")
        require_derivatives(f, n)
        a = np.empty(int(N), dtype=complex)
        b = np.empty(int(N), dtype=complex)
        for m in range(1, int(N) + 1):
            zc = scaled_basis(Mode(m, Branch.COS), n, cfg)
            zs = scaled_basis(Mode(m, Branch.SIN), n, cfg)
            a[m - 1] = leftdef_inner(f, zc, n, cfg, spec, force_quadrature=True)
            b[m - 1] = leftdef_inner(f, zs, n, cfg, spec, force_quadrature=True)
        return CoeffVector(cfg, a, b, ladder=n)
    raise SemiFourierError(f"unknown method {method!r}, expected 'rescale' or 'direct'")


def partial_sum(cv: CoeffVector, M: int) -> TrigPolynomial:
    """Partial sum s_M = sum_{m<=M} a_m z_{m,cos} + b_m z_{m,sin} as a trig polynomial."""
    if isinstance(M, bool) or not isinstance(M, (int, np.integer)) or M < 1:
        raise SemiFourierError(f"partial sum order must be an integer >= 1, got {M!r}")
    if M > cv.size:
        raise TruncationExceededError(f"partial sum order {M} exceeds truncation {cv.size}")
    if cv.ladder is not None:
        raise SemiFourierError(
            "partial sums are built from classical coefficients; rescale first"
        )
    terms: dict[Mode, complex] = {}
    for m in range(1, int(M) + 1):
        terms[Mode(m, Branch.COS)] = complex(cv.cos_coeffs[m - 1])
        terms[Mode(m, Branch.SIN)] = complex(cv.sin_coeffs[m - 1])
    return TrigPolynomial(cv.config, terms)


def expansion_error(f, cv: CoeffVector, M: int, n: int | None = None,
                    spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Norm of f - s_M, in L2 (n is None) or in the n-th ladder norm.

    Trig polynomial input is handled exactly in coefficient space; for a
    function handle the residual derivatives are assembled pointwise and the
    defining integrals evaluated by quadrature.
    """
    s = partial_sum(cv, M)
    cfg = cv.config
    if isinstance(f, TrigPolynomial):
        diff = f - s
        sq = l2_inner(diff, diff, cfg, spec) if n is None else leftdef_inner(diff, diff, n, cfg, spec)
        return math.sqrt(max(sq.real, 0.0))

    order = 0 if n is None else _check_ladder_index(n)
    require_derivatives(f, order)
    residual = _residual_handle(f, s, order)
    sq = l2_inner(residual, residual, cfg, spec) if n is None else leftdef_inner(
        residual, residual, n, cfg, spec
    )
    return math.sqrt(max(sq.real, 0.0))


def _residual_handle(f, s: TrigPolynomial, order: int) -> FunctionHandle:
    def make(j: int):
        fj = derivative_evaluator(f, j)

        def rj(x):
            return np.asarray(fj(x)) - np.asarray(s.evaluate(x, j))

        return rj

    return FunctionHandle(tuple(make(j) for j in range(order + 1)))


def parseval_defect(f, cv: CoeffVector, n: int | None = None,
                    spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Squared norm of f minus the truncated coefficient power sum.

    With classical coefficients the sum carries weights lambda_m**n (or 1
    for the plain L2 case); a ladder vector must match n and is summed with
    unit weights.  The defect tends to the (nonnegative) tail as N grows.
    """
    cfg = cv.config
    if n is None:
        norm_sq = l2_inner(f, f, cfg, spec).real
    else:
        n = _check_ladder_index(n)
        norm_sq = leftdef_inner(f, f, n, cfg, spec).real

    c2 = np.abs(cv.cos_coeffs) ** 2 + np.abs(cv.sin_coeffs) ** 2
    if cv.ladder is None:
        if n is None:
            weights = np.ones(cv.size)
        else:
            lam = np.array([eigenvalue(cfg, m) for m in range(1, cv.size + 1)])
            weights = lam ** float(n)
        series = float(np.sum(weights * c2))
    else:
        if n != cv.ladder:
            raise SemiFourierError(
                f"ladder coefficients for n={cv.ladder} cannot certify the n={n} norm"
            )
        series = float(np.sum(c2))
    return norm_sq - series
