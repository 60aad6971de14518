"""Sobolev-type norm ladder generated by the anti-periodic Fourier operator.

For an integer n >= 1 the n-th ladder inner product is

    (f, g)_n = sum_{j=0}^{n} C(n, j) * k**(n-j) * integral f^(j) * conj(g^(j))

on the space of functions whose derivatives of order 0..n-1 satisfy the
anti-periodic boundary conditions and whose n-th derivative is square
integrable.  On that space the eigenfunctions satisfy

    (z_mode, f)_n = lambda_m**n * (z_mode, f)_L2,

so the rescaled family lambda_m**(-n/2) * z_mode is orthonormal, classical
and ladder coefficients differ by the factor lambda_m**(n/2), and the n-th
power sums sum_m lambda_m**n * (|a_m|^2 + |b_m|^2) characterize membership.
The ladder is nested: each space sits strictly inside the previous one.

``membership_classify`` estimates, from a truncated coefficient vector, the
largest exponent r for which the power sum sum_m lambda_m**r * |c_m|^2 still
converges.  Since lambda_m grows like m**2, a fitted log-log decay slope s
of |c_m|^2 against lambda_m translates into the convergence threshold

    critical_r = -s - 1/2

(the mode density per unit lambda decays like lambda**(-1/2), which shifts
the naive integral test by one half).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DerivativeUnavailableError,
    InsufficientModesError,
    InvalidConfigError,
    InvalidModeError,
    SemiFourierError,
    TruncationMismatchError,
)
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    _grid_values,
    _weighted_sum,
    l2_inner,
)
from .spectral import (
    Branch,
    Mode,
    SpectralConfig,
    TrigPolynomial,
    apply_ell,
    basis_polynomial,
    boundary_antisymmetry_defect,
    derivative_bound,
    eigenvalue,
    require_derivatives,
)

__all__ = [
    "Verdict",
    "MembershipReport",
    "DomainVerdict",
    "leftdef_inner",
    "leftdef_norm",
    "scaled_basis",
    "fundamental_relation_defect",
    "lower_bound_margin",
    "spectral_inner_r",
    "membership_classify",
    "operator_matrix",
    "domain_indicator",
    "in_v_space",
    "mode_sequence",
]

# Coefficient magnitudes below this are treated as numerical zeros when
# fitting the decay slope.
NOISE_FLOOR = 1e-14
# A power sum is considered settled when the second half of the modes adds
# less than this fraction of the total.
PLATEAU_FRACTION = 0.05
# No verdict is issued for ladder indices this close to the estimated
# critical exponent.
INCONCLUSIVE_BAND = 0.25
# Boundary defect tolerance, understood relative to the L2 scale of f.
BOUNDARY_TOL = 1e-8


def _check_ladder_index(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidModeError(f"ladder index must be an integer >= 1, got {n!r}")
    return int(n)


def _check_power(r: float) -> float:
    if not (isinstance(r, (int, float, np.integer, np.floating)) and math.isfinite(r) and r > 0):
        raise InvalidModeError(f"power must be a positive real, got {r!r}")
    return float(r)


def leftdef_inner(f, g, n: int, cfg: SpectralConfig,
                  spec: QuadratureSpec = DEFAULT_QUADRATURE, *,
                  force_quadrature: bool = False) -> complex:
    """n-th ladder inner product (f, g)_n.

    For a pair of trig polynomials the diagonal form
    sum_m lambda_m**n * f_m * conj(g_m) is used, which is exact.  Any other
    combination (or ``force_quadrature=True``) evaluates the defining sum of
    weighted derivative integrals by quadrature; both arguments must then
    supply derivatives up to order n.
    """
    n = _check_ladder_index(n)
    if isinstance(f, TrigPolynomial) and isinstance(g, TrigPolynomial) and not force_quadrature:
        if f.config != cfg or g.config != cfg:
            raise InvalidConfigError("trig polynomial config does not match requested config")
        total = 0j
        for mode, coeff in f.items():
            other = g.coefficient(mode)
            if other != 0:
                total += eigenvalue(cfg, mode.m) ** n * coeff * other.conjugate()
        return total

    require_derivatives(f, n)
    require_derivatives(g, n)
    return _ladder_matrix([f], [g], n, cfg, spec)[0][0]


def _grid_norm_sq(f, order: int, cfg: SpectralConfig, spec: QuadratureSpec):
    """Quadrature of |f^(order)|^2."""
    top = _grid_values(f, order, cfg, spec)
    return _weighted_sum(top * np.conjugate(top), cfg, spec)


def _ladder_matrix(fs: list, gs: list, n: int, cfg: SpectralConfig,
                   spec: QuadratureSpec) -> list[list[complex]]:
    """(f_p, g_q)_n by quadrature for every pair, one derivative order at a time.

    Entry (p, q) is sum_j C(n, j) k**(n-j) * integral f_p^(j) conj(g_q^(j)),
    accumulated in ascending j.  Each function's grid values are taken once
    per order, not per pair, and only one order's values are held at once,
    so the working set stays a few dozen node vectors.
    """
    total = [[0j] * len(gs) for _ in fs]
    for j in range(n + 1):
        weight = math.comb(n, j) * cfg.k ** (n - j)
        g_conj = [np.conjugate(_grid_values(g, j, cfg, spec)) for g in gs]
        for row, f in zip(total, fs):
            f_values = _grid_values(f, j, cfg, spec)
            for q, g_values in enumerate(g_conj):
                row[q] += weight * complex(_weighted_sum(f_values * g_values, cfg, spec))
    return total


def leftdef_norm(f, n: int, cfg: SpectralConfig,
                 spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Norm sqrt((f, f)_n); the imaginary part of the square is discarded."""
    value = leftdef_inner(f, f, n, cfg, spec)
    return math.sqrt(max(value.real, 0.0))


def scaled_basis(mode: Mode, n: int, cfg: SpectralConfig) -> TrigPolynomial:
    """lambda_m**(-n/2) * z_mode, a unit vector for the n-th ladder inner product."""
    n = _check_ladder_index(n)
    factor = eigenvalue(cfg, mode.m) ** (-n / 2.0)
    return TrigPolynomial(cfg, {mode: factor})


def fundamental_relation_defect(mode: Mode, f, n: int, cfg: SpectralConfig,
                                spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """|(z_mode, f)_n - lambda_m**n * (z_mode, f)_L2|.

    Both inner products are evaluated through the quadrature route even for
    trig polynomial arguments, so the defect genuinely measures the identity
    rather than an algebraic tautology.  f must supply derivatives up to n.
    """
    n = _check_ladder_index(n)
    z = basis_polynomial(cfg, mode)
    lhs = leftdef_inner(z, f, n, cfg, spec, force_quadrature=True)
    rhs = eigenvalue(cfg, mode.m) ** n * l2_inner(z, f, cfg, spec, force_quadrature=True)
    return abs(lhs - rhs)


def lower_bound_margin(f, n: int, cfg: SpectralConfig,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """(f, f)_n - k**n * (f, f)_L2, nonnegative up to numerical error."""
    n = _check_ladder_index(n)
    ladder_sq = leftdef_inner(f, f, n, cfg, spec).real
    l2_sq = l2_inner(f, f, cfg, spec).real
    return ladder_sq - cfg.k**n * l2_sq


def _coeff_arrays(cv) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(cv.cos_coeffs), np.asarray(cv.sin_coeffs)


def spectral_inner_r(cf, cg, r: float) -> complex:
    """Coefficient-side inner product sum_m lambda_m**r * (a_f conj(a_g) + b_f conj(b_g)).

    Defined for every positive real r, which extends the integer ladder to a
    continuum of exponents.  Both vectors must be classical (no ladder
    rescaling), share one truncation order, and share one config.
    """
    r = _check_power(r)
    if cf.config != cg.config:
        raise InvalidConfigError("coefficient vectors built for different configs")
    if cf.size != cg.size:
        raise TruncationMismatchError(f"truncation orders differ: {cf.size} vs {cg.size}")
    if cf.ladder is not None or cg.ladder is not None:
        raise SemiFourierError("spectral_inner_r expects classical coefficient vectors")
    lam = np.array([eigenvalue(cf.config, m) for m in range(1, cf.size + 1)])
    af, bf = _coeff_arrays(cf)
    ag, bg = _coeff_arrays(cg)
    total = np.sum(lam**r * (af * np.conjugate(ag) + bf * np.conjugate(bg)))
    return complex(total)


class Verdict(enum.Enum):
    MEMBER = "member"
    NON_MEMBER = "non-member"
    INCONCLUSIVE = "inconclusive"


_VERDICT_RANK = {Verdict.MEMBER: 2, Verdict.INCONCLUSIVE: 1, Verdict.NON_MEMBER: 0}


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of ladder membership classification from truncated coefficients.

    boundary_defects holds (order, defect) pairs when a pointwise handle was
    available.  decay_slope is the fitted slope of log |c_m|^2 against
    log lambda_m over the upper half of the modes (NaN when the tail is
    numerically zero), and critical_r estimates the supremum of exponents r
    with a convergent power sum (infinity for finitely supported
    coefficients).  verdict_per_n is antitone: membership at n implies
    membership at every smaller index.
    """

    boundary_defects: tuple[tuple[int, float], ...]
    decay_slope: float
    critical_r: float
    verdict_per_n: dict[int, Verdict]


def _power_sum(lam: np.ndarray, c2: np.ndarray, exponent: float, count: int) -> float:
    return float(np.sum(lam[:count] ** exponent * c2[:count]))


def membership_classify(cf, n_max: int, f=None,
                        spec: QuadratureSpec = DEFAULT_QUADRATURE, *,
                        boundary_tol: float = BOUNDARY_TOL) -> MembershipReport:
    """Classify ladder membership for n = 1..n_max from coefficients.

    Parameters
    ----------
    cf : CoeffVector
        Classical coefficients truncated at N >= 32 modes.
    n_max : int
        Largest ladder index to judge.
    f : TrigPolynomial or FunctionHandle, optional
        Pointwise handle; enables boundary defect checks, which are decisive
        for non-membership.  Must supply derivatives up to n_max - 1.
    spec : QuadratureSpec, optional
        Used only to normalize boundary defects by the L2 scale.
    boundary_tol : float, optional
        Defect threshold relative to the L2 norm of f.

    Notes
    -----
    Membership in the n-th ladder space is equivalent to convergence of
    sum_m lambda_m**n * |c_m|^2.  The verdict combines the boundary checks
    with two coefficient heuristics: the plateau of partial power sums, and
    the position of n relative to the estimated critical exponent.  Indices
    within INCONCLUSIVE_BAND of the critical exponent are not judged.
    """
    n_max = _check_ladder_index(n_max)
    N = cf.size
    if N < 32:
        raise InsufficientModesError(f"need at least 32 modes for classification, got {N}")
    if cf.ladder is not None:
        raise SemiFourierError("membership_classify expects classical coefficients")
    cfg = cf.config

    defects: list[tuple[int, float]] = []
    boundary_ok_up_to: dict[int, bool] = {}
    if f is not None:
        bound = derivative_bound(f)
        if bound is not None and n_max - 1 > bound:
            raise DerivativeUnavailableError(
                f"boundary checks for n_max={n_max} need derivatives up to {n_max - 1}"
            )
        a_arr, b_arr = _coeff_arrays(cf)
        scale = max(math.sqrt(float(np.sum(np.abs(a_arr) ** 2 + np.abs(b_arr) ** 2))), 1e-300)
        ok = True
        for j in range(n_max):
            d = boundary_antisymmetry_defect(f, cfg, j)
            defects.append((j, d))
            ok = ok and d <= boundary_tol * scale
            boundary_ok_up_to[j + 1] = ok  # space n needs orders 0..n-1

    lam = np.array([eigenvalue(cfg, m) for m in range(1, N + 1)])
    a_arr, b_arr = _coeff_arrays(cf)
    c2 = np.abs(a_arr) ** 2 + np.abs(b_arr) ** 2

    upper = np.arange(N) + 1 > N // 2
    keep = upper & (np.sqrt(c2) > NOISE_FLOOR)
    if np.count_nonzero(keep) < 2:
        slope = math.nan
        critical_r = math.inf
    else:
        x = np.log(lam[keep])
        y = np.log(c2[keep])
        slope = float(np.polyfit(x, y, 1)[0])
        critical_r = -slope - 0.5

    verdicts: dict[int, Verdict] = {}
    for n in range(1, n_max + 1):
        if f is not None and not boundary_ok_up_to.get(n, True):
            verdicts[n] = Verdict.NON_MEMBER
            continue
        if math.isinf(critical_r):
            verdicts[n] = Verdict.MEMBER
            continue
        if abs(n - critical_r) <= INCONCLUSIVE_BAND:
            verdicts[n] = Verdict.INCONCLUSIVE
            continue
        if n > critical_r:
            verdicts[n] = Verdict.NON_MEMBER
            continue
        full = _power_sum(lam, c2, n, N)
        half = _power_sum(lam, c2, n, N // 2)
        plateau = full <= 0.0 or (full - half) <= PLATEAU_FRACTION * full
        verdicts[n] = Verdict.MEMBER if plateau else Verdict.INCONCLUSIVE

    # Enforce antitonicity: the rank may never increase with n.
    rank = _VERDICT_RANK[verdicts[1]]
    for n in range(1, n_max + 1):
        rank = min(rank, _VERDICT_RANK[verdicts[n]])
        verdicts[n] = next(v for v, q in _VERDICT_RANK.items() if q == rank)

    return MembershipReport(
        boundary_defects=tuple(defects),
        decay_slope=slope,
        critical_r=critical_r,
        verdict_per_n=verdicts,
    )


def mode_sequence(N: int) -> list[Mode]:
    """First N mode pairs in the fixed matrix ordering (1,cos), (1,sin), (2,cos), ..."""
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
        raise InvalidModeError(f"mode count must be a positive integer, got {N!r}")
    out: list[Mode] = []
    for m in range(1, int(N) + 1):
        out.append(Mode(m, Branch.COS))
        out.append(Mode(m, Branch.SIN))
    return out


def operator_matrix(n: int, N: int, cfg: SpectralConfig,
                    spec: QuadratureSpec = DEFAULT_QUADRATURE, *,
                    force_quadrature: bool = False) -> np.ndarray:
    """Matrix of the n-th ladder operator over the first N scaled basis pairs.

    Entry (p, q) is (ell Z_p, Z_q)_n with Z the lambda**(-n/2)-scaled basis,
    ordered as mode_sequence(N).  The exact coefficient route yields the
    diagonal of eigenvalues (each twice); ``force_quadrature=True`` rebuilds
    every entry from derivative integrals, which verification uses to check
    diagonality independently.  Entries are filled in ascending index order.
    """
    n = _check_ladder_index(n)
    modes = mode_sequence(N)
    scaled = [scaled_basis(mode, n, cfg) for mode in modes]
    shifted = [apply_ell(z) for z in scaled]
    if force_quadrature:
        entries = _ladder_matrix(shifted, scaled, n, cfg, spec)
    else:
        entries = [[leftdef_inner(f, g, n, cfg, spec) for g in scaled] for f in shifted]
    return np.array([[value.real for value in row] for row in entries], dtype=float)


@dataclass(frozen=True)
class DomainVerdict:
    """Operator domain check: boundary defects and top derivative integrability."""

    ladder_index: int
    boundary_defects: tuple[tuple[int, float], ...]
    top_deriv_norm_sq: float
    in_sqrt_domain: bool
    in_operator_domain: bool


def in_v_space(f, n: int, cfg: SpectralConfig,
               spec: QuadratureSpec = DEFAULT_QUADRATURE, *,
               boundary_tol: float = BOUNDARY_TOL) -> bool:
    """Direct check of the n-th ladder space: boundary orders 0..n-1 and f^(n) in L2."""
    n = _check_ladder_index(n)
    require_derivatives(f, n)
    scale = max(math.sqrt(max(l2_inner(f, f, cfg, spec).real, 0.0)), 1e-300)
    for j in range(n):
        if boundary_antisymmetry_defect(f, cfg, j) > boundary_tol * scale:
            return False
    try:
        _grid_norm_sq(f, n, cfg, spec)
    except SemiFourierError:
        return False
    return True


def domain_indicator(f, n: int, cfg: SpectralConfig,
                     spec: QuadratureSpec = DEFAULT_QUADRATURE, *,
                     boundary_tol: float = BOUNDARY_TOL) -> DomainVerdict:
    """Check membership in the domain of the n-th ladder operator.

    The domain of the n-th operator in the self-adjoint ladder is the
    (n+2)-nd ladder space: boundary defects must vanish for derivative
    orders 0..n+1 and the (n+2)-nd derivative must be square integrable.
    n = 0 addresses the base operator itself (domain = second ladder space).
    A separate flag reports membership in the first ladder space, the
    domain of the operator square root.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise InvalidModeError(f"operator index must be an integer >= 0, got {n!r}")
    n = int(n)
    require_derivatives(f, n + 2)

    scale = max(math.sqrt(max(l2_inner(f, f, cfg, spec).real, 0.0)), 1e-300)
    defects = tuple(
        (j, boundary_antisymmetry_defect(f, cfg, j)) for j in range(n + 2)
    )
    try:
        top_norm_sq = float(np.real(_grid_norm_sq(f, n + 2, cfg, spec)))
        finite = True
    except SemiFourierError:
        top_norm_sq = math.inf
        finite = False

    ok = [d <= boundary_tol * scale for _, d in defects]
    in_operator = finite and all(ok)
    in_sqrt = ok[0] and in_v_space(f, 1, cfg, spec, boundary_tol=boundary_tol)
    return DomainVerdict(
        ladder_index=n,
        boundary_defects=defects,
        top_deriv_norm_sq=top_norm_sq,
        in_sqrt_domain=in_sqrt,
        in_operator_domain=in_operator,
    )
