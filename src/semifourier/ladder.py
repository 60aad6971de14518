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

The paper's domain theorem describes these spaces explicitly: f lies in the
n-th ladder space (the domain of A**(n/2)) exactly when f^(j) is
anti-periodic, f^(j)(a) + f^(j)(b) = 0, for every j < n and f^(n) is square
integrable.  ``boundary_antisymmetry_defect`` measures one such condition,
the defect |f^(j)(a) + f^(j)(b)|, from f's values at the two endpoints
(``quadrature._endpoint_values``).  Every domain verdict here applies the
theorem through one helper, ``_boundary_defects``: it returns the defects
and j0, the first order whose defect exceeds BOUNDARY_TOL times the L2 norm
of f plus the rounding of the endpoint values, which far from the origin is
the larger of the two.  So f is in the n-th space when j0 >= n and the
quadrature of |f^(n)|^2 is finite; ``in_v_space``, ``domain_indicator``
and the boundary verdicts of ``membership_classify`` all read j0.

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
    InsufficientModesError,
    InvalidConfigError,
    InvalidModeError,
    SemiFourierError,
    TruncationMismatchError,
)
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    _basis_side,
    _endpoint_values,
    _function_side,
    _inner,
    _ladder_matrix,
    _norm,
    _on_grid,
    _weighted_sum,
    l2_inner,
)
from .spectral import (
    Branch,
    Mode,
    SpectralConfig,
    TrigPolynomial,
    _check_integer,
    apply_ell,
    derivative_evaluator,
    eigenvalue,
)

__all__ = [
    "Verdict",
    "MembershipReport",
    "DomainVerdict",
    "leftdef_inner",
    "leftdef_norm",
    "scaled_basis",
    "boundary_antisymmetry_defect",
    "fundamental_relation_defect",
    "fundamental_relation_defects",
    "lower_bound_margin",
    "spectral_inner_r",
    "membership_classify",
    "operator_matrix",
    "domain_indicator",
    "in_v_space",
    "mode_sequence",
]

# Coefficient magnitudes below this multiple of the coefficients' L2 norm
# are treated as numerical zeros when fitting the decay slope.
NOISE_FLOOR = 1e-14
# Coefficients whose last mode above the noise floor stands more than this
# factor above it stop abruptly: they are finitely supported, not decaying.
FLOOR_REACH = 10.0
# A power sum is considered settled when the second half of the modes adds
# less than this fraction of the total.
PLATEAU_FRACTION = 0.05
# No verdict is issued for ladder indices this close to the estimated
# critical exponent.
INCONCLUSIVE_BAND = 0.25
# Boundary defect tolerance, understood relative to the L2 scale of f.
BOUNDARY_TOL = 1e-8
# Rounding of an endpoint value per unit of |x| * |slope|: a few ulps.
ENDPOINT_ROUNDING = 4 * np.finfo(float).eps


def _check_ladder_index(n: int) -> int:
    return _check_integer(n, 1, InvalidModeError, "ladder index")


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
    return _inner(f, g, _check_ladder_index(n), cfg, spec, force_quadrature)


def leftdef_norm(f, n: int, cfg: SpectralConfig,
                 spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Norm sqrt((f, f)_n); the imaginary part of the square is discarded."""
    return _norm(leftdef_inner(f, f, n, cfg, spec))


def scaled_basis(mode: Mode, n: int, cfg: SpectralConfig) -> TrigPolynomial:
    """lambda_m**(-n/2) * z_mode, a unit vector for the n-th ladder inner product."""
    n = _check_ladder_index(n)
    [factor] = _ladder_scales([mode], n, cfg)
    return TrigPolynomial(cfg, {mode: factor})


def fundamental_relation_defects(modes, f, n: int, cfg: SpectralConfig,
                                 spec: QuadratureSpec = DEFAULT_QUADRATURE) -> np.ndarray:
    """|(z_mode, f)_n - lambda_m**n * (z_mode, f)_L2| for every mode, as an array.

    Both inner products are evaluated through the quadrature route even for
    trig polynomial arguments, so the defect genuinely measures the identity
    rather than an algebraic tautology.  f must supply derivatives up to n.
    The basis is one ``_basis_side`` over all modes, built once for both
    ``_ladder_matrix`` columns, and its rows are independent, so entry i
    equals the one-mode defect of modes[i] bit for bit.
    """
    n = _check_ladder_index(n)
    z = _basis_side(modes, [1.0] * len(modes), cfg, spec)
    g = _function_side(f, cfg, spec)
    lhs = _ladder_matrix(z, g, n, cfg, spec)[:, 0].tolist()
    rhs = _ladder_matrix(z, g, 0, cfg, spec)[:, 0].tolist()
    # Python's complex abs, which differs from numpy's in the last bit
    return np.array([abs(complex(left) - eigenvalue(cfg, mode.m) ** n * complex(right))
                     for mode, left, right in zip(modes, lhs, rhs)], dtype=float)


def fundamental_relation_defect(mode: Mode, f, n: int, cfg: SpectralConfig,
                                spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """|(z_mode, f)_n - lambda_m**n * (z_mode, f)_L2|, the one-mode case of
    ``fundamental_relation_defects``."""
    return float(fundamental_relation_defects([mode], f, n, cfg, spec)[0])


def lower_bound_margin(f, n: int, cfg: SpectralConfig,
                       spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """(f, f)_n - k**n * (f, f)_L2, nonnegative up to numerical error."""
    n = _check_ladder_index(n)
    ladder_sq = leftdef_inner(f, f, n, cfg, spec).real
    l2_sq = l2_inner(f, f, cfg, spec).real
    return ladder_sq - cfg.k**n * l2_sq


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
    # cross products even when cf is cg: |a|^2 + |b|^2 would round differently
    cross = cf.cos_coeffs * np.conjugate(cg.cos_coeffs) + cf.sin_coeffs * np.conjugate(cg.sin_coeffs)
    return complex(np.sum(cf.eigenvalues**r * cross))


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
    log lambda_m over the upper half of the resolved modes (NaN when the
    coefficients are finitely supported or fewer than two of those modes
    are above the noise floor), and critical_r estimates the supremum of
    exponents r with a convergent power sum (infinity in the same cases).
    verdict_per_n is antitone: membership at n implies membership at every
    smaller index.
    """

    boundary_defects: tuple[tuple[int, float], ...]
    decay_slope: float
    critical_r: float
    verdict_per_n: dict[int, Verdict]


def membership_classify(cf, n_max: int, f=None,
                        spec: QuadratureSpec = DEFAULT_QUADRATURE) -> MembershipReport:
    """Classify ladder membership for n = 1..n_max from coefficients.

    Parameters
    ----------
    cf : CoeffVector
        Classical coefficients truncated at N >= 32 modes.
    n_max : int
        Largest ladder index to judge.
    f : TrigPolynomial or FunctionHandle, optional
        Pointwise handle; enables boundary defect checks, which are decisive
        for non-membership: index n fails when an order j < n fails.  Must
        supply derivatives up to n_max - 1.
    spec : QuadratureSpec, optional
        Used only for the L2 norm of f that scales BOUNDARY_TOL.

    Notes
    -----
    Membership in the n-th ladder space is equivalent to convergence of
    sum_m lambda_m**n * |c_m|^2.  The verdict combines the boundary checks
    with two coefficient heuristics: the plateau of partial power sums, and
    the position of n relative to the estimated critical exponent.  Indices
    within INCONCLUSIVE_BAND of the critical exponent are not judged.

    The decay slope is fitted over the resolved modes only: a mode counts as
    zero when |c_m| is at most NOISE_FLOOR times the coefficients' L2 norm,
    and the fit takes the upper half of modes 1..M, M the last mode above
    that floor.  So a fast-decaying profile whose tail falls below the floor
    long before mode N is still fitted, and the estimate does not depend on
    the scale of the coefficients.  A profile decays into the floor, so when
    M < N and |c_M| exceeds FLOOR_REACH times the floor, the coefficients
    stop abruptly instead: they are finitely supported (a trig polynomial,
    with an exactly zero tail or rounding noise below the floor), no slope
    is fitted and critical_r is infinite.
    """
    n_max = _check_ladder_index(n_max)
    N = cf.size
    if N < 32:
        raise InsufficientModesError(f"need at least 32 modes for classification, got {N}")
    if cf.ladder is not None:
        raise SemiFourierError("membership_classify expects classical coefficients")
    cfg = cf.config

    defects: tuple[tuple[int, float], ...] = ()
    j0 = n_max  # no handle: no boundary verdict
    if f is not None:
        derivative_evaluator(f, n_max - 1)
        defects, j0 = _boundary_defects(f, n_max, cfg, spec)

    lam, c2 = cf.eigenvalues, cf.power

    magnitude = np.sqrt(c2)
    floor = NOISE_FLOOR * math.sqrt(cf.power_sum())
    above = magnitude > floor
    resolved = np.flatnonzero(above)[-1] + 1 if above.any() else 0
    stops = 0 < resolved < N and magnitude[resolved - 1] > FLOOR_REACH * floor
    keep = above & (np.arange(N) + 1 > resolved // 2)
    if stops or np.count_nonzero(keep) < 2:
        slope = math.nan
        critical_r = math.inf
    else:
        x = np.log(lam[keep])
        y = np.log(c2[keep])
        slope = float(np.polyfit(x, y, 1)[0])
        critical_r = -slope - 0.5

    verdicts: dict[int, Verdict] = {}
    for n in range(1, n_max + 1):
        if n > j0:
            verdict = Verdict.NON_MEMBER
        elif math.isinf(critical_r):
            verdict = Verdict.MEMBER
        elif abs(n - critical_r) <= INCONCLUSIVE_BAND:
            verdict = Verdict.INCONCLUSIVE
        elif n > critical_r:
            verdict = Verdict.NON_MEMBER
        else:
            full = cf.power_sum(n)
            half = cf.power_sum(n, stop=N // 2)
            plateau = full <= 0.0 or (full - half) <= PLATEAU_FRACTION * full
            verdict = Verdict.MEMBER if plateau else Verdict.INCONCLUSIVE
        # antitone: no verdict ranks above the one at n - 1
        verdicts[n] = min(verdict, verdicts.get(n - 1, verdict), key=_VERDICT_RANK.__getitem__)

    return MembershipReport(
        boundary_defects=defects,
        decay_slope=slope,
        critical_r=critical_r,
        verdict_per_n=verdicts,
    )


def mode_sequence(N: int) -> list[Mode]:
    """First N mode pairs in the fixed matrix ordering (1,cos), (1,sin), (2,cos), ..."""
    N = _check_integer(N, 1, InvalidModeError, "mode count")
    out: list[Mode] = []
    for m in range(1, N + 1):
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
    diagonality independently.
    """
    n = _check_ladder_index(n)
    modes = mode_sequence(N)
    if force_quadrature:
        scales = _ladder_scales(modes, n, cfg)
        shifted = [eigenvalue(cfg, mode.m) * scale for mode, scale in zip(modes, scales)]
        return _ladder_matrix(_basis_side(modes, shifted, cfg, spec),
                              _basis_side(modes, scales, cfg, spec), n, cfg, spec).real
    # one-term polynomials of different modes share no mode, so every
    # off-diagonal pair is exactly 0j
    scaled = [scaled_basis(mode, n, cfg) for mode in modes]
    return np.diag([leftdef_inner(apply_ell(z), z, n, cfg, spec).real for z in scaled])


def _ladder_scales(modes, n: int, cfg: SpectralConfig) -> list[float]:
    """lambda_m**(-n/2) for each mode, the factors of ``scaled_basis``; 1.0 at n = 0."""
    return [eigenvalue(cfg, mode.m) ** (-n / 2.0) for mode in modes]


def boundary_antisymmetry_defect(f, cfg: SpectralConfig, order: int = 0) -> float:
    """|f^(j)(a) + f^(j)(b)|, zero exactly when the j-th derivative is anti-periodic.

    Both endpoints are evaluated in one call on the array [a, b]; a function
    that does not accept the array is called at each endpoint as a scalar.
    """
    fa, fb = _endpoint_values(f, cfg, order)
    return abs(complex(fa) + complex(fb))


@dataclass(frozen=True)
class DomainVerdict:
    """Operator domain check: boundary defects and top derivative integrability."""

    ladder_index: int
    boundary_defects: tuple[tuple[int, float], ...]
    top_deriv_norm_sq: float
    in_sqrt_domain: bool
    in_operator_domain: bool


def _boundary_defects(f, count: int, cfg: SpectralConfig,
                      spec: QuadratureSpec) -> tuple[tuple[tuple[int, float], ...], int]:
    """Boundary defects (j, |f^(j)(a) + f^(j)(b)|) for j < count, and j0.

    j0 is the first order whose defect exceeds its threshold, or count when
    none does.  The threshold of order j is BOUNDARY_TOL times the L2 norm
    of f under spec, plus, when f supplies order j + 1, the rounding of the
    endpoint values: 4 eps max(|a|, |b|) (|f^(j+1)(a)| + |f^(j+1)(b)|).  Far
    from the origin that rounding, about one ulp of |a| times the slope, can
    exceed BOUNDARY_TOL * ||f||_2, which shrinks with the length.  The
    rounding is read only for a defect above that first term, so only then
    is f^(j+1) evaluated at the endpoints beside its own defect.  By the
    domain theorem the anti-periodic conditions of the n-th ladder space
    hold exactly when j0 >= n.
    """
    limit = BOUNDARY_TOL * max(_norm(l2_inner(f, f, cfg, spec)), 1e-300)
    defects = tuple((j, boundary_antisymmetry_defect(f, cfg, j)) for j in range(count))
    j0 = next((j for j, d in defects
               if not (d <= limit or d <= limit + _endpoint_rounding(f, cfg, j + 1))), count)
    return defects, j0


def _endpoint_rounding(f, cfg: SpectralConfig, order: int) -> float:
    """4 eps max(|a|, |b|) (|f^(order)(a)| + |f^(order)(b)|), or 0 when f lacks the order.

    The slope only bounds the rounding and never decides a verdict, so a slope
    that cannot be evaluated at an endpoint (a missing order, a division by
    zero or a domain error at a square-root endpoint) or is not finite adds 0.
    """
    try:
        fa, fb = _endpoint_values(f, cfg, order)
        slope = abs(complex(fa)) + abs(complex(fb))
    except (ArithmeticError, ValueError):
        return 0.0
    term = ENDPOINT_ROUNDING * max(abs(cfg.a), abs(cfg.b)) * slope
    return term if math.isfinite(term) else 0.0


def _derivative_norm_sq(f, order: int, cfg: SpectralConfig, spec: QuadratureSpec) -> float:
    """Quadrature of |f^(order)|^2; infinite when it cannot be formed on the nodes."""
    try:
        top = _on_grid(f, cfg, spec)(order)
        return float(np.real(_weighted_sum(top * np.conjugate(top), cfg, spec)))
    except SemiFourierError:
        return math.inf


def in_v_space(f, n: int, cfg: SpectralConfig,
               spec: QuadratureSpec = DEFAULT_QUADRATURE) -> bool:
    """Direct check of the n-th ladder space: j0 >= n and f^(n) in L2."""
    n = _check_ladder_index(n)
    derivative_evaluator(f, n)
    _, j0 = _boundary_defects(f, n, cfg, spec)
    return j0 >= n and _derivative_norm_sq(f, n, cfg, spec) < math.inf


def domain_indicator(f, n: int, cfg: SpectralConfig,
                     spec: QuadratureSpec = DEFAULT_QUADRATURE) -> DomainVerdict:
    """Check membership in the domain of the n-th ladder operator.

    The domain of the n-th operator in the self-adjoint ladder is the
    (n+2)-nd ladder space: boundary defects must vanish for derivative
    orders 0..n+1 and the (n+2)-nd derivative must be square integrable.
    n = 0 addresses the base operator itself (domain = second ladder space).
    A separate flag reports membership in the first ladder space, the
    domain of the operator square root.  Both read j0 from one set of
    defects.
    """
    n = _check_integer(n, 0, InvalidModeError, "operator index")
    derivative_evaluator(f, n + 2)
    defects, j0 = _boundary_defects(f, n + 2, cfg, spec)
    top_norm_sq = _derivative_norm_sq(f, n + 2, cfg, spec)
    return DomainVerdict(
        ladder_index=n,
        boundary_defects=defects,
        top_deriv_norm_sq=top_norm_sq,
        in_sqrt_domain=j0 >= 1 and _derivative_norm_sq(f, 1, cfg, spec) < math.inf,
        in_operator_domain=j0 >= n + 2 and top_norm_sq < math.inf,
    )
