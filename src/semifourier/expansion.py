"""Eigenfunction expansions: coefficients, partial sums, and error measures.

Classical coefficients are L2 inner products against the orthonormal basis;
ladder coefficients against the rescaled basis differ exactly by the factor
lambda_m**(n/2), so they can be computed either directly from the defining
derivative integrals or by rescaling the classical ones.  Partial sums are
always built from classical coefficients; expansion errors may be measured
in any ladder norm the function supports.  For a function handle the
residual f - s_M is taken on the quadrature grid, as the handle's values
minus the partial sum's values, and goes through the same ladder sum as
every other quadrature-route inner product.  ``_expansion_errors`` measures
many orders M in one ascending sweep: the partial sum of each derivative
order is continued term by term from one M to the next, the handle is
evaluated once per order, and the L2 and ladder errors read the same
residual arrays; ``expansion_error`` is its one-M case.  With f None, a
function known only by its coefficients, the error is the stored tail
beyond M, the power sum of modes M < m <= N in the same norm.  Classical
coefficients of a handle, and direct ladder coefficients, walk the basis in
blocks of at most ``spectral._BLOCK_MODES`` modes.

A ``CoeffVector`` owns the coefficient side of the ladder: its eigenvalues
lambda_1..lambda_N, its per-mode power |a_m|^2 + |b_m|^2 and the power sums
sum_m lambda_m**r * (|a_m|^2 + |b_m|^2), each built once per vector.  Every
rescaling, Parseval defect, series norm and tail reads them from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidModeError,
    SemiFourierError,
    TruncationExceededError,
)
from .ladder import _check_ladder_index, _ladder_scales, leftdef_inner, mode_sequence
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    _basis_side,
    _function_side,
    _grid_waves,
    _inner,
    _ladder_matrix,
    _norm,
    _on_grid,
    _require_finite,
    composite_rule,
    l2_inner,
)
from .spectral import (
    Branch,
    Mode,
    SpectralConfig,
    TrigPolynomial,
    _BLOCK_MODES,
    _basis_blocks,
    _check_integer,
    _normalization,
    derivative_evaluator,
    eigenvalues,
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
    coefficients taken against the n-th rescaled basis.  ``eigenvalues`` and
    ``power`` are built on first use and kept, read-only.
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

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """lambda_1, ..., lambda_N of the vector's config."""
        lam = eigenvalues(self.config, self.size)
        lam.flags.writeable = False
        return lam

    @cached_property
    def power(self) -> np.ndarray:
        """|a_m|^2 + |b_m|^2 for m = 1..N."""
        c2 = np.abs(self.cos_coeffs) ** 2 + np.abs(self.sin_coeffs) ** 2
        c2.flags.writeable = False
        return c2

    def power_sum(self, r: float = 0, start: int = 0, stop: int | None = None) -> float:
        """sum lambda_m**r * power_m over power[start:stop]; r = 0 builds no eigenvalues."""
        power = self.power[start:stop]
        if r == 0:
            return float(np.sum(power))
        return float(np.sum(self.eigenvalues[start:stop] ** r * power))


def _check_truncation(N: int) -> int:
    return _check_integer(N, 1, InvalidModeError, "truncation order")


def classical_coeffs(f, N: int, cfg: SpectralConfig,
                     spec: QuadratureSpec = DEFAULT_QUADRATURE) -> CoeffVector:
    """Classical coefficients a_m = (f, z_{m,cos}), b_m = (f, z_{m,sin}) for m <= N.

    Trig polynomial input reproduces its own coefficients exactly, each
    stored term of a mode m <= N in its cell and 0j elsewhere; anything
    else is integrated against the basis on the shared quadrature grid.  The
    waves come from one walk of ``_basis_blocks`` over modes 1..N, so memory
    stays bounded at any N, and each row is summed pairwise as one
    ``basis_eval`` vector is.
    """
    N = _check_truncation(N)
    if isinstance(f, TrigPolynomial):
        if f.config != cfg:
            raise InvalidConfigError("trig polynomial config does not match requested config")
        a, b = np.zeros(N, dtype=complex), np.zeros(N, dtype=complex)
        for mode, coeff in f.items():
            if mode.m <= N:
                (a if mode.branch is Branch.COS else b)[mode.m - 1] = coeff
        return CoeffVector(cfg, a, b)

    nodes, weights = composite_rule(cfg, spec)
    values = _on_grid(f, cfg, spec)(0)
    _require_finite(values, nodes)
    wf = weights * values
    scale = _normalization(cfg)
    sums = [(np.sum(wf * (scale * cos_psi), axis=1), np.sum(wf * (scale * sin_psi), axis=1))
            for _, cos_psi, sin_psi in _basis_blocks(cfg, range(1, N + 1), nodes)]
    a, b = (np.concatenate(branch) for branch in zip(*sums))
    return CoeffVector(cfg, a, b)


def leftdef_coeffs(f, N: int, n: int, cfg: SpectralConfig,
                   spec: QuadratureSpec = DEFAULT_QUADRATURE,
                   method: str = "rescale") -> CoeffVector:
    """Ladder coefficients against the n-th rescaled basis.

    method="rescale" multiplies classical coefficients by lambda_m**(n/2);
    method="direct" evaluates the defining inner products by quadrature,
    which requires derivatives of f up to order n.  Each derivative of f is
    evaluated on the nodes once; the scaled basis, in ``mode_sequence``
    order, then meets them in one ladder sum per block of
    ``spectral._BLOCK_MODES`` modes, so memory stays bounded at any N.  An
    entry does not depend on the other rows of its sum, so the blocks give
    the bits of one sum over all 2N basis functions.  The two methods agree
    up to quadrature error, which the verification suite checks.
    """
    n = _check_ladder_index(n)
    if method == "rescale":
        return _rescale(classical_coeffs(f, N, cfg, spec), n)
    if method == "direct":
        N = _check_truncation(N)
        derivative_evaluator(f, n)
        f_side = _function_side(f, cfg, spec)
        f_values = [f_side(j) for j in range(n + 1)]
        modes = mode_sequence(N)
        rows = []
        for start in range(0, len(modes), 2 * _BLOCK_MODES):
            block = modes[start:start + 2 * _BLOCK_MODES]  # both branches of _BLOCK_MODES indices
            basis = _basis_side(block, _ladder_scales(block, n, cfg), cfg, spec)
            rows.append(_ladder_matrix(f_values.__getitem__, basis, n, cfg, spec)[0])
        row = np.concatenate(rows)
        return CoeffVector(cfg, row[0::2], row[1::2], ladder=n)
    raise SemiFourierError(f"unknown method {method!r}, expected 'rescale' or 'direct'")


def _rescale(cv: CoeffVector, n: int) -> CoeffVector:
    """Ladder coefficients lambda_m**(n/2) * c_m from classical ones."""
    factor = cv.eigenvalues ** (n / 2.0)
    return CoeffVector(cv.config, factor * cv.cos_coeffs, factor * cv.sin_coeffs, ladder=n)


def partial_sum(cv: CoeffVector, M: int) -> TrigPolynomial:
    """Partial sum s_M = sum_{m<=M} a_m z_{m,cos} + b_m z_{m,sin} as a trig polynomial."""
    return _modes_between(cv, 0, _check_partial_sum_order(cv, M))


def _check_partial_sum_order(cv: CoeffVector, M: int) -> int:
    M = _check_integer(M, 1, SemiFourierError, "partial sum order")
    if M > cv.size:
        raise TruncationExceededError(f"partial sum order {M} exceeds truncation {cv.size}")
    if cv.ladder is not None:
        raise SemiFourierError(
            "partial sums are built from classical coefficients; rescale first"
        )
    return M


def _modes_between(cv: CoeffVector, start: int, stop: int) -> TrigPolynomial:
    """s_stop - s_start: the terms of modes start < m <= stop, zero coefficients dropped."""
    terms: dict[Mode, complex] = {}
    for m, a, b in zip(range(start + 1, stop + 1), cv.cos_coeffs[start:stop].tolist(),
                       cv.sin_coeffs[start:stop].tolist()):
        terms[Mode(m, Branch.COS)] = a
        terms[Mode(m, Branch.SIN)] = b
    return TrigPolynomial(cv.config, terms)


def expansion_error(f, cv: CoeffVector, M: int, n: int | None = None,
                    spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Norm of f - s_M, in L2 (n is None) or in the n-th ladder norm.

    Trig polynomial input is handled exactly in coefficient space; for a
    function handle the residual derivatives f^(j) - s_M^(j) are taken on
    the quadrature grid and the defining integrals summed there.  f None
    stands for a function known only by cv: the error is then the stored
    tail, the square root of sum_{M < m <= N} lambda_m**r (|a_m|^2 +
    |b_m|^2) with r = 0 for L2 and r = n for the ladder norm.  This is the
    one-checkpoint case of ``_expansion_errors``.
    """
    return _expansion_errors(f, cv, [M], n, spec)[0][-1]


def _expansion_errors(f, cv: CoeffVector, Ms, n: int | None,
                      spec: QuadratureSpec = DEFAULT_QUADRATURE) -> list[tuple[float, ...]]:
    """For each M of the ascending Ms: the L2 norm of f - s_M, then its n-th ladder norm if n is given.

    A trig polynomial is handled exactly in coefficient space, and f None
    gives the stored tail of cv beyond M (``expansion_error``).  For a
    function handle one ascending sweep serves every M: each derivative
    order j keeps one grid accumulator of s_M^(j) and continues it with the
    terms of the modes the next M adds, so s_M is the sum from zero in
    (m, branch) order that ``_on_grid`` of ``partial_sum(cv, M)`` gives, bit
    for bit.  f^(j) is evaluated on the nodes once per order, before the
    first M.  s_M is real while every coefficient up to M is.  Both norms
    read the same residual arrays f^(j) - s_M^(j), formed once per M.
    """
    Ms = [_check_partial_sum_order(cv, M) for M in Ms]
    orders = (0,) if n is None else (0, _check_ladder_index(n))
    if f is None:
        return [tuple(math.sqrt(cv.power_sum(r, start=M)) for r in orders) for M in Ms]
    cfg = cv.config
    if isinstance(f, TrigPolynomial):
        errors = []
        for M in Ms:
            diff = f - partial_sum(cv, M)
            errors.append(tuple(_norm(_inner(diff, diff, order, cfg, spec, False)) for order in orders))
        return errors

    nodes, _ = composite_rule(cfg, spec)
    f_grid = _on_grid(f, cfg, spec)
    f_values = [f_grid(j) for j in range(orders[-1] + 1)]
    sums = [np.zeros(nodes.shape, dtype=complex) for _ in f_values]  # s_M^(j) on the nodes
    real, done, errors = True, 0, []
    for M in Ms:
        piece = _modes_between(cv, done, M)
        rows = _grid_waves(cfg, spec, piece._mode_indices())
        real = real and piece.is_real
        residuals = []
        for j, acc in enumerate(sums):
            piece._combine(nodes.shape, rows, j, acc)
            residuals.append((f_values[j] - (acc.real if real else acc))[None])
        side = residuals.__getitem__
        errors.append(tuple(_norm(_ladder_matrix(side, side, order, cfg, spec)[0, 0]) for order in orders))
        done = M
    return errors


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

    if cv.ladder is None:
        return norm_sq - cv.power_sum(0 if n is None else n)
    if n != cv.ladder:
        raise SemiFourierError(f"ladder coefficients for n={cv.ladder} cannot certify the n={n} norm")
    return norm_sq - cv.power_sum()
