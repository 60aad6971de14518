"""Named test functions with known expansion behaviour.

Catalog names understood by the command line and the verification suites:

- ``mode:<m>:<cos|sin>``  a single basis function,
- ``sawtooth``            x - (a+b)/2, anti-periodic itself but with a
                          constant first derivative, so it sits in the first
                          ladder space and no higher,
- ``synthetic:<p>``       coefficient-defined profile |c_m| = lambda_m**(-p/2)
                          (cosine branch, no pointwise handle),
- ``offset-cosine``       cos(x) * (x - (a+b)/2), which violates the
                          boundary condition at order zero on (0, pi).

Entries carry closed-form coefficients where available, as a formula that
returns the cosine and sine coefficient arrays of modes 1..N at once; a
``mode:`` entry needs none, since its handle is exact.
Coefficient vectors built from the closed form stay accurate at mode indices
far beyond what the fixed quadrature budget can resolve.  The closed forms and
handles take the basis conventions from :mod:`semifourier.spectral`: the
sawtooth its frequencies, phase and sqrt(2/(b-a)), the offset-cosine handle
the derivative cycle of the cosine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SemiFourierError
from .expansion import CoeffVector, _check_truncation, classical_coeffs
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec
from .spectral import (
    Branch,
    FunctionHandle,
    Mode,
    SpectralConfig,
    TrigPolynomial,
    _CYCLE,
    _normalization,
    _phase,
    angular_frequencies,
    basis_polynomial,
    eigenvalues,
)

__all__ = ["CatalogEntry", "resolve", "available_functions", "coeff_vector"]

_HANDLE_DERIVS = 7  # derivatives 0..6 supplied for pointwise catalog entries


@dataclass(frozen=True)
class CatalogEntry:
    """A named function, its pointwise handle (if any), and known facts.

    A ``mode:`` entry carries no closed form: its handle is the one-term
    basis polynomial, whose coefficients are exact already.
    """

    name: str
    known_ladder: int | None  # largest ladder index with membership on (0, pi); None = all
    # cfg -> pointwise handle, or None for a coefficient-only entry
    handle: Callable[[SpectralConfig], TrigPolynomial | FunctionHandle | None]
    # (cfg, N) -> (a, b): cosine and sine coefficient arrays of modes 1..N
    coeff_formula: Callable[[SpectralConfig, int], tuple[np.ndarray, np.ndarray]] | None = None


def _sawtooth_handle(cfg: SpectralConfig) -> FunctionHandle:
    center = (cfg.a + cfg.b) / 2.0
    derivs = [
        lambda xs, c=center: np.subtract(xs, c),
        lambda xs: np.ones(np.shape(xs))[()],
    ]
    derivs += [lambda xs: np.zeros(np.shape(xs))[()]] * (_HANDLE_DERIVS - 2)
    return FunctionHandle(tuple(derivs))


def _sawtooth_coeffs(cfg: SpectralConfig, N: int) -> tuple[np.ndarray, np.ndarray]:
    # integral of (x - (a+b)/2) against the normalized basis in closed form
    omega = angular_frequencies(cfg, N)
    scale = -2.0 * _normalization(cfg) / (omega * omega)
    # scaled in place: the phase arrays are fresh, and a second pair costs page faults at large N
    return tuple(np.multiply(wave, scale, out=wave) for wave in _phase(cfg, omega))


def _cos_cycle(r: int) -> Callable[[np.ndarray], np.ndarray]:
    wave, sign = _CYCLE[r % 4]
    return lambda t: sign * (np.sin(t) if wave is Branch.SIN else np.cos(t))


def _offset_cosine_handle(cfg: SpectralConfig) -> FunctionHandle:
    center = (cfg.a + cfg.b) / 2.0

    def make(d: int):
        lead = _cos_cycle(d)
        trail = _cos_cycle(d - 1) if d >= 1 else None

        def fd(xs, c=center, d=d):
            # Leibniz rule on cos(x) * (x - c): only two terms survive
            out = lead(xs) * np.subtract(xs, c)
            if trail is not None:
                out = out + d * trail(xs)
            return out

        return fd

    return FunctionHandle(tuple(make(d) for d in range(_HANDLE_DERIVS)))


def _scalar_powers(values: np.ndarray, exponent: float) -> np.ndarray:
    """x ** exponent for each element, through libm ``pow`` as Python does.

    The synthetic profile lambda**(-p/2) keeps libm as the more accurate power: on the first 400
    modes of (-2.5, 0.75, 2.2) where libm and ``np.power`` disagree, for each p in 0.5, 1.5, 3.5,
    4.2 and 7, libm is correctly rounded on 1,982 of 2,000 and ``np.power`` on 18 (mpmath, 200 bits).
    """
    return np.fromiter(map(math.pow, values.tolist(), itertools.repeat(exponent)),
                       dtype=float, count=len(values))


def _synthetic_coeffs(p: float) -> Callable[[SpectralConfig, int], tuple[np.ndarray, np.ndarray]]:
    def formula(cfg: SpectralConfig, N: int) -> tuple[np.ndarray, np.ndarray]:
        return _scalar_powers(eigenvalues(cfg, N), -p / 2.0), np.zeros(N)

    return formula


def available_functions() -> list[str]:
    return ["mode:<m>:<cos|sin>", "sawtooth", "synthetic:<p>", "offset-cosine"]


def resolve(name: str) -> CatalogEntry:
    """Look up a catalog entry by name, parsing parametric forms."""
    if name == "sawtooth":
        return CatalogEntry(
            name="sawtooth",
            known_ladder=1,
            handle=_sawtooth_handle,
            coeff_formula=_sawtooth_coeffs,
        )
    if name == "offset-cosine":
        return CatalogEntry(
            name="offset-cosine",
            known_ladder=0,
            handle=_offset_cosine_handle,
            coeff_formula=None,
        )
    if name.startswith("mode:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise SemiFourierError(f"expected mode:<m>:<cos|sin>, got {name!r}")
        try:
            m = int(parts[1])
        except ValueError:
            raise SemiFourierError(f"mode index must be an integer, got {parts[1]!r}") from None
        if m < 1:
            raise SemiFourierError(f"mode index must be >= 1, got {m}")
        if parts[2] not in ("cos", "sin"):
            raise SemiFourierError(f"branch must be cos or sin, got {parts[2]!r}")
        branch = Branch(parts[2])
        return CatalogEntry(
            name=name,
            known_ladder=None,
            handle=lambda cfg, m=m, branch=branch: basis_polynomial(cfg, Mode(m, branch)),
        )
    if name.startswith("synthetic:"):
        raw = name.split(":", 1)[1]
        try:
            p = float(raw)
        except ValueError:
            raise SemiFourierError(f"synthetic profile needs a real p, got {raw!r}") from None
        if not (math.isfinite(p) and p > 0):
            raise SemiFourierError(f"synthetic profile needs p > 0, got {p}")
        return CatalogEntry(
            name=name,
            known_ladder=None,
            handle=lambda cfg: None,
            coeff_formula=_synthetic_coeffs(p),
        )
    raise SemiFourierError(
        f"unknown function {name!r}; available: {', '.join(available_functions())}"
    )


def coeff_vector(entry: CatalogEntry | str, N: int, cfg: SpectralConfig,
                 spec: QuadratureSpec = DEFAULT_QUADRATURE) -> CoeffVector:
    """Classical coefficient vector for a catalog entry.

    Closed-form coefficients are used when available, since quadrature
    cannot resolve high mode indices on a fixed grid; otherwise the handle
    goes to ``classical_coeffs``, which reads a trig polynomial's (a
    ``mode:`` entry's) coefficients exactly and integrates anything else.
    """
    if isinstance(entry, str):
        entry = resolve(entry)
    if entry.coeff_formula is not None:
        a, b = entry.coeff_formula(cfg, _check_truncation(N))
        return CoeffVector(cfg, a, b)
    f = entry.handle(cfg)
    if f is None:
        raise SemiFourierError(f"{entry.name} has no pointwise handle; closed form required")
    return classical_coeffs(f, N, cfg, spec)
