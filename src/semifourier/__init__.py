"""Spectral toolkit for the anti-periodic Fourier operator -y'' + k y.

Eigenvalues and eigenfunctions on an interval with anti-periodic boundary
conditions, the associated Sobolev-type ladder of inner products, expansion
coefficients and partial sums, and diagnostics for ladder membership.

The package re-exports each module's ``__all__``: every public name is
declared once, in the module that defines it.
"""

from . import errors, expansion, ladder, quadrature, spectral
from .errors import *  # noqa: F403
from .expansion import *  # noqa: F403
from .ladder import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *spectral.__all__, *quadrature.__all__, *ladder.__all__,
           *expansion.__all__, *errors.__all__]
