"""Gegenbauer polynomials over exact and float coefficient fields.

The package computes the polynomials by three independent routes (symbolic
generating-function expansion, three-term recurrence, conjugate-factor
convolution at t = cos phi), bounds truncation tails with the t = 1 majorant,
and verifies the rising-factorial convolution identity

    sum_{k=0}^m (lam)_k (lam)_{m-k} / (k! (m-k)!)  ==  (2 lam)_m / m!

exactly over the rationals and to tolerance over floats.

Each public name is declared once, in the `__all__` of the layer that defines it;
the package re-exports those lists.  `cli` is not imported here, so that importing
the library does not load the command-line front end.
"""

from . import coefficients, fields, gegenbauer, identity, polynomials, series
from .coefficients import *
from .fields import *
from .gegenbauer import *
from .identity import *
from .polynomials import *
from .series import *

__version__ = "0.1.0"

__all__ = [*fields.__all__, *coefficients.__all__, *polynomials.__all__, *series.__all__,
           *gegenbauer.__all__, *identity.__all__]
