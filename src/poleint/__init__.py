"""Exact integration of 1/(z(z-a_1)...(z-a_q)) as a formal series at infinity.

The package computes the antiderivative of 1/Q two independent ways (a
root-free expansion and a partial-fraction log-series sum) over exact
rational arithmetic, verifies the Vandermonde and symmetric-function
identities its coefficients satisfy, and demonstrates the shrinking-root
limit toward -1/(q z^q).
"""

from . import asymptotics, integrate, parser, polynomial, series, symmetric
from .asymptotics import *
from .integrate import *
from .parser import *
from .polynomial import *
from .series import *
from .symmetric import *

__version__ = "0.1.0"

__all__ = sorted(asymptotics.__all__ + integrate.__all__ + parser.__all__
                 + polynomial.__all__ + series.__all__ + symmetric.__all__)
