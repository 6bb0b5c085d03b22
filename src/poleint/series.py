"""Truncated formal series in 1/z with exact rational coefficients.

A value stores the coefficients b_0..b_N of

    sum_{n=0}^{N} b_n z^{-n}  +  O(z^{-(N+1)})

together with the truncation index N.  The window of known coefficients is
explicit data: every operation returns the largest window its inputs can
soundly support, so a result's coefficients are always exact, never merely
"probably right up to where we stopped".

Two series can only be compared where both are known; `agrees_with` does
exactly that.

Antidifferentiation loses one order of information.  A series with a
nonzero z^0 or z^-1 term has no antiderivative in this ring (the z^-1 term
would integrate to a logarithm), which raises NotIntegrableInRing.
"""

from __future__ import annotations

from fractions import Fraction

from .asymptotics import evaluate_all
from .polynomial import Poly, Rat, Value, as_rat

__all__ = ["InvZSeries", "NotIntegrableInRing"]


class NotIntegrableInRing(ValueError):
    """The antiderivative would leave the ring of series in 1/z."""


class InvZSeries(Value):
    """Coefficients b_0..b_N (N = truncation) of a series in 1/z, up to O(z^-(N+1))."""

    __slots__ = ("truncation", "coefficients")

    def __post_init__(self) -> None:
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")
        coeffs = tuple(as_rat(c) for c in self.coefficients)
        if len(coeffs) != self.truncation + 1:
            raise ValueError(
                f"expected {self.truncation + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "coefficients", coeffs)

    # -- constructors --------------------------------------------------

    @classmethod
    def log_factor(cls, a: Rat | int | str, truncation: int) -> InvZSeries:
        """The series of log(1 - a/z) with zero constant term:

            L(a) = - sum_{n>=1} (a^n / n) z^-n.

        Defining contract: L(a)' equals a/(z(z-a)), the series
        sum_{n>=1} a^n z^-(n+1).  The sign and index range here are forced by
        that derivative identity.
        """
        ar = as_rat(a)
        coeffs = [Fraction(0)] * (truncation + 1)
        power = ar
        for n in range(1, truncation + 1):
            coeffs[n] = -power / n
            power *= ar
        return cls(truncation, tuple(coeffs))

    @classmethod
    def from_rational(
        cls, numerator: Poly, denominator: Poly, truncation: int
    ) -> InvZSeries:
        """Expansion at infinity of numerator/denominator, root-free.

        Requires deg(numerator) < deg(denominator) and a nonzero denominator;
        the result f is the unique series with zero constant term satisfying
        denominator * f = numerator, obtained by long division in powers of
        1/z using only the polynomial coefficients.
        """
        if denominator.is_zero:
            raise ValueError("denominator must be nonzero")
        if numerator.degree >= denominator.degree:
            raise ValueError("numerator degree must be below denominator degree")
        lead = denominator.coefficients[-1]
        if lead != 1:
            numerator = numerator * (1 / lead)
            denominator = denominator * (1 / lead)
        d, p = denominator.degree, denominator.coefficients
        padded = numerator.coefficients + (Fraction(0),) * (d - numerator.degree - 1)
        coeffs = [Fraction(0)] * (truncation + 1)
        for n in range(1, truncation + 1):
            m = n - 1
            acc = padded[d - 1 - m] if m < d else Fraction(0)
            for j in range(1, min(d, m) + 1):
                acc -= p[d - j] * coeffs[n - j]
            coeffs[n] = acc
        return cls(truncation, tuple(coeffs))

    # -- structure -----------------------------------------------------

    def agrees_with(self, other: InvZSeries) -> bool:
        """Equality up to the smaller of the two truncations."""
        n = min(self.truncation, other.truncation)
        return self.coefficients[: n + 1] == other.coefficients[: n + 1]

    # -- ring operations -------------------------------------------------

    def __add__(self, other: InvZSeries) -> InvZSeries:
        if not isinstance(other, InvZSeries):
            return NotImplemented
        pairs = zip(self.coefficients, other.coefficients)  # up to the smaller window
        return InvZSeries(
            min(self.truncation, other.truncation), tuple(a + b for a, b in pairs)
        )

    def __mul__(self, other: Rat | int | str) -> InvZSeries:
        """Scale every coefficient by an exact rational."""
        c = as_rat(other)
        return InvZSeries(self.truncation, tuple(c * b for b in self.coefficients))

    # -- calculus ---------------------------------------------------------

    def antiderivative(self) -> InvZSeries:
        """The antiderivative normalized to vanish at infinity (b_0 = 0).

        Requires zero z^0 and z^-1 coefficients; the latter would integrate
        to a logarithm, which this ring cannot express.
        """
        if self.truncation < 1:
            raise ValueError(
                "window too small to certify the z^-1 coefficient vanishes"
            )
        if self.coefficients[0] != 0:
            raise NotIntegrableInRing(
                "nonzero z^0 coefficient: the antiderivative is not a series in 1/z"
            )
        if self.coefficients[1] != 0:
            raise NotIntegrableInRing(
                "nonzero z^-1 coefficient: its antiderivative is a logarithm"
            )
        out = [Fraction(0)] * self.truncation
        for m in range(1, self.truncation):
            out[m] = -self.coefficients[m + 1] / m
        return InvZSeries(self.truncation - 1, tuple(out))

    # -- numerics -----------------------------------------------------------

    def evaluate(self, z: complex) -> complex:
        """Sum the truncated series at one nonzero point by `asymptotics.evaluate_all`."""
        return next(evaluate_all(self.coefficients, (z,)))
