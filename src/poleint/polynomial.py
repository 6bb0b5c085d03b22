"""Dense univariate polynomials over the exact rational field.

The coefficient field is `fractions.Fraction`: values are always stored
reduced with a positive denominator, and every operation here is exact.
No other field type can be dropped in: `as_rat` makes every coefficient a
Fraction, and printing and the parser's size bound read its numerator and
denominator.

Coefficients are stored lowest degree first, normalized so that a nonzero
polynomial has a nonzero leading coefficient.  The zero polynomial is the
empty tuple and has degree -1.
"""

from __future__ import annotations

from collections.abc import Iterable
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from functools import cache

__all__ = ["Poly", "Rat"]

Rat = Fraction


def as_rat(value: Rat | int | str) -> Fraction:
    """Coerce to an exact rational; floats are refused to keep arithmetic exact."""
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int, or string")
    return value if type(value) is Fraction else Fraction(value)


# Integer products in Decimal, exact at any size: a rounding would raise.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])

_LEAF_DIGITS = 300  # L: str leaves of at most 2L + 1 digits, under any legal limit
_SPLIT_BITS = 16384  # S: integers of at most 2*S bits print by divmod alone


@cache
def _power_of_five(i: int) -> int:
    """5^(L * 2^i), each level the square of the one below."""
    if not i:
        return 5**_LEAF_DIGITS
    return _power_of_five(i - 1) ** 2


@cache
def _power_of_two(i: int) -> Decimal:
    """Decimal(2^(S * 2^i)), each level the exact square of the one below."""
    if not i:
        return Decimal(1 << _SPLIT_BITS)
    half = _power_of_two(i - 1)
    return EXACT.multiply(half, half)


def _digits(x: int) -> str:
    """str(x) for 0 <= x < 2^(2S), free of the int-to-str digit limit.

    With m = floor((x.bit_length() - 1) * 1233 / 4096), 10^m <= x, as
    1233/4096 < log10(2).  Below m = 2L, str prints x, at most 2L + 1
    digits.  Otherwise x splits at 10^k = 5^k 2^k, k = L * 2^i the largest
    such k with 2k <= m: (x >> k) divmod 5^k gives the high half, and the
    remainder shifted back over x's k low bits the low one, zero-padded to k
    digits; both print the same way.  Below 2^(2S) the ladder stops at 5^(16L).
    """
    m = (x.bit_length() - 1) * 1233 >> 12
    if m < 2 * _LEAF_DIGITS:
        return str(x)
    i = (m // (2 * _LEAF_DIGITS)).bit_length() - 1
    k = _LEAF_DIGITS << i
    hi, r = divmod(x >> k, _power_of_five(i))
    return _digits(hi) + _digits(r << k | x & ((1 << k) - 1)).zfill(k)


def _decimal(x: int) -> Decimal:
    """Decimal(x), exact, without Decimal(int)'s quadratic cost on large x.

    Above 2*S bits, x splits at k = S * 2^i, the largest such k with
    2k <= x.bit_length(), into x >> k and x & (2^k - 1): shifts and masks are
    linear, where divmod by 2^k is not.  The halves convert the same way and
    join as hi * 2^k + lo in EXACT.  Floor shifts make the split hold for
    negative x too.
    """
    n = x.bit_length()
    if n <= 2 * _SPLIT_BITS:
        return Decimal(_integer(x))
    i = (n // (2 * _SPLIT_BITS)).bit_length() - 1
    k = _SPLIT_BITS << i
    hi, lo = _decimal(x >> k), _decimal(x & ((1 << k) - 1))
    return EXACT.add(EXACT.multiply(hi, _power_of_two(i)), lo)


def _integer(x: int) -> str:
    """str(x), free of the int-to-str digit limit: by `_digits` up to 2*S
    bits, through `_decimal` above."""
    if x.bit_length() > 2 * _SPLIT_BITS:
        return str(_decimal(x))
    return f"-{_digits(-x)}" if x < 0 else _digits(x)


def format_quotient(numerator: int, denominator: int | Decimal = 1) -> str:
    """"p/q" for a numerator p over a positive denominator q it has no common
    factor with, or just "p" when q is 1.

    Integers of at most 2*S bits print by divmod on a ladder of powers of five
    (`_digits`), larger ones through Decimal, split on bits first
    (`_decimal`); neither is bound by the interpreter's int-to-str digit
    limit.  A Decimal denominator must be an integer of exponent 0; it prints
    as it is.
    """
    text = _integer(numerator)
    if denominator == 1:
        return text
    if isinstance(denominator, int):
        denominator = _integer(denominator)
    return f"{text}/{denominator}"


def format_rational(value: Fraction) -> str:
    """Canonical reduced form: "p/q", or just "p" when the denominator is 1."""
    value = Fraction(value)
    return format_quotient(value.numerator, value.denominator)


class Value:
    """Immutable record of the fields named in a subclass's `__slots__`, built by
    position or keyword, then normalized and checked by `__post_init__`.  Values
    compare, hash, print, pickle and pattern-match by field, in field order."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__match_args__
        values = {**dict(zip(names, args)), **kwargs}
        if len(values) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(map("{}={!r}".format, self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Poly(Value):
    """Polynomial in z as a normalized tuple of rational coefficients."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Rat | int | str] = ()) -> None:
        coeffs = [as_rat(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @classmethod
    def from_roots(cls, roots: Iterable[Rat | int | str]) -> Poly:
        """Monic polynomial with exactly the given roots."""
        p = cls((1,))
        for r in roots:
            p = p * cls((-as_rat(r), Fraction(1)))
        return p

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coefficients))

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly | Rat | int | str) -> Poly:
        if not isinstance(other, Poly):
            c = as_rat(other)
            return Poly(tuple(c * a for a in self.coefficients))
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Poly(out)

    def __pow__(self, n: int) -> Poly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> Poly:
        """Formal derivative: z maps to 1, constants map to zero."""
        return Poly(tuple(i * c for i, c in enumerate(self.coefficients) if i > 0))

    def __call__(self, x: Rat | int | str) -> Fraction:
        xr = as_rat(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * xr + c
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self.coefficients[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = format_rational(mag)
            else:
                zpart = "z" if i == 1 else f"z^{i}"
                body = zpart if mag == 1 else f"{format_rational(mag)}*{zpart}"
            if not parts:
                if c < 0:
                    # a leading "-z^k" would parse as (-z)^k; spell the unit out
                    if mag == 1 and i >= 2:
                        body = f"-1*{zpart}"
                    else:
                        body = f"-{body}"
                parts.append(body)
            else:
                parts.append(f" {'-' if c < 0 else '+'} {body}")
        return "".join(parts)
