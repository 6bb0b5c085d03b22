"""Recursive-descent parser for polynomial expressions in z.

Grammar (whitespace allowed between tokens, offsets are 0-based):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' uint)?
    atom     := 'z' | rational | '(' expr ')' | '-' atom
    rational := int ('/' posint)?

There is no division operator: rationals are single literals like 3/4, and
exponents are literal nonnegative integers.  Digits are ASCII 0-9 only.
Note that '^' binds to a whole atom, so "-z^2" is (-z)^2; write "-1*z^2" or
use a binary minus for the negated square.  The parser recurses once per
'(' or unary '-', so together they may nest at most MAX_NESTING deep; the
token that opens one more level is a parse error.  No product or power may
have degree above MAX_DEGREE; the '*' or the exponent that would exceed it is
a parse error, so the parser never expands a polynomial beyond that size.
Nor may base^e have e * (H + (degree + 1).bit_length()) above MAX_POWER_BITS,
H the largest numerator or denominator bit length in the base; the exponent
is the error's offset, and constant powers such as 9^9999999 are bounded too.
A product is charged the same measure, H + (degree + 1).bit_length(), for
each of its factors, and the '*' that takes the sum above MAX_POWER_BITS is
a parse error, so 9^50000*9^50000 is refused at its '*' although each power
alone passes.  A digit run reads free of the int-to-str digit limit, and one
above MAX_POWER_BITS bits is a parse error at its first digit.
Every parse error carries the byte offset it occurred at.
"""

from __future__ import annotations

from fractions import Fraction

# format_rational, the inverse of parse_rational, lives with Poly, which
# prints through it; it is offered here with the other text conversions.
from .polynomial import Poly, format_quotient, format_rational

__all__ = ["PolyParseError", "format_rational", "parse_factored_denominator",
           "parse_poly", "parse_rational"]

# str.isdigit also accepts non-ASCII digits such as '²' or '١', which int()
# then rejects or silently reads; the grammar's digits are ASCII only.
_DIGITS = frozenset("0123456789")

MAX_NESTING = 100
MAX_DEGREE = 1000
MAX_POWER_BITS = 2**18


class PolyParseError(ValueError):
    """Parse failure with the 0-based byte offset of the offending input."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


def _literal(digits: str, offset: int) -> int:
    """int(digits) for the ASCII digit run at `offset`, at most MAX_POWER_BITS bits."""
    if len(digits) <= 640:  # int() reads 640 digits under any int-to-str limit
        return int(digits)
    low = len(digits) // 2
    value = _literal(digits[:-low], offset) * 10**low + _literal(digits[-low:], offset)
    if value.bit_length() > MAX_POWER_BITS:
        raise PolyParseError(f"literal above {MAX_POWER_BITS} bits", offset)
    return value


def parse_rational(text: str) -> Fraction:
    """Parse an optionally signed integer or p/q literal into a reduced value."""
    i = 0
    sign = 1
    if i < len(text) and text[i] in "+-":
        sign = -1 if text[i] == "-" else 1
        i += 1
    start = i
    while i < len(text) and text[i] in _DIGITS:
        i += 1
    if i == start:
        raise PolyParseError("expected digits", i)
    numerator = _literal(text[start:i], start)
    denominator = 1
    if i < len(text) and text[i] == "/":
        i += 1
        dstart = i
        while i < len(text) and text[i] in _DIGITS:
            i += 1
        if i == dstart:
            raise PolyParseError("expected digits after '/'", i)
        denominator = _literal(text[dstart:i], dstart)
        if denominator == 0:
            raise PolyParseError("denominator must be nonzero", dstart)
    if i != len(text):
        raise PolyParseError(f"unexpected character {text[i]!r}", i)
    return Fraction(sign * numerator, denominator)


_Token = tuple[str, object, int]  # kind, value, offset


def _size(p: Poly) -> int:
    """H + (degree + 1).bit_length(), H the largest numerator or denominator
    bit length of p: the bits a product or power is charged per factor."""
    top = max([0, *(max(abs(x.numerator), x.denominator) for x in p.coefficients)])
    return top.bit_length() + (p.degree + 1).bit_length()


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if c in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", _literal(text[i:j], i), i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            name = text[i:j]
            if name != "z":
                raise PolyParseError(f"unknown name {name!r}", i)
            tokens.append(("z", name, i))
            i = j
            continue
        if c in "+-*^()/":
            tokens.append(("sym", c, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise PolyParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def _at_symbol(self, chars: str) -> bool:
        tok = self._peek()
        return tok is not None and tok[0] == "sym" and tok[1] in chars

    def expr(self) -> Poly:
        p = self.term()
        while self._at_symbol("+-"):
            _, op, _ = self._next()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Poly:
        p = self.factor()
        size = _size(p)
        while self._at_symbol("*"):
            offset = self._next()[2]
            f = self.factor()
            if p.degree + f.degree > MAX_DEGREE:
                raise PolyParseError(f"degree above {MAX_DEGREE}", offset)
            size += _size(f)
            if size > MAX_POWER_BITS:
                raise PolyParseError(f"product above {MAX_POWER_BITS} bits", offset)
            p = p * f
        return p

    def factor(self) -> Poly:
        base = self.atom()
        if self._at_symbol("^"):
            self._next()
            tok = self._peek()
            if tok is None or tok[0] != "int":
                where = tok[2] if tok else len(self.text)
                raise PolyParseError(
                    "exponent must be a nonnegative integer literal", where
                )
            self._next()
            e = tok[1]
            if base.degree * e > MAX_DEGREE:
                raise PolyParseError(f"degree above {MAX_DEGREE}", tok[2])
            if e * _size(base) > MAX_POWER_BITS:
                raise PolyParseError(f"power above {MAX_POWER_BITS} bits", tok[2])
            return base**e
        return base

    def atom(self) -> Poly:
        kind, value, offset = self._next()
        if kind == "sym" and value in "-(":
            if self.depth == MAX_NESTING:
                raise PolyParseError(f"nested deeper than {MAX_NESTING} levels", offset)
            self.depth += 1
            if value == "-":
                inner = -self.atom()
            else:
                inner = self.expr()
                closing = self._peek()
                if closing is None or closing[0] != "sym" or closing[1] != ")":
                    where = closing[2] if closing else len(self.text)
                    raise PolyParseError("expected ')'", where)
                self._next()
            self.depth -= 1
            return inner
        if kind == "z":
            return Poly((0, 1))
        if kind != "int":
            raise PolyParseError(f"unexpected token {value!r}", offset)
        # consume "/ int" only when it really is a rational literal
        if (
            self._at_symbol("/")
            and self.pos + 1 < len(self.tokens)
            and self.tokens[self.pos + 1][0] == "int"
        ):
            self._next()
            _, denom, dpos = self._next()
            if denom == 0:
                raise PolyParseError("denominator must be nonzero", dpos)
            return Poly((Fraction(value, denom),))
        return Poly((Fraction(value),))


def parse_poly(text: str) -> Poly:
    """Parse an expression over z into a fully expanded polynomial."""
    parser = _Parser(text)
    poly = parser.expr()
    trailing = parser._peek()
    if trailing is not None:
        kind, value, offset = trailing
        shown = format_quotient(value) if kind == "int" else repr(value)
        raise PolyParseError(f"unexpected token {shown}", offset)
    return poly


def parse_factored_denominator(text: str) -> list[Fraction]:
    """Extract the nonzero roots from a denominator written in the explicit
    factored form  z*(z-r1)*(z-r2)*...  : factors joined by '*', each an atom
    of the grammar above, so its bounds hold inside a factor too.  A factor
    that is the token z is the bare z, and exactly one is required.  Every
    other factor must expand to a monic linear z - r, as (z-1/2), (z+3) or
    (z-3^2) do, and gives the root r.  No other shape is accepted, because
    recovering rational roots from an expanded polynomial is out of scope.
    """
    parser = _Parser(text)
    roots: list[Fraction] = []
    bare_z = 0
    while True:
        first = parser._peek()
        factor = parser.atom()  # at the end of input, atom raises
        if first[0] == "z":
            bare_z += 1
        elif factor.degree == 1 and factor.coefficients[1] == 1:
            roots.append(-factor.coefficients[0])
        else:
            raise PolyParseError("denominator must be factored as z*(z-r1)*(z-r2)*...",
                                 first[2])
        star = parser._peek()
        if star is None:
            break
        if star[:2] != ("sym", "*"):
            raise PolyParseError("expected '*' between factors", star[2])
        parser._next()
    if bare_z != 1:
        raise PolyParseError("denominator must contain exactly one bare z factor", 0)
    return roots
