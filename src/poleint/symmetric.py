"""Symmetric polynomial evaluation and exact Vandermonde determinants.

The elementary and complete homogeneous values are read off
P(z) = z * prod_j (z - c_j) and its expansion at infinity,

    P(z)   = sum_i (-1)^i e_i z^(q+1-i),
    1/P(z) = sum_l h_l z^-(q+1+l),

on the integers c = D * a (D the lcm of the denominators), where the long
division needs no gcd; then e_i(a) = e_i(c) / D^i and h_l(a) = h_l(c) / D^l.
`integrate`'s expansion route runs the same kernel, capped by MAX_EXPANSION_BITS;
the residue route answers to the same rule, `check_moment_size`.
Each e_i(c) carries a factor G^(i-1), D | G for pairwise coprime denominators;
the kernel divides it out, checked, and puts it back by Horner in G.

Determinants: on rows scaled by the same step, one fraction-free (Bareiss 1968)
elimination of the columns A of [A | b_1 ... b_k] leaves every det [A | b_j].
Each entry on the way is a minor, bounded by Hadamard's inequality, and
MAX_ELIMINATION_BITS caps n * width times that bound before any work, as it
caps the powers `vandermonde_matrix` would build.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .polynomial import Rat, Value, as_rat

__all__ = ["ExactCheckError", "SymmetricTable", "complete_homogeneous", "determinant",
           "generalized_vandermonde", "vandermonde_matrix", "vandermonde_product"]

MAX_ELIMINATION_BITS = 2**26  # 8 MiB: points 1..68 are eliminated, 1..69 refused
MAX_EXPANSION_BITS = 2**26  # 8 MiB: 32 30-bit roots expand to 129 moments at 33.5M


class ExactCheckError(ArithmeticError):
    """An exact self-check failed: the arithmetic is broken, not the input."""


def scale_to_integers(values: Sequence[Rat | int | str]) -> tuple[int, tuple[int, ...]]:
    """The scaling step: D, the lcm of the denominators d_j, and c = D * a as
    c_j = n_j * (D // d_j), checked: each d_j must divide D.  `integer_expansion`
    and `bordered_determinants` read them; the residue route takes its own D."""
    vals = [as_rat(v) for v in values]
    d = math.lcm(*(v.denominator for v in vals))
    qr = [divmod(d, v.denominator) for v in vals]
    if any(r for _, r in qr):
        raise ExactCheckError("D * a_j must be an integer; exact arithmetic is broken")
    return d, tuple(v.numerator * k for v, (k, _) in zip(vals, qr))


def _shared_factor(c: Sequence[int]) -> int:
    """G = lcm_j gcd_(k != j) c_k, or 1 if that is 0.  At each prime, G has the
    second-smallest valuation of the c_j, so G^(i-1) | e_i(c): every term of
    e_i(c) is a product of i of the c_j."""
    pre = accumulate(c, math.gcd, initial=0)  # gcd of the c_k with k < j
    suf = [*accumulate(reversed(c), math.gcd, initial=0)][-2::-1]  # k > j
    return math.lcm(*map(math.gcd, pre, suf)) or 1


def check_moment_size(q: int, count: int, d: int, c: Sequence[int]) -> None:
    """The size rule of both routes to m_0..m_(count-1)(c), c = D * a for q roots:
    as e_i(c) < 2^q max|c_j|^i and h_l(c) < 2^(q+l) max|c_j|^l, (q^2 + count^2) *
    (bits(max|c_j|) + bits(D)) bounds the bits of P, the moments and their D^l.
    Above MAX_EXPANSION_BITS it raises ValueError; the caller runs it before any
    product."""
    height = max(map(abs, c), default=0).bit_length() + d.bit_length()
    if (bits := (q * q + count * count) * height) > MAX_EXPANSION_BITS:
        raise ValueError(f"{count} moments at q = {q} could hold {bits} bits, "
                         f"above MAX_EXPANSION_BITS = {MAX_EXPANSION_BITS}")


def integer_expansion(values: Sequence[Rat | int | str], count: int) -> tuple:
    """D, then the coefficients of P = z * prod_j (z - c_j), lowest degree first,
    and m_0..m_(count-1), the z^-(n+1) coefficients of 1/P (0 for n < q, then
    h_(n-q)(c)), on c = D * a off `scale_to_integers`.  As P is monic, m_n =
    [n = q] - sum_i G^(i-1) A_i m_(n-i), Horner in G, with A_i = (-1)^i e_i(c) /
    G^(i-1) exact: for G = D, A_i is about D * e_i(a), so each product is small
    times big.  `check_moment_size` refuses an oversized count before any product."""
    d, c = scale_to_integers(values)
    check_moment_size(q := len(c), count, d, c)
    p = [0, 1]
    for x in c:
        p = [lo - x * hi for lo, hi in zip([0] + p, p + [0])]
    g = _shared_factor(c)
    qr = [divmod(t, g**i) for i, t in enumerate(p[-2:0:-1])]  # A_1..A_q, remainders
    if any(r for _, r in qr):
        raise ExactCheckError("G^(i-1) must divide e_i(c); exact arithmetic is broken")
    a = [quo for quo, _ in qr]
    m: list[int] = []
    for n in range(count):
        acc = 0
        for x in reversed(list(map(mul, a, reversed(m)))):
            acc = acc * g + x
        m.append((n == q) - acc)
    return d, p, m


class SymmetricTable(Value):
    """Elementary values e_0..e_q and complete homogeneous values h_0..h_depth."""

    __slots__ = ("q", "depth", "e", "h")

    @classmethod
    def build(cls, values: Sequence[Rat | int | str], depth: int) -> SymmetricTable:
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        q = len(values)
        d, p, m = integer_expansion(values, q + 1 + depth)
        e = tuple(Fraction((-1) ** i * p[q + 1 - i], d**i) for i in range(q + 1))
        h = tuple(Fraction(x, d**l) for l, x in enumerate(m[q:]))
        return cls(q=q, depth=depth, e=e, h=h)


def complete_homogeneous(values: Sequence[Rat | int | str], degree: int) -> Fraction:
    """h_degree of the inputs, the z^-(q+1+degree) coefficient of 1/P: the
    kernel's last moment m_(q+degree)(c) = h_degree(c), over D^degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    d, _, m = integer_expansion(values, len(values) + 1 + degree)
    return Fraction(m[-1], d**degree)


def vandermonde_matrix(points: Sequence[Rat | int | str],
                       *degrees: int) -> list[list[Fraction]]:
    """Rows (1, x_i, ..., x_i^(n-2)) bordered by x_i^(n-1+l) for each degree l:
    with no degree (or l = 0) the Vandermonde matrix, for l the generalized
    one, whose determinant factors as the Vandermonde product times h_l.  n rows
    of width powers up to x^top of H-bit points hold at most n * width * top * H
    bits: above MAX_ELIMINATION_BITS it raises ValueError before any power."""
    pts = [as_rat(p) for p in points]
    powers = [*range(len(pts) - 1)] + [len(pts) - 1 + l for l in degrees or [0]]
    h = max((abs(x) for p in pts for x in p.as_integer_ratio()), default=0).bit_length()
    if (bits := len(pts) * len(powers) * max(powers) * h) > MAX_ELIMINATION_BITS:
        raise ValueError(f"{len(pts)} x {len(powers)} powers could hold {bits} bits, "
                         f"above MAX_ELIMINATION_BITS = {MAX_ELIMINATION_BITS}")
    return [[p**j for j in powers] for p in pts]


def vandermonde_product(points: Sequence[Rat | int | str]) -> Fraction:
    """prod_{i<j} (x_j - x_i); zero iff two points coincide, 1 for n <= 1.  With
    x_i = n_i / d_i it is prod_{i<j} (n_j d_i - n_i d_j) / prod(d_i)^(n-1)."""
    pts = [as_rat(p) for p in points]
    diffs = (b.numerator * a.denominator - a.numerator * b.denominator
             for i, a in enumerate(pts) for b in pts[i + 1:])
    scale = math.prod(p.denominator ** (len(pts) - 1) for p in pts)
    return Fraction(math.prod(diffs), scale)


def generalized_vandermonde(points: Sequence[Rat | int | str], degree: int) -> Fraction:
    if degree < 1:
        raise ValueError("degree must be a positive integer")
    if not points:
        raise ValueError("at least one point is required")
    return determinant(vandermonde_matrix(points, degree))


def determinant(matrix: Sequence[Sequence[Rat | int | str]]) -> Fraction:
    """Exact determinant: the one-border case of `bordered_determinants`, whose
    last entry is the determinant by Sylvester's identity."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix must be square")
    return bordered_determinants(matrix)[0] if matrix else Fraction(1)


def bordered_determinants(matrix: Sequence[Sequence[Rat | int | str]]) -> list[Fraction]:
    """det [A | b] for each border b past the first n - 1 columns A of n >= 1
    rows of one width: one Bareiss elimination of A, each row scaled once by
    `scale_to_integers`.  A row swap, or no pivot left in A, acts on all alike."""
    scales, rows = zip(*map(scale_to_integers, matrix))
    n, width, m = len(rows), len(rows[0]), [*map(list, rows)]
    # each entry below is a minor, at most the product of its rows' (or columns') norms
    bits = min(sum(max(map(abs, v)).bit_length() + (len(v).bit_length() + 1) // 2
                   for v in vs) for vs in (m, [*zip(*m)]))
    if n * width * bits > MAX_ELIMINATION_BITS:
        raise ValueError(f"{n} x {width} entries of up to {bits} bits (Hadamard's bound) "
                         f"could hold {n * width * bits} bits, above "
                         f"MAX_ELIMINATION_BITS = {MAX_ELIMINATION_BITS}")
    sign, prev, scale = 1, 1, math.prod(scales)
    for k in range(n - 1):
        if not m[k][k]:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                return [Fraction(0)] * (width - n + 1)
            m[k], m[i] = m[i], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, width):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return [Fraction(sign * x, scale) for x in m[-1][n - 1:]]
