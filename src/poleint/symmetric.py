"""Symmetric polynomial evaluation and exact Vandermonde determinants.

The elementary and complete homogeneous values have no recurrence of their
own: they are read off P(z) = z * prod_j (z - a_j) and its expansion at
infinity,

    P(z)   = sum_i (-1)^i e_i z^(q+1-i),
    1/P(z) = sum_l h_l z^-(q+1+l),

the second by the same root-free long division that expands 1/Q.

Determinants use fraction-free Bareiss elimination (Bareiss 1968) at every
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polynomial import Poly, Rat, as_rat
from .series import InvZSeries


def elementary_symmetric(values: Sequence[Rat | int | str]) -> tuple[Fraction, ...]:
    """All elementary symmetric values e_0..e_n of the inputs (e_0 = 1)."""
    return SymmetricTable.build(values, 0).e


@dataclass(frozen=True, slots=True)
class SymmetricTable:
    """Elementary values e_0..e_q and complete homogeneous values h_0..h_depth."""

    q: int
    depth: int
    e: tuple[Fraction, ...]
    h: tuple[Fraction, ...]

    @classmethod
    def build(cls, values: Sequence[Rat | int | str], depth: int) -> SymmetricTable:
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        # p = z * prod (z - v) has degree q + 1 >= 1, even with no values
        p = Poly.from_roots(values, include_zero_root=True)
        q = p.degree - 1
        e = tuple((-1) ** i * p.coefficient(q + 1 - i) for i in range(q + 1))
        h = InvZSeries.from_rational(Poly.one(), p, q + 1 + depth).coefficients[q + 1 :]
        return cls(q=q, depth=depth, e=e, h=h)


def complete_homogeneous(values: Sequence[Rat | int | str], degree: int) -> Fraction:
    """h_degree of the inputs, the z^-(q+1+degree) coefficient of 1/P."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return SymmetricTable.build(values, degree).h[degree]


def vandermonde_matrix(
    points: Sequence[Rat | int | str], degree: int = 0
) -> list[list[Fraction]]:
    """Rows (1, x_i, ..., x_i^(n-2), x_i^(n-1+degree)): the Vandermonde matrix
    for degree 0, and for degree l the generalized one, whose determinant
    factors as the Vandermonde product times h_l."""
    pts = [as_rat(p) for p in points]
    n = len(pts)
    return [[p**j for j in range(n - 1)] + [p ** (n - 1 + degree)] for p in pts]


def vandermonde_product(points: Sequence[Rat | int | str]) -> Fraction:
    """prod_{i<j} (x_j - x_i); zero iff two points coincide, 1 for n <= 1."""
    pts = [as_rat(p) for p in points]
    out = Fraction(1)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            out *= pts[j] - pts[i]
    return out


def generalized_vandermonde(points: Sequence[Rat | int | str], degree: int) -> Fraction:
    if degree < 1:
        raise ValueError("degree must be a positive integer")
    if not points:
        raise ValueError("at least one point is required")
    return determinant(vandermonde_matrix(points, degree))


def determinant(matrix: Sequence[Sequence[Rat | int | str]]) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every division below is exact by the Sylvester identity, which keeps
    intermediate entries from exploding the way plain elimination can.
    """
    m = [[as_rat(x) for x in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return Fraction(1)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
