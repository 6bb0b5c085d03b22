"""Symmetric polynomial evaluation and exact Vandermonde determinants.

The complete homogeneous values h_l come from the classical recurrence
through the elementary symmetric values, obtained from

    prod_j (1 - a_j x) * sum_l h_l x^l = 1
    =>  sum_{i=0..min(l,q)} (-1)^i e_i h_{l-i} = 0   for l >= 1.

Determinants use fraction-free Bareiss elimination (Bareiss 1968) at every
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polynomial import Rat, as_rat


def elementary_symmetric(values: Sequence[Rat | int | str]) -> tuple[Fraction, ...]:
    """All elementary symmetric values e_0..e_n of the inputs (e_0 = 1)."""
    vals = [as_rat(v) for v in values]
    e = [Fraction(0)] * (len(vals) + 1)
    e[0] = Fraction(1)
    for k, v in enumerate(vals, start=1):
        for j in range(k, 0, -1):
            e[j] += v * e[j - 1]
    return tuple(e)


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
        e = elementary_symmetric(values)
        q = len(e) - 1
        h = [Fraction(0)] * (depth + 1)
        h[0] = Fraction(1)
        for l in range(1, depth + 1):
            acc = Fraction(0)
            for i in range(1, min(l, q) + 1):
                term = e[i] * h[l - i]
                acc += term if i % 2 == 1 else -term
            h[l] = acc
        return cls(q=q, depth=depth, e=e, h=tuple(h))


def complete_homogeneous(values: Sequence[Rat | int | str], degree: int) -> Fraction:
    """h_degree of the inputs, via the e/h recurrence."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return SymmetricTable.build(values, degree).h[degree]


def vandermonde_matrix(points: Sequence[Rat | int | str]) -> list[list[Fraction]]:
    """Rows (1, x_i, x_i^2, ..., x_i^(n-1))."""
    pts = [as_rat(p) for p in points]
    n = len(pts)
    return [[p**j for j in range(n)] for p in pts]


def vandermonde_product(points: Sequence[Rat | int | str]) -> Fraction:
    """prod_{i<j} (x_j - x_i); zero iff two points coincide, 1 for n <= 1."""
    pts = [as_rat(p) for p in points]
    out = Fraction(1)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            out *= pts[j] - pts[i]
    return out


def generalized_vandermonde_matrix(
    points: Sequence[Rat | int | str], degree: int
) -> list[list[Fraction]]:
    """Rows (1, x_i, ..., x_i^(n-2), x_i^(n-1+degree)): the square matrix whose
    determinant factors as the Vandermonde product times h_degree."""
    if degree < 1:
        raise ValueError("degree must be a positive integer")
    pts = [as_rat(p) for p in points]
    n = len(pts)
    if n < 1:
        raise ValueError("at least one point is required")
    return [[p**j for j in range(n - 1)] + [p ** (n - 1 + degree)] for p in pts]


def generalized_vandermonde(points: Sequence[Rat | int | str], degree: int) -> Fraction:
    return determinant(generalized_vandermonde_matrix(points, degree))


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
