"""Reference implementations that the tests compare the package against.

None of these is needed at run time.  Each computes, by a separate and
usually slower route, something the package computes or relies on, so the
tests can compare the two.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

from poleint import (
    InvZSeries,
    Poly,
    Rat,
    RootConfig,
    partial_fractions,
)
from poleint.cli import _ROOT_GROUP, _SUBCOMMANDS
from poleint.integrate import _pole_differences
from poleint.polynomial import as_rat

DIRECT_ENUMERATION_BUDGET = 10**6


# -- symmetric functions and determinants ------------------------------------


def complete_homogeneous_direct(
    values: Sequence[Rat | int | str],
    degree: int,
    budget: int = DIRECT_ENUMERATION_BUDGET,
) -> Fraction:
    """h_degree by direct enumeration of weakly increasing index tuples.

    This is the oracle for `complete_homogeneous`; it is exponential in the
    degree and refuses to enumerate more than `budget` monomials.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    vals = [as_rat(v) for v in values]
    if degree == 0:
        return Fraction(1)
    if not vals:
        return Fraction(0)
    count = math.comb(len(vals) + degree - 1, degree)
    if count > budget:
        raise ValueError(
            f"enumeration budget exceeded: {count} monomials > {budget}"
        )
    total = Fraction(0)
    for combo in combinations_with_replacement(vals, degree):
        total += math.prod(combo)
    return total


def determinant_cofactor(matrix: Sequence[Sequence[Rat | int | str]]) -> Fraction:
    """Exact determinant by recursive expansion along the first row."""
    rows = [[as_rat(x) for x in row] for row in matrix]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")

    def expand(m: list[list[Fraction]]) -> Fraction:
        n = len(m)
        if n == 0:
            return Fraction(1)
        if n == 1:
            return m[0][0]
        if n == 2:
            return m[0][0] * m[1][1] - m[0][1] * m[1][0]
        total = Fraction(0)
        for j, c in enumerate(m[0]):
            if c == 0:
                continue
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = c * expand(minor)
            total += term if j % 2 == 0 else -term
        return total

    return expand(rows)


def symmetric_recurrence(
    values: Sequence[Rat | int | str], depth: int
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """e_0..e_q and h_0..h_depth by the classical recurrences.

    The e_k come from multiplying out prod_j (1 + a_j x) one factor at a
    time; the h_l from

        prod_j (1 - a_j x) * sum_l h_l x^l = 1
        =>  sum_{i=0..min(l,q)} (-1)^i e_i h_{l-i} = 0   for l >= 1.

    This is the oracle for `SymmetricTable`, which reads the same values off
    z * prod_j (z - a_j) and its expansion at infinity instead.
    """
    vals = [as_rat(v) for v in values]
    q = len(vals)
    e = [Fraction(0)] * (q + 1)
    e[0] = Fraction(1)
    for k, v in enumerate(vals, start=1):
        for j in range(k, 0, -1):
            e[j] += v * e[j - 1]
    h = [Fraction(0)] * (depth + 1)
    h[0] = Fraction(1)
    for l in range(1, depth + 1):
        acc = Fraction(0)
        for i in range(1, min(l, q) + 1):
            term = e[i] * h[l - i]
            acc += term if i % 2 == 1 else -term
        h[l] = acc
    return tuple(e), tuple(h)


def closed_form(cfg: RootConfig, depth: int) -> tuple[Fraction, ...]:
    """The coefficients -h_l(a)/(q+l) of z^-(q+l) in the antiderivative of
    1/Q, for l = 0..depth, with h_l from the e/h recurrence."""
    h = symmetric_recurrence(cfg.roots, depth)[1]
    return tuple(-h[l] / (cfg.q + l) for l in range(depth + 1))


def moments_direct(cfg: RootConfig, max_k: int) -> list[Fraction]:
    """m_0..m_max_k as sums of p^k / prod (p - x) over the poles p = 0, a_j
    and the other poles x, in Fraction arithmetic on the roots themselves.

    This is the oracle for the integer residue kernel behind `moment`.
    """
    poles = (Fraction(0),) + cfg.roots
    residues = [1 / math.prod(p - x for x in poles if x != p) for p in poles]
    return [sum(p**k * r for p, r in zip(poles, residues)) for k in range(max_k + 1)]


def closed_form_coefficient(cfg: RootConfig, l: int) -> Fraction:
    """The coefficient of z^-(q+l) in the antiderivative: -h_l(a)/(q+l)."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    return closed_form(cfg, l)[l]


# -- polynomial division --------------------------------------------------------


def poly_divmod(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Exact quotient and remainder with deg(remainder) < deg(divisor)."""
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(p.degree - d.degree + 1, 0)
    rem = list(p.coefficients)
    lead = d.coefficients[-1]
    while len(rem) - 1 >= d.degree and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < d.degree:
            break
        shift = len(rem) - 1 - d.degree
        factor = rem[-1] / lead
        quot[shift] = factor
        for i, c in enumerate(d.coefficients):
            rem[shift + i] -= factor * c
    return Poly(quot), Poly(rem)


def poly_mod(p: Poly, d: Poly) -> Poly:
    return poly_divmod(p, d)[1]


def monic(p: Poly) -> Poly:
    if p.is_zero:
        raise ValueError("the zero polynomial has no monic form")
    return p * (1 / p.coefficients[-1])


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    a, b = p, q
    while not b.is_zero:
        a, b = b, poly_mod(a, b)
    return monic(a)


def reconstructed_numerator(terms: Sequence[tuple[Rat, Rat]]) -> Poly:
    """sum_j c_j * prod_{k != j} (z - pole_k) over the pairs (pole_j, c_j); the
    numerator whenever they decompose it.  The reference for
    `integrate.decomposes`: one pass of O(q^2) `Poly` operations, where
    `product` is prod (z - pole) over the poles seen so far."""
    total, product = Poly(), Poly((1,))
    for pole, c in terms:
        factor = Poly((-pole, 1))
        total, product = total * factor + product * c, product * factor
    return total


def partial_fractions_by_evaluation(numerator: Poly,
                                    cfg: RootConfig) -> tuple[tuple[Rat, Rat], ...]:
    """numerator(a_i) d_i^(q-1) P / Delta_i at each pole a_i = n_i/d_i, 0/1 first,
    with numerator(a_i) by `Poly.__call__`, a Horner in Fractions.  The reference
    for `integrate.partial_fractions`, which evaluates the numerator on integers."""
    poles, p, deltas = _pole_differences(cfg.roots)
    return tuple(
        (a, numerator(a) * Fraction(e ** (cfg.q - 1) * p, x))
        for a, (_, e), x in zip((Fraction(0), *cfg.roots), poles, deltas)
    )


def decomposes_in_fractions(numerator: Poly, terms: Sequence[tuple[Rat, Rat]]) -> bool:
    """c_j * prod_{k != j} (p_j - p_k) == numerator(p_j) at every pair (p_j, c_j),
    in Fraction arithmetic on the poles themselves.  The reference for
    `integrate.decomposes`, which tests the same identity cleared of
    denominators, on integers."""
    poles = [p for p, _ in terms]
    return all(c * math.prod(p - r for r in poles if r != p)
               == sum(a * p**k for k, a in enumerate(numerator.coefficients))
               for p, c in terms)


def check_pfd_document(roots: Sequence[Rat], numerator: Poly, stdout: str) -> None:
    """Assert that stdout is `pfd`'s document for numerator / (z prod (z - a_j)):
    the poles 0, a_1, ..., a_q in order, coefficients in lowest terms that
    `reconstructed_numerator` turns back into the numerator, which pins each
    one, as partial fractions are unique, and their sum.  The reference for
    numerators with rational coefficients, which `bench/oracle.py`'s
    `check_pfd` does not take."""
    doc = json.loads(stdout)
    assert (doc["q"], doc["roots"]) == (len(roots), [str(a) for a in roots])
    assert doc["numerator"] == str(numerator)
    poles, coefficients = [Fraction(0), *roots], [t["coefficient"] for t in doc["terms"]]
    assert [t["pole"] for t in doc["terms"]] == [str(p) for p in poles]
    terms = list(zip(poles, map(Fraction, coefficients)))
    assert coefficients == [str(c) for _, c in terms]
    assert reconstructed_numerator(terms) == numerator
    assert doc["coefficient_sum"] == str(sum(c for _, c in terms))
    assert doc["reconstruction_ok"] is True


def is_squarefree(p: Poly) -> bool:
    """True iff p has no repeated roots, i.e. gcd(p, p') is a nonzero constant."""
    if p.is_zero:
        raise ValueError("square-freeness of the zero polynomial is undefined")
    return gcd(p, p.derivative()).degree == 0


# -- series in 1/z ---------------------------------------------------------------


def inverse_linear(a: Rat | int | str, truncation: int) -> InvZSeries:
    """The expansion 1/(z - a) = sum_{n>=0} a^n z^-(n+1).

    Defining contract: multiplying by the series of (1 - a/z) gives z^-1
    on the shared window, so the z-shifted product recovers 1.
    """
    ar = as_rat(a)
    coeffs = [Fraction(0)] * (truncation + 1)
    power = Fraction(1)
    for n in range(1, truncation + 1):
        coeffs[n] = power
        power *= ar
    return InvZSeries(truncation, tuple(coeffs))


def truncate(f: InvZSeries, truncation: int) -> InvZSeries:
    if truncation > f.truncation:
        raise ValueError("cannot extend a series beyond its known window")
    return InvZSeries(truncation, f.coefficients[: truncation + 1])


def derivative(f: InvZSeries) -> InvZSeries:
    """Term-by-term derivative: b_n z^-n maps to -n b_n z^-(n+1).

    The unknown tail starts one order later, so the window grows by one.
    """
    out = [Fraction(0)] * (f.truncation + 2)
    for n in range(1, f.truncation + 1):
        out[n + 1] = -n * f.coefficients[n]
    return InvZSeries(f.truncation + 1, tuple(out))


def valuation(coefficients: Sequence[Rat]) -> int | float:
    """Index of the first nonzero coefficient of b_0, b_1, ...; math.inf if
    every one vanishes."""
    return next((n for n, c in enumerate(coefficients) if c != 0), math.inf)


def _first_possible_nonzero(f: InvZSeries) -> int:
    """Lower bound on the true valuation (window valuation, else N+1)."""
    v = valuation(f.coefficients)
    return f.truncation + 1 if v == math.inf else v


def series_mul(f: InvZSeries, g: InvZSeries) -> InvZSeries:
    """Cauchy product on the largest window the two factors support."""
    # The unknown tail of one factor first pollutes the product at the
    # tail index plus the other factor's first possibly-nonzero index.
    nf, ng = f.truncation, g.truncation
    window = min(nf + _first_possible_nonzero(g), ng + _first_possible_nonzero(f))
    out = []
    for n in range(window + 1):
        acc = Fraction(0)
        for i in range(max(0, n - ng), min(n, nf) + 1):
            a = f.coefficients[i]
            if a != 0:
                acc += a * g.coefficients[n - i]
        out.append(acc)
    return InvZSeries(window, tuple(out))


def mul_z_power(f: InvZSeries, k: int) -> InvZSeries:
    """Multiply by z^k.  For k > 0 the first k coefficients must vanish,
    otherwise the result would have positive powers of z."""
    if k == 0:
        return f
    if k < 0:
        pad = (Fraction(0),) * (-k)
        return InvZSeries(f.truncation - k, pad + f.coefficients)
    if k > f.truncation:
        raise ValueError("multiplying by z^k exhausts the known window")
    if any(c != 0 for c in f.coefficients[:k]):
        raise ValueError("multiplying by z^k would create positive powers of z")
    return InvZSeries(f.truncation - k, f.coefficients[k:])


def as_series(terms: Sequence[tuple[Rat, Rat]], truncation: int) -> InvZSeries:
    """sum_j c_j / (z - pole_j) over the pairs (pole_j, c_j), expanded at infinity."""
    out = InvZSeries(truncation, (0,) * (truncation + 1))
    for pole, c in terms:
        out = out + inverse_linear(pole, truncation) * c
    return out


# -- the shrinking-root limit ----------------------------------------------------


def log_potential(cfg: RootConfig, z: complex) -> complex:
    """sum_p (1/Q'(p)) log(z - p) over the poles p of 1/Q, 0 included, in
    double precision on the principal branch; z must avoid the poles."""
    terms = partial_fractions(Poly((1,)), cfg)
    return sum(float(c) * cmath.log(z - p) for p, c in terms)


def sup_errors(tails: Sequence[Sequence[Rat]], q: int, radius: float,
               samples: int) -> list[float]:
    """For each tail (0, b_(q+1), ..., b_N) in turn, the sup of
    |tail(z) / z^q| over the points radius * exp(2 pi i k / samples): one
    walk of the circle per row, plain Horner in 1/z on the coefficients each
    rounded once to a double.  Away from underflow and overflow this is
    `asymptotics.evaluate_all`'s sum, bit for bit."""
    sups = []
    for tail in tails:
        coefficients = [float(c) for c in reversed(tail)]
        sup = 0.0
        for k in range(samples):
            z = radius * cmath.exp(2j * cmath.pi * k / samples)
            w, acc = 1 / z, 0j
            for c in coefficients:
                acc = acc * w + c
            sup = max(sup, abs(acc / z**q))
        sups.append(sup)
    return sups


# -- the command line's reading of argv -------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """A fresh argparse parser of the CLI's flag table, `cli._SUBCOMMANDS`.

    It reads argv as `cli._read_argv` means to, by a separate route: the
    table's keywords are argparse's `add_argument` keywords.
    """
    parser = argparse.ArgumentParser(prog="poleint")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, rooted, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=text)
        if rooted:
            group = p.add_mutually_exclusive_group(required=True)
            for flag, keywords in _ROOT_GROUP.items():
                group.add_argument(flag, **keywords)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
    return parser


def argparse_reading(argv: list[str]) -> argparse.Namespace | str:
    """argparse's namespace of argv, or "help" or "refused".

    A `--flag=--` is refused before argparse sees it: argparse reads that
    value as an empty list or as "--", depending on its version.
    """
    if any(word.startswith("--") and word.partition("=")[2] == "--" for word in argv):
        return "refused"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit as exc:
            return "help" if exc.code == 0 else "refused"
