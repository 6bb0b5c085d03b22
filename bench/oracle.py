"""Independent oracle for the outputs of the poleint CLI.

Nothing here imports poleint.  The central computation follows the paper's
scaling law b_{q+l}(t*a) = t^l * b_{q+l}(a) with t = D, the lcm of the root
denominators: the scaled roots c = D*a are integers, so the complete
homogeneous values h_l(c) come out of an integer recurrence with no gcd at
all, and

    h_l(a) = h_l(c) / D^l,        b_{q+l}(a) = -h_l(c) / ((q+l) * D^l).

Every checker raises Mismatch on the first disagreement and otherwise
returns the largest numerator or denominator bit length it verified.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, Sequence


class Mismatch(Exception):
    """An output disagrees with the oracle: a wrong answer."""


class Refused(Exception):
    """A request that should succeed ended in a clean error exit: no answer,
    but no wrong one either."""


def bits(value: Fraction) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


@contextmanager
def unlimited_int_strings() -> Iterator[None]:
    """Lift CPython's int/str conversion limit while the oracle formats values,
    so that the limit binds only the program under test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def complete_homogeneous(roots: Sequence[Fraction], depth: int) -> list[Fraction]:
    """h_0..h_depth of the roots, through the integer roots c = D*a."""
    q = len(roots)
    d = math.lcm(*(r.denominator for r in roots))
    c = [r.numerator * (d // r.denominator) for r in roots]
    e = [1] + [0] * q
    for k, v in enumerate(c, start=1):
        for j in range(k, 0, -1):
            e[j] += v * e[j - 1]
    h = [1]
    for l in range(1, depth + 1):
        acc = 0
        for i in range(1, min(l, q) + 1):
            acc += e[i] * h[l - i] if i % 2 else -e[i] * h[l - i]
        h.append(acc)
    return [Fraction(h[l], d**l) for l in range(depth + 1)]


def antiderivative(roots: Sequence[Fraction], truncation: int) -> list[Fraction]:
    """b_0..b_N of the antiderivative of 1/Q: zero below q, then -h_l/(q+l)."""
    q = len(roots)
    h = complete_homogeneous(roots, truncation - q)
    return [Fraction(0)] * q + [-h[l] / (q + l) for l in range(truncation - q + 1)]


def vandermonde_product(points: Sequence[Fraction]) -> Fraction:
    return math.prod(
        (points[j] - points[i] for i in range(len(points)) for j in range(i + 1, len(points))),
        start=Fraction(1),
    )


def _expect(what: str, got: object, want: object) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def _lines(stdout: str) -> list[str]:
    if not stdout.endswith("\n"):
        raise Mismatch("output does not end with a newline")
    return stdout[:-1].split("\n")


def check_integrate(roots: Sequence[Fraction], terms: int, stdout: str) -> int:
    b = antiderivative(roots, terms)
    doc = json.loads(stdout)
    with unlimited_int_strings():
        _expect("q", doc["q"], len(roots))
        _expect("roots", doc["roots"], [str(r) for r in roots])
        _expect("truncation", doc["truncation"], terms)
        _expect("b0_convention", doc["b0_convention"], "zero")
        _expect("valuation", doc["valuation"], len(roots))
        _expect("paths_agree", doc["paths_agree"], True)
        _expect("coefficient count", len(doc["coefficients"]), terms + 1)
        for n, (entry, want) in enumerate(zip(doc["coefficients"], b)):
            _expect(f"n of coefficient {n}", entry["n"], n)
            _expect(f"b_{n}", entry["value"], str(want))
    return max(map(bits, b))


def check_pfd(roots: Sequence[Fraction], numerator: Sequence[int], stdout: str) -> int:
    poles = [Fraction(0), *roots]
    coefficients = []
    for p in poles:
        value = sum((c * p**k for k, c in enumerate(numerator)), Fraction(0))
        coefficients.append(value / math.prod((p - o for o in poles if o != p), start=Fraction(1)))
    doc = json.loads(stdout)
    _expect("q", doc["q"], len(roots))
    _expect("roots", doc["roots"], [str(r) for r in roots])
    _expect("terms", doc["terms"], [
        {"pole": str(p), "coefficient": str(c)} for p, c in zip(poles, coefficients)
    ])
    _expect("coefficient_sum", doc["coefficient_sum"], str(sum(coefficients, Fraction(0))))
    _expect("reconstruction_ok", doc["reconstruction_ok"], True)
    return max(map(bits, coefficients))


def check_identities(roots: Sequence[Fraction], max_k: int, stdout: str) -> int:
    q = len(roots)
    h = complete_homogeneous(roots, max_k - q)
    want = [Fraction(0)] * q + h
    lines = _lines(stdout)
    with unlimited_int_strings():
        _expect("row count", len(lines), max_k + 2)
        for k, value in enumerate(want):
            _expect(f"row {k}", lines[k], f"k={k} lhs={value} rhs={value} pass=true")
    _expect("summary", lines[-1], f"{max_k + 1}/{max_k + 1} identities hold")
    return max(map(bits, want))


def check_vandermonde(points: Sequence[Fraction], degree: int | None, stdout: str) -> int:
    prod = vandermonde_product(points)
    checks = [("determinant_vs_product", prod)]
    if degree is not None:
        checks.append((f"generalized_degree_{degree}", prod * complete_homogeneous(points, degree)[degree]))
    lines = _lines(stdout)
    _expect("line count", len(lines), len(checks) + 1)
    for line, (name, value) in zip(lines, checks):
        _expect(name, line, f"check={name} lhs={value} rhs={value} pass=true")
    _expect("summary", lines[-1], f"{len(checks)}/{len(checks)} checks hold")
    return max(bits(v) for _, v in checks)


def check_limit(
    roots: Sequence[Fraction],
    scales: Sequence[Fraction],
    terms: int,
    max_l: int | None,
    stdout: str,
) -> int:
    """exact_b must be t^l * b_{q+l}(a); the float sup error of a scale must be
    finite, nonnegative and the same on every row of that scale."""
    q = len(roots)
    depth = terms - q if max_l is None else min(terms - q, max_l)
    b = antiderivative(roots, terms)[q:]
    lines = _lines(stdout)
    _expect("header", lines[0], "t,l,exact_b,numeric_sup_error")
    _expect("row count", len(lines), 1 + len(scales) * (depth + 1))
    rows = iter(lines[1:])
    largest = 0
    for t in scales:
        sups = set()
        for l in range(depth + 1):
            exact = t**l * b[l]
            largest = max(largest, bits(exact))
            t_text, l_text, b_text, sup_text = next(rows).split(",")
            _expect("t", t_text, str(t))
            _expect("l", l_text, str(l))
            _expect(f"exact_b at t={t}, l={l}", b_text, str(exact))
            sups.add(sup_text)
        sup = float(sups.pop())
        if sups or not math.isfinite(sup) or sup < 0:
            raise Mismatch(f"bad sup error column at t={t}")
    return largest
