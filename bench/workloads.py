"""Seeded request streams for the benchmark workloads.

Each workload walks a fixed cycle of request shapes (subcommand, q, N, root
height); the seed draws only the root values, so every seed gives the same
mix.  A request carries its argv, the exit code it must end with, and an
oracle check of its standard output.  List arguments are passed as
`--roots=<list>`, because argparse reads a separate value that starts with
'-' as an option.

The roots of integrate-tall have distinct prime denominators, so the lcm D
of every root set is the full product of its denominators.  Operand sizes,
and with them the cost of a request, then depend on the shape alone and not
on common factors that random denominators share by chance; that keeps the
spread between runs small.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator

from oracle import (
    Mismatch,
    Refused,
    bits,
    check_identities,
    check_integrate,
    check_limit,
    check_pfd,
    check_vandermonde,
)


@dataclass(frozen=True)
class Request:
    command: str
    argv: tuple[str, ...]
    input_bits: int
    expect_rc: int = 0
    check: Callable[[str], int] | None = None

    def verify(self, rc: int, stdout: str, stderr: str) -> int:
        """Return the output bits if the outcome is right.  Raise Refused if a
        request that should succeed ends in a clean error exit, and Mismatch
        for any other wrong outcome."""
        if "Traceback" in stderr:
            raise Mismatch("traceback on stderr")
        if rc != self.expect_rc:
            error = Refused if self.expect_rc == 0 else Mismatch
            raise error(f"exit code {rc}, expected {self.expect_rc}: {stderr.strip()[-300:]}")
        return self.check(stdout) if self.check else 0


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    cycle: int  # shape-cycle length: runs stop on a cycle boundary
    requests: Callable[[int], Iterator[Request]]


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7, which is exact below 3.2e9."""
    if n >= 3_215_031_751:
        raise ValueError("too large for these bases")
    if n < 2 or any(n % p == 0 for p in (2, 3, 5, 7)):
        return n in (2, 3, 5, 7)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_roots(rng: random.Random, q: int, width: int) -> tuple[Fraction, ...]:
    """q distinct rationals +-n/p, n and the distinct primes p of `width` bits."""
    sized = range(1 << (width - 1), 1 << width)
    primes: list[int] = []
    out: list[Fraction] = []
    while len(out) < q:
        p = rng.choice(sized)
        if p in primes or not _is_prime(p):
            continue
        r = Fraction(rng.choice(sized) * rng.choice((1, -1)), p)
        if r not in out:
            primes.append(p)
            out.append(r)
    return tuple(out)


def _csv(values) -> str:
    return ",".join(map(str, values))


def _den(roots) -> str:
    """The factored form z*(z-r1)*(z+r2)*... accepted by --den."""
    return "*".join(["z"] + [f"(z{'-' if r > 0 else '+'}{abs(r)})" for r in roots])


def _root_flag(roots, den: bool) -> str:
    return f"--den={_den(roots)}" if den else f"--roots={_csv(roots)}"


def _in_bits(roots) -> int:
    return max(map(bits, roots))


# -- integrate-tall ---------------------------------------------------------

# About 30-bit numerators and denominators.  At q=16, N=48 the largest
# coefficients then pass about 14284 bits, the 4300-digit limit CPython puts on
# int-to-str conversion, and `poleint integrate` exits 1 ("Exceeds the
# limit"): a known CLI defect that this workload leaves standing, so those
# requests count as failed (refused, not wrong) until it is fixed.
TALL_BITS = 30


def integrate_tall(seed: int) -> Iterator[Request]:
    rng = random.Random(seed)
    for i in itertools.count():
        q = (8, 12, 16)[i % 3]
        roots = _prime_roots(rng, q, TALL_BITS)
        yield Request(
            "integrate",
            ("integrate", f"--roots={_csv(roots)}", "--terms", str(3 * q)),
            _in_bits(roots),
            check=partial(check_integrate, roots, 3 * q),
        )


# -- cli-cold -----------------------------------------------------------------

COLD_SCALES = (Fraction(1), Fraction(1, 2), Fraction(1, 4))


def _small_roots(rng: random.Random, q: int) -> tuple[Fraction, ...]:
    """q distinct rationals +-n/d with 1 <= n <= 15 and 1 <= d <= 3."""
    out: list[Fraction] = []
    while len(out) < q:
        r = Fraction(rng.randint(1, 15) * rng.choice((1, -1)), rng.randint(1, 3))
        if r not in out:
            out.append(r)
    return tuple(out)


def _numerator(rng: random.Random, degree: int) -> tuple[list[int], str]:
    """Integer coefficients c_0..c_degree (c_degree nonzero) and an expression."""
    coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((-1, 1)) * rng.randint(1, 9)]
    text = ""
    for k in range(degree, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        body = f"{abs(c)}" + ("" if k == 0 else "*z" if k == 1 else f"*z^{k}")
        text += ("-" if c < 0 else "+" if text else "") + body
    return coeffs, text


def cli_cold(seed: int) -> Iterator[Request]:
    """Four requests of each subcommand, then the three contract errors."""
    rng = random.Random(seed)
    while True:
        for q, den in ((1, False), (2, True), (3, False), (4, True)):
            roots = _small_roots(rng, q)
            terms = q + 1 + q % 3
            yield Request(
                "integrate",
                ("integrate", _root_flag(roots, den), "--terms", str(terms)),
                _in_bits(roots),
                check=partial(check_integrate, roots, terms),
            )
        for q, den, degree in ((1, False, 1), (2, True, None), (3, False, 3), (4, True, 2)):
            roots = _small_roots(rng, q)
            argv = ("pfd", _root_flag(roots, den))
            coeffs = [1]
            if degree is not None:
                coeffs, text = _numerator(rng, degree)
                argv += (f"--num={text}",)
            yield Request("pfd", argv, _in_bits(roots), check=partial(check_pfd, roots, coeffs))
        for q, den, extra in ((1, False, 0), (2, True, 3), (3, False, None), (4, True, 6)):
            roots = _small_roots(rng, q)
            argv = ("identities", _root_flag(roots, den))
            max_k = q + 10
            if extra is not None:
                max_k = q + extra
                argv += ("--max-k", str(max_k))
            yield Request("identities", argv, _in_bits(roots),
                          check=partial(check_identities, roots, max_k))
        for n, degree in ((2, None), (3, 2), (4, None), (5, 3)):
            points = _small_roots(rng, n)
            argv = ("vandermonde", f"--points={_csv(points)}")
            if degree is not None:
                argv += ("--degree", str(degree))
            yield Request("vandermonde", argv, _in_bits(points),
                          check=partial(check_vandermonde, points, degree))
        for q, den, max_l in ((1, False, None), (2, True, 3), (3, False, None), (4, True, 2)):
            roots = _small_roots(rng, q)
            terms = q + 6
            argv = ("limit", _root_flag(roots, den), f"--scales={_csv(COLD_SCALES)}",
                    "--radius", "32", "--samples", "32", "--terms", str(terms))
            if max_l is not None:
                argv += ("--max-l", str(max_l))
            yield Request("limit", argv, _in_bits(roots),
                          check=partial(check_limit, roots, COLD_SCALES, terms, max_l))
        # documented contract errors: parse error, N below q+1, duplicate roots
        roots = _small_roots(rng, 3)
        yield Request("integrate", ("integrate", f"--roots={_csv(roots)}/", "--terms", "6"),
                      _in_bits(roots), expect_rc=2)
        yield Request("integrate", ("integrate", f"--roots={_csv(roots)}", "--terms", "3"),
                      _in_bits(roots), expect_rc=2)
        yield Request("identities", ("identities", f"--roots={_csv(roots + roots[:1])}"),
                      _in_bits(roots), expect_rc=1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("integrate-tall", True, 3, integrate_tall),
        Workload("cli-cold", False, 23, cli_cold),
    )
}
