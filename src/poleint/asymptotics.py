"""The shrinking-root limit of the antiderivative, in double precision.

A root configuration induces charges 1/Q'(p) at each pole p of 1/Q
(including 0).  Their total is exactly zero, and their logarithmic potential
sum_p (1/Q'(p)) log(z - p) tends to -1/(q z^q) as the roots shrink to 0.
This module quantifies that limit: the series coefficients obey the exact
scaling law

    b_{q+l}(t a_1, ..., t a_q) = t^l b_{q+l}(a_1, ..., a_q),

so the far-field error |g_t(z) + 1/(q z^q)|, the tail sum_{n>q} b_n z^-n, on
a circle |z| = R shrinks as t^l*, l* the least l >= 1 with b_{q+l}(a) != 0:
linearly, as b_{q+1} = -(sum a_j)/(q+1), unless the roots sum to zero, and
then quadratically, as b_{q+2} = -h_2(a)/(q+2), 2h_2 = (sum a_j)^2 + sum a_j^2.

Floating point lives here alone, in `evaluate_all`, the double-precision
Horner sum, and the sup it feeds; the tolerances are the caller's, and the
exact coefficient checks stay exact.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator, Sequence

from .integrate import (RootConfig, integrate_via_expansion, residue_moments,
                        residue_scale)
from .polynomial import Rat, as_rat
from .symmetric import ExactCheckError

__all__ = ["scaling_limit_table"]

MAX_HORNER_STEPS = 2**20  # each work count; 1 x 2^19 x 2 float steps: 0.7 s, 15 MB
CHUNK = 4096  # points made at a time on the one walk of the circle


def evaluate_all(coefficients: Sequence[Rat],
                 points: Iterable[complex]) -> Iterator[complex]:
    """Yield b_0 + b_1 z^-1 + ... + b_N z^-N at each nonzero point in turn, in
    double precision.  Horner runs in v = 2^e / z, where 2^(e-1) <= |z| < 2^e,
    on the scaled coefficients b_n 2^(-e n), each rounded once from its exact
    value for each distinct e among the points: once in all for points on a
    circle whose |z| stays in one binade.  A coefficient beyond the float
    range therefore does not overflow when its term b_n z^-n is small.
    Scaling by powers of two is exact, so away from underflow and overflow
    the sum is bit-identical to plain Horner in 1/z.  The exponent is capped
    at 1023, where 2^e itself would overflow; |v| <= 1 still holds there.
    """
    scaled: dict[int, list[float]] = {}
    for z in points:
        zc = complex(z)
        e = min(math.frexp(abs(zc))[1], 1023)
        if e not in scaled:
            scaled[e] = [
                (c.numerator << max(-e * n, 0)) / (c.denominator << max(e * n, 0))
                for n, c in reversed(list(enumerate(coefficients)))
            ]
        v = math.ldexp(1.0, e) / zc
        acc = 0j
        for c in scaled[e]:
            acc = acc * v + c
        yield acc


def scaling_limit_table(
    cfg: RootConfig,
    scales: Sequence[Rat | int | str],
    radius: float,
    samples: int,
    truncation: int,
    max_l: int | None = None,
) -> tuple[tuple[Rat, tuple[Rat, ...], float], ...]:
    """For each scale t, the row (t, the exact b_{q+l}(t a) for l = 0..max_l, the
    sup of |g_t(z) + 1/(q z^q)| over equispaced points on |z| = radius).

    The exact side reduces one series, the base b_{q+l}(a) off the expansion
    route; row t is t^l b_{q+l}(a), checked on integers against the residue
    kernel on t a, whose D_t and x_l = m_{q+l}(c_t) must give x_0 = 1 (that
    is, b_q = -1/q) and x_l den(b_l) = -(q+l) D_t^l num(b_l): each row sets
    one route against the other, and a violation raises before any sampling.
    The numeric side sums the tail b_{q+1} z^-(q+1) + ... + b_N z^-N alone, as
    the series b_{q+1} z^-1 + ... + b_N z^-(N-q) divided by z^q, so the two
    terms of size 1/(q R^q) that cancel in g_t(z) + 1/(q z^q) never meet in
    floating point.  One walk of the circle, CHUNK points at a time, serves
    every row: each chunk's points and their z^q are made once, `evaluate_all`
    sums each row's tail over it (rounding the coefficients once per chunk and
    binade of |z|), and the sups are folded chunk by chunk, so nothing is kept
    per sample.  Comparing sup errors across rows is the caller's business.

    The radius must be finite and exceed every scaled root, its q-th power
    must not overflow a double, 1/(q z^q) and the tail on the circle must stay
    within the double range, and neither the float work, scales x samples x N,
    nor the exact work, scales x (q+1) x (N+1) residue kernel steps, may exceed
    MAX_HORNER_STEPS; anything else raises ValueError.  A scale whose kernel on
    t a fails `residue_scale`, or a radius**q that overflows, raises before any row.
    """
    t_scales = [as_rat(t) for t in scales]
    if not t_scales:
        raise ValueError("at least one scale is required")
    if any(t <= 0 for t in t_scales):
        raise ValueError("scales must be positive")
    if samples < 1:
        raise ValueError("samples must be positive")
    if (steps := len(t_scales) * samples * truncation) > MAX_HORNER_STEPS:
        raise ValueError(f"{len(t_scales)} scales x {samples} samples x {truncation} "
                         f"terms = {steps} Horner steps, above MAX_HORNER_STEPS = "
                         f"{MAX_HORNER_STEPS}")
    if max_l is not None and max_l < 0:
        raise ValueError("max_l must be nonnegative")
    q = cfg.q
    largest = max(t_scales) * max(map(abs, cfg.roots))  # max |t a|, as every t > 0
    bound = float(largest) if largest <= sys.float_info.max else math.inf
    if not math.isfinite(radius):
        raise ValueError("radius must be finite")
    if not radius > bound:
        raise ValueError(
            f"radius must exceed every scaled root magnitude (need > {bound})"
        )
    if (steps := len(t_scales) * (q + 1) * (truncation + 1)) > MAX_HORNER_STEPS:
        raise ValueError(f"{len(t_scales)} scales x {q + 1} poles x {truncation + 1} "
                         f"moments = {steps} residue kernel steps, above "
                         f"MAX_HORNER_STEPS = {MAX_HORNER_STEPS}")
    scaled = [tuple(t * a for a in cfg.roots) for t in t_scales]
    for roots in scaled:
        residue_scale(roots, truncation + 1)

    depth = truncation - q
    if max_l is not None:
        depth = min(depth, max_l)
    base = integrate_via_expansion(cfg, truncation)[q:]

    def powers_of(points: list[complex]) -> list[complex]:
        try:  # an overflowing z**q anywhere on the circle is reported first
            return [z**q for z in points]
        except OverflowError:
            raise ValueError(f"radius**q must not overflow a double (q = {q})") from None
    powers_of([complex(radius)])  # radius * (cos 0 + i sin 0), the walk's first point

    rows, tails = [], []
    for t, roots in zip(t_scales, scaled):
        d, moments = residue_moments(roots, truncation + 1)
        if moments[q] != 1:
            raise ExactCheckError("leading coefficient drifted from -1/q")
        b = [t**l * b0 for l, b0 in enumerate(base)]
        for l, (x, y) in enumerate(zip(moments[q:], b)):
            if x * y.denominator != -(q + l) * d**l * y.numerator:
                raise ExactCheckError(f"t^l scaling law failed at l = {l}")
        rows.append((t, tuple(b[: depth + 1])))
        tails.append((0, *b[1:]))

    sups = [0.0] * len(tails)
    outside = False  # once the far field leaves the double range, only z**q is read
    for start in range(0, samples, CHUNK):
        angles = (2 * math.pi * k / samples for k in range(samples)[start:start + CHUNK])
        points = [radius * complex(math.cos(a), math.sin(a)) for a in angles]
        powers = powers_of(points)
        for zq in powers:  # z**q underflowed to 0, or 1/(q z^q) overflows
            inv = 1 / (q * zq) if zq else math.inf
            outside = outside or not (math.isfinite(inv.real) and math.isfinite(inv.imag))
        for i, tail in enumerate([] if outside else tails):
            try:
                errors = [abs(s / zq) for s, zq in zip(evaluate_all(tail, points), powers)]
            except OverflowError:
                errors = [math.inf]
            outside = outside or not all(map(math.isfinite, errors))
            sups[i] = max(sups[i], *errors)
    if outside:
        raise ValueError(
            f"radius**q must keep the far field within the double range (q = {q})")
    return tuple((t, b, sup) for (t, b), sup in zip(rows, sups))
