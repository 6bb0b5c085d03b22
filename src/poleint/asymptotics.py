"""Point-charge potentials and the shrinking-root limit of the antiderivative.

A root configuration induces charges 1/Q'(p) at each pole p of 1/Q
(including 0).  Their total is exactly zero, so the combined logarithmic
potential sum_p (1/Q'(p)) log(z - p) is single-valued up to branch cuts and
tends to -1/(q z^q) as the roots shrink to 0.  This module quantifies that
limit: the series coefficients obey the exact scaling law

    b_{q+l}(t a_1, ..., t a_q) = t^l b_{q+l}(a_1, ..., a_q),

so the far-field error |g_t(z) + 1/(q z^q)| on a circle |z| = R is dominated
by the l = 1 term and shrinks linearly in t.

This is the only module that touches floating point; everything it reports
numerically is double precision with the tolerances owned by the caller.
The exact coefficient checks stay exact.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Sequence
from fractions import Fraction

from .integrate import RootConfig, integrate_via_expansion, partial_fractions
from .polynomial import Poly, Rat, Value, as_rat
from .symmetric import ExactCheckError

RATIO_BAND = (0.3, 0.7)


class ChargeSystem(Value):
    """Point charges (location, magnitude) with zero total charge."""

    __slots__ = ("charges",)

    def __post_init__(self) -> None:
        charges = tuple((as_rat(loc), as_rat(mag)) for loc, mag in self.charges)
        object.__setattr__(self, "charges", charges)
        if self.total_charge != 0:
            raise ValueError(f"total charge must be zero, got {self.total_charge}")

    @classmethod
    def from_roots(cls, cfg: RootConfig) -> ChargeSystem:
        """Charge 1/Q'(p) at every pole p of 1/Q, including the pole at 0."""
        pf = partial_fractions(Poly.one(), cfg)
        return cls(tuple(pf.terms))

    @property
    def total_charge(self) -> Fraction:
        return sum((mag for _, mag in self.charges), Fraction(0))


def potential(system: ChargeSystem, z: complex) -> complex:
    """sum_j magnitude_j * log(z - location_j) with the principal branch.

    Double precision; z must avoid the charge locations.
    """
    zc = complex(z)
    total = 0j
    for loc, mag in system.charges:
        w = zc - complex(loc)
        if w == 0:
            raise ValueError(f"potential is singular at charge location {loc}")
        total += float(mag) * cmath.log(w)
    return total


class ScaleRow(Value):
    """One scale t: the exact coefficients b_{q+l}(t a) and the measured
    far-field sup error against -1/(q z^q)."""

    __slots__ = ("scale", "coefficients", "sup_error")


class ScalingReport(Value):
    """The scaling table: one row per scale and the sup-error ratios between them."""

    __slots__ = ("q", "radius", "samples", "truncation", "rows", "ratios",
                 "strictly_decreasing", "ratio_in_band")


def scaling_limit_table(
    cfg: RootConfig,
    scales: Sequence[Rat | int | str],
    radius: float,
    samples: int,
    truncation: int,
    max_l: int | None = None,
) -> ScalingReport:
    """For each scale t, integrate 1/Q with roots t*a and measure the sup of
    |g_t(z) + 1/(q z^q)| over equispaced points on the circle |z| = radius.

    The exact side re-verifies, per row, that the leading coefficient is
    -1/q regardless of t and that b_{q+l}(t a) = t^l b_{q+l}(a); any
    violation would be an arithmetic bug and raises.  The numeric side
    reports consecutive sup-error ratios and flags those outside
    RATIO_BAND (once the l = 1 term dominates the ratio tends to 1/2 when
    scales halve); give the scales in decreasing order to read
    `strictly_decreasing` as convergence.  A ratio after a sup error that
    underflowed to 0 is nan, which is out of band and not decreasing.

    The radius must be finite and exceed every scaled root, its q-th power
    must not overflow a double, and 1/(q z^q) and the truncated series on the
    circle must stay within the double range; anything else raises
    ValueError.
    """
    t_scales = [as_rat(t) for t in scales]
    if not t_scales:
        raise ValueError("at least one scale is required")
    if any(t <= 0 for t in t_scales):
        raise ValueError("scales must be positive")
    if samples < 1:
        raise ValueError("samples must be positive")
    if max_l is not None and max_l < 0:
        raise ValueError("max_l must be nonnegative")
    q = cfg.q
    largest = max(abs(t * a) for t in t_scales for a in cfg.roots)
    bound = float(largest) if largest <= sys.float_info.max else math.inf
    if not radius > bound:
        raise ValueError(
            f"radius must exceed every scaled root magnitude (need > {bound})"
        )
    if not math.isfinite(radius):
        raise ValueError("radius must be finite")

    depth = truncation - q
    if max_l is not None:
        depth = min(depth, max_l)
    base = integrate_via_expansion(cfg, truncation)
    points = [
        radius * cmath.exp(2j * cmath.pi * k / samples) for k in range(samples)
    ]
    far_field = f"radius**q must keep the far field within the double range (q = {q})"
    try:
        limits = [(z, 1 / (q * z**q)) for z in points]
    except OverflowError:
        raise ValueError(f"radius**q must not overflow a double (q = {q})") from None
    except ZeroDivisionError:  # z**q underflowed to 0
        raise ValueError(far_field) from None

    rows = []
    for t in t_scales:
        res = integrate_via_expansion(cfg.scaled(t), truncation)
        if res.coefficient(q) != Fraction(-1, q):
            raise ExactCheckError("leading coefficient drifted from -1/q")
        t_power = Fraction(1)
        for l in range(truncation - q + 1):
            if res.coefficient(q + l) != t_power * base.coefficient(q + l):
                raise ExactCheckError(f"t^l scaling law failed at l = {l}")
            t_power *= t
        try:
            errors = [abs(res.evaluate(z) + limit) for z, limit in limits]
        except OverflowError:
            errors = [math.inf]
        if not all(map(math.isfinite, errors)):
            raise ValueError(far_field)
        sup = max(errors)
        rows.append(
            ScaleRow(
                scale=t,
                coefficients=tuple(res.coefficient(q + l) for l in range(depth + 1)),
                sup_error=sup,
            )
        )

    sups = [row.sup_error for row in rows]
    # a sup error that underflowed to 0 leaves the next ratio undefined
    ratios = tuple(b / a if a else math.nan for a, b in zip(sups, sups[1:]))
    return ScalingReport(
        q=q,
        radius=radius,
        samples=samples,
        truncation=truncation,
        rows=tuple(rows),
        ratios=ratios,
        strictly_decreasing=all(b < a for a, b in zip(sups, sups[1:])),
        ratio_in_band=tuple(RATIO_BAND[0] <= r <= RATIO_BAND[1] for r in ratios),
    )
