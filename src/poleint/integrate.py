"""Exact series antiderivatives of 1/Q for Q(z) = z(z - a_1)...(z - a_q).

The roots a_1..a_q are distinct nonzero rationals (the root at 0 is
implicit), so Q is square-free with simple poles only.  Everything here is
exact; no tolerances appear anywhere in this module.

Central facts, all verified by the test suite:

* the weighted power sums ("moments")

      m_0 = 1/Q'(0) + sum_j 1/Q'(a_j),
      m_k = sum_j a_j^k / Q'(a_j)          for k >= 1,

  satisfy m_k = 0 for k < q, m_q = 1, and m_{q+l} = h_l(a_1, ..., a_q)
  where h_l is the complete homogeneous symmetric polynomial;

* the antiderivative g of 1/Q normalized to vanish at infinity is

      g = sum_{l>=0} -h_l(a)/(q+l) * z^-(q+l),

  so its valuation is exactly q and its leading coefficient is -1/q.

The antiderivative is computed by two independent routes that must agree
coefficient for coefficient: expanding 1/Q at infinity root-free and
antidifferentiating term by term, and summing residue-weighted log series
over the partial fraction decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomial import Poly, Rat, as_rat
from .series import InvZSeries
from .symmetric import SymmetricTable


@dataclass(frozen=True, slots=True)
class RootConfig:
    """The distinct nonzero roots a_1..a_q; the root at 0 is implicit."""

    roots: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        roots = tuple(as_rat(r) for r in self.roots)
        object.__setattr__(self, "roots", roots)
        if not roots:
            raise ValueError("at least one nonzero root is required")
        if any(r == 0 for r in roots):
            raise ValueError("roots must be nonzero")
        if len(set(roots)) != len(roots):
            raise ValueError("roots must be pairwise distinct")

    @property
    def q(self) -> int:
        return len(self.roots)

    def polynomial(self) -> Poly:
        """Q(z) = z(z - a_1)...(z - a_q), monic of degree q + 1."""
        return Poly.from_roots(self.roots, include_zero_root=True)

    def scaled(self, t: Rat | int | str) -> RootConfig:
        tr = as_rat(t)
        return RootConfig(tuple(tr * r for r in self.roots))


@dataclass(frozen=True, slots=True)
class PartialFractions:
    """Simple-pole decomposition: pairs (pole, coefficient at that pole)."""

    terms: tuple[tuple[Fraction, Fraction], ...]

    @property
    def poles(self) -> tuple[Fraction, ...]:
        return tuple(p for p, _ in self.terms)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(c for _, c in self.terms)

    def coefficient_sum(self) -> Fraction:
        return sum(self.coefficients, Fraction(0))

    def reconstructed_numerator(self) -> Poly:
        """sum_j c_j * prod_{k != j} (z - pole_k); equals the original
        numerator whenever the decomposition is correct."""
        poles = self.poles
        total = Poly.zero()
        for j, (_, c) in enumerate(self.terms):
            others = poles[:j] + poles[j + 1 :]
            total = total + Poly.from_roots(others) * c
        return total


def partial_fractions(numerator: Poly, cfg: RootConfig) -> PartialFractions:
    """Exact decomposition of numerator/Q over the poles 0, a_1, ..., a_q.

    The coefficient at a pole p is numerator(p)/Q'(p).
    """
    q_poly = cfg.polynomial()
    if numerator.degree >= q_poly.degree:
        raise ValueError("numerator degree must be below denominator degree")
    dq = q_poly.derivative()
    poles = (Fraction(0),) + cfg.roots
    return PartialFractions(tuple((p, numerator(p) / dq(p)) for p in poles))


def _power_sum(terms: tuple[tuple[Fraction, Fraction], ...], k: int) -> Fraction:
    """sum_p p^k * c over (pole, residue) pairs."""
    return sum((p**k * c for p, c in terms), Fraction(0))


def moment(cfg: RootConfig, k: int) -> Fraction:
    """The weighted power sum m_k = sum_p p^k / Q'(p) over the residues of 1/Q.

    The pole at 0 contributes only at k = 0, through 0**0 == 1.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _power_sum(partial_fractions(Poly.one(), cfg).terms, k)


@dataclass(frozen=True, slots=True)
class MomentIdentityRow:
    k: int
    lhs: Fraction
    rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True, slots=True)
class MomentIdentityReport:
    q: int
    rows: tuple[MomentIdentityRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(row.ok for row in self.rows)


def check_moment_identities(cfg: RootConfig, max_k: int) -> MomentIdentityReport:
    """Compare every m_k for 0 <= k <= max_k against its closed form:
    0 below k = q, then 1, then the complete homogeneous values h_l.

    The residues are computed once and shared by every row.  Failures are
    reported, not raised.
    """
    q = cfg.q
    if max_k < q:
        raise ValueError("max_k must be at least q")
    table = SymmetricTable.build(cfg.roots, max_k - q)
    terms = partial_fractions(Poly.one(), cfg).terms
    rows = []
    for k in range(max_k + 1):
        if k < q:
            rhs = Fraction(0)
        elif k == q:
            rhs = Fraction(1)
        else:
            rhs = table.h[k - q]
        rows.append(MomentIdentityRow(k=k, lhs=_power_sum(terms, k), rhs=rhs))
    return MomentIdentityReport(q=q, rows=tuple(rows))


def _check_truncation(cfg: RootConfig, truncation: int) -> None:
    if truncation < cfg.q + 1:
        raise ValueError(
            f"truncation must be at least q + 1 = {cfg.q + 1}, got {truncation}"
        )


def integrate_via_expansion(cfg: RootConfig, truncation: int) -> InvZSeries:
    """Reference route: expand 1/Q at infinity root-free, then antidifferentiate
    term by term.  Never evaluates anything at an individual root, so the
    symmetric dependence on the roots is structural."""
    _check_truncation(cfg, truncation)
    f = InvZSeries.from_rational(Poly.one(), cfg.polynomial(), truncation + 1)
    return f.antiderivative()


def integrate_via_partial_fractions(cfg: RootConfig, truncation: int) -> InvZSeries:
    """Checking route: integrate each partial fraction to a logarithm and sum
    the log series.

    Each log(z - a) splits as log z + log(1 - a/z), and the log z multiples
    carry total weight sum_j 1/Q'(pole_j) = 0 (the k = 0 moment identity), so
    only the in-ring log factors remain.  A nonzero residue sum would mean an
    arithmetic bug, not a property of the input.
    """
    _check_truncation(cfg, truncation)
    pf = partial_fractions(Poly.one(), cfg)
    if pf.coefficient_sum() != 0:
        raise ArithmeticError(
            "residues of 1/Q must sum to zero; exact arithmetic is broken"
        )
    total = InvZSeries.zero(truncation)
    for pole, c in pf.terms:
        if pole == 0:
            continue
        total = total + InvZSeries.log_factor(pole, truncation) * c
    return total
