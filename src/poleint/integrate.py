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
antidifferentiating term by term, and summing the residue-weighted log
series of the partial fractions, whose coefficients are b_n = -m_n/n.

Both routes compute the integer moments m_n(c) of 1/Q_c, c = D * a (D the lcm
of the root denominators), each its own way and with its own D.  The residue
kernel holds each term x_i / Delta_i of m_n as quotient plus remainder,
divmod(x_i, Delta_i) = (quo_i, rem_i): m_n = sum_i quo_i + F, F = sum_i
rem_i / Delta_i, read exactly as ceil(T / 2^64), T = sum_i floor(2^64 rem_i /
Delta_i), since
    F is an integer, as m_n is, and 0 <= F <= q over the q + 1 poles;
    each floor lies in (2^64 rem_i/Delta_i - 1, 2^64 rem_i/Delta_i];
    so 2^64 F - q <= T <= 2^64 F, and as q < 2^64, F = ceil(T / 2^64).
`cross_checked` and the identity rows compare the two kernels' integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polynomial import Poly, Rat, Value, as_rat
from .symmetric import ExactCheckError, check_moment_size, integer_expansion

__all__ = ["RootConfig", "check_moment_identities", "decomposes",
           "integrate_via_expansion", "integrate_via_partial_fractions", "moment",
           "partial_fractions"]


class RootConfig(Value):
    """The distinct nonzero roots a_1..a_q; the root at 0 is implicit."""

    __slots__ = ("roots",)

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


def _pole_differences(roots: tuple[Rat, ...]) -> tuple:
    """The poles 0, a_1, ..., a_q as (n_i, d_i), P = prod d_i and the Delta_i =
    prod_(k != i) (n_i d_k - n_k d_i), so that 1/Q'(a_i) = d_i^(q-1) P / Delta_i."""
    poles = [(0, 1), *((a.numerator, a.denominator) for a in roots)]
    deltas = [math.prod(filter(None, (n * e - m * d for m, e in poles)))
              for n, d in poles]  # filter(None, ...) drops the factor k = i, 0
    return poles, math.prod(d for _, d in poles), deltas


def partial_fractions(numerator: Poly, cfg: RootConfig) -> tuple[tuple[Rat, Rat], ...]:
    """Pairs (pole, coefficient) of numerator/Q over the poles 0, a_1, ..., a_q:
    Q is monic with simple roots, so the coefficient at a_i = n_i/d_i is
    numerator(a_i) / Q'(a_i) = H_i d_i^q P / (L d_i^(e+1) Delta_i) for numerator =
    sum_j A_j z^j / L of degree e, with H_i = sum_j A_j n_i^j d_i^(e-j) on integers."""
    if numerator.degree > cfg.q:
        raise ValueError("numerator degree must be below denominator degree")
    residue_scale(cfg.roots, cfg.q + 1)  # the residue route's size rule, q + 1 moments
    lcm = math.lcm(*(a.denominator for a in numerator.coefficients))
    scaled = [a.numerator * (lcm // a.denominator) for a in numerator.coefficients]
    poles, p, deltas = _pole_differences(cfg.roots)
    terms = []
    for a, (n, d), x in zip((Fraction(0), *cfg.roots), poles, deltas):
        h, w = 0, 1  # H_i by homogeneous Horner; w ends at d_i^(e+1), 1 if numerator = 0
        for c in reversed(scaled):
            h, w = h * n + c * w, w * d
        terms.append((a, Fraction(h * d ** cfg.q * p, lcm * w * x)))
    return tuple(terms)


def decomposes(numerator: Poly, terms: tuple[tuple[Rat, Rat], ...]) -> bool:
    """Whether `terms`, pairs (p_j, c_j) over m distinct p_j = n_j/d_j, m > deg numerator,
    decompose numerator = sum_i A_i z^i / L over prod_j (z - p_j), that is (README),
    num(c_j) L prod_(k != j) (n_j d_k - n_k d_j) = den(c_j) prod_(k != j) d_k H_j."""
    lcm = math.lcm(*(a.denominator for a in numerator.coefficients))
    scaled = [a.numerator * (lcm // a.denominator) for a in numerator.coefficients]
    poles = [(p.numerator, p.denominator) for p, _ in terms]
    product = math.prod(d for _, d in poles)
    for (n, d), (_, c) in zip(poles, terms):
        h, w = 0, d ** (len(poles) - len(scaled))  # H_j = sum_i A_i n_j^i d_j^(m-1-i)
        for a in reversed(scaled):  # by homogeneous Horner, w = d_j^(m-1-i)
            h, w = h * n + a * w, w * d
        if (c.numerator * lcm * math.prod(filter(None, (n * f - k * d for k, f in poles)))
                != c.denominator * (product // d) * h):
            return False
    return True


def residue_scale(roots: tuple[Rat, ...], count: int) -> tuple[int, list[int]]:
    """The residue kernel's own D = lcm d_i and c = D * a, pole 0 first, with
    c_i = n_i D/d_i, once `check_moment_size` has sized count moments on them."""
    d = math.lcm(*(a.denominator for a in roots))
    c = [0, *(a.numerator * (d // a.denominator) for a in roots)]
    check_moment_size(len(roots), count, d, c)
    return d, c


def _residue_moment(parts: list[tuple[int, int]], deltas: list[int],
                    zero: bool = False) -> int:
    """sum_i quo_i + F off the divmod(x_i, Delta_i), F read as in the module
    docstring; a T outside its window, or m != 0 where zero is asked, raises."""
    t = sum((r << 64) // x for (_, r), x in zip(parts, deltas))
    f = -(-t >> 64)
    m = sum(u for u, _ in parts) + f
    if (f << 64) - t >= len(parts) or zero and m:  # len(parts) = q + 1 poles
        raise ExactCheckError("residue moments must vanish at n = 0 and be "
                              "integers; exact arithmetic is broken")
    return m


def residue_moments(roots: tuple[Rat, ...], count: int) -> tuple[int, list[int]]:
    """D and m_0..m_(count-1), m_n = sum_i x_i / Delta_i over the poles a_i =
    n_i/d_i, 0/1 included (`_pole_differences`): below q, x_i = n_i^n
    d_i^(q-1-n) and m_n(a) / P, which vanishes exactly when m_n(c) does; from
    q on, x_i = n_i^q (P/d_i) c_i^(n-q) and m_n(c).  A step past q is carry,
    rem_i = divmod(rem_i c_i, Delta_i), quo_i = quo_i c_i + carry: the quo_i
    grow like m_n.  `residue_scale` sizes D and c before any product."""
    q, (d, c) = len(roots), residue_scale(roots, count)
    poles, p, deltas = _pole_differences(roots)
    terms, moments = [e ** (q - 1) for _, e in poles], []
    for n in range(min(count, q + 1)):
        if n:  # below q, trade a factor d_i for n_i; at q, times n_i P/d_i
            terms = [t // e * m if n < q else t * m * (p // e)
                     for t, (m, e) in zip(terms, poles)]
        parts = list(map(divmod, terms, deltas))
        moments.append(_residue_moment(parts, deltas, zero=not n))
    for _ in range(q + 1, count):
        parts = [(u * k + carry, r) for (u, r0), k, x in zip(parts, c, deltas)
                 for carry, r in [divmod(r0 * k, x)]]
        moments.append(_residue_moment(parts, deltas))
    return d, moments


def reduced_coefficients(moments: list[int], d: int, q: int) -> list[tuple[int, ...]]:
    """b_1..b_N in lowest terms as (num, s, k), b_n = num / (s * D^k), from
    b_n = -m_n(c) * D^(q-n) / (n * D^(n-q)).  If no prime of D divides the
    numerator, none of D^k can cancel and the gcd runs against n alone;
    otherwise against the whole denominator, with k = 0."""
    out = []
    for n, m in enumerate(moments[1:], start=1):
        # below q, m_n(c) is 0 unless the arithmetic is broken: skip its D^(q-n)
        num = -m * d ** (q - n) if m and n < q else -m
        k = max(n - q, 0)
        den, k = (n, k) if math.gcd(num % d, d) == 1 else (n * d**k, 0)
        g = math.gcd(num % den, den)
        out.append((num // g, den // g, k))
    return out


def series_from_moments(moments: list[int], d: int, q: int) -> tuple[Fraction, ...]:
    """(0, b_1, ..., b_N), each b_n = num / (s * D^k) of `reduced_coefficients`."""
    return Fraction(0), *(Fraction(num, s * d**k)
                          for num, s, k in reduced_coefficients(moments, d, q))


def cross_checked(cfg: RootConfig, truncation: int) -> tuple:
    """For N > q, as the caller checks: D, the `reduced_coefficients` b_1..b_N and
    paths_agree, iff both kernels give the same integer moments."""
    d, _, moments = integer_expansion(cfg.roots, truncation + 1)
    _, residues = residue_moments(cfg.roots, truncation + 1)
    return d, reduced_coefficients(moments, d, cfg.q), residues == moments


def moment(cfg: RootConfig, k: int) -> Fraction:
    """The weighted power sum m_k = sum_p p^k / Q'(p) off the residue kernel."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    d, moments = residue_moments(cfg.roots, k + 1)
    return moments[k] * Fraction(d) ** (cfg.q - k)


def check_moment_identities(
    cfg: RootConfig, max_k: int
) -> tuple[tuple[int, Fraction, Fraction], ...]:
    """Rows (k, lhs, rhs) for k = 0..max_k: the moment m_k against its closed
    form, 0 below k = q, then the complete homogeneous values h_(k-q) (h_0 = 1).

    The rhs comes off the expansion kernel, the lhs off the residue kernel
    (the rhs itself where the two integers agree).  Failures are reported.
    """
    q = cfg.q
    if max_k < q:
        raise ValueError("max_k must be at least q")
    d, _, moments = integer_expansion(cfg.roots, max_k + 1)
    _, residues = residue_moments(cfg.roots, max_k + 1)
    rhs = [m * Fraction(d) ** (q - k) for k, m in enumerate(moments)]
    lhs = [r if x == m else x * Fraction(d) ** (q - k)
           for k, (x, m, r) in enumerate(zip(residues, moments, rhs))]
    return tuple(zip(range(max_k + 1), lhs, rhs))


def _check_truncation(cfg: RootConfig, truncation: int) -> None:
    if truncation < cfg.q + 1:
        raise ValueError(f"truncation must be at least q + 1 = {cfg.q + 1}, "
                         f"got {truncation}")


def integrate_via_expansion(cfg: RootConfig, truncation: int) -> tuple[Fraction, ...]:
    """Reference route: expand 1/Q at infinity root-free, then antidifferentiate
    term by term, to the tuple (b_0 = 0, b_1, ..., b_N).  Never evaluates at an
    individual root, so the symmetric dependence on the roots is structural."""
    _check_truncation(cfg, truncation)
    d, _, moments = integer_expansion(cfg.roots, truncation + 1)
    return series_from_moments(moments, d, cfg.q)


def integrate_via_partial_fractions(cfg: RootConfig,
                                    truncation: int) -> tuple[Fraction, ...]:
    """Checking route: integrate each partial fraction c_p/(z - p) to a
    logarithm and sum, using only the residues, to (b_0 = 0, b_1, ..., b_N).

    Each log(z - p) splits as log z + log(1 - p/z).  The log z multiples carry
    total weight m_0 = sum_p c_p = 0 (the k = 0 moment identity); a nonzero
    residue sum would mean an arithmetic bug, not a property of the input.
    What remains is

        sum_p c_p log(1 - p/z) = -sum_{n>=1} (m_n/n) z^-n,

    so b_n = -m_n/n off one moment table.
    """
    _check_truncation(cfg, truncation)
    d, moments = residue_moments(cfg.roots, truncation + 1)
    return series_from_moments(moments, d, cfg.q)
