"""The integer kernels behind both integration routes, against the Fraction
oracles, and the guard that keeps the two routes independent."""

import contextlib
import io
import json
import math
import random
import sys
from decimal import Decimal, Inexact, Rounded
from fractions import Fraction as F
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import poleint.asymptotics
import poleint.cli
import poleint.helper
import poleint.integrate
import poleint.symmetric
from poleint import (
    ExactCheckError,
    RootConfig,
    SymmetricTable,
    check_moment_identities,
    complete_homogeneous,
    determinant,
    integrate_via_expansion,
    integrate_via_partial_fractions,
    moment,
)
from poleint.cli import main
from poleint.integrate import (
    _pole_differences,
    cross_checked,
    partial_fractions,
    _residue_moment,
    reduced_coefficients,
    residue_moments,
    residue_scale,
    series_from_moments,
)
from poleint.polynomial import EXACT, Poly, format_quotient, format_rational
from poleint.series import InvZSeries
from poleint.symmetric import (MAX_EXPANSION_BITS, check_moment_size, integer_expansion,
                               scale_to_integers)

from conftest import HELPER_CAN_RUN, PRIMES_30_BITS, SMALL_PRIMES, rationals
from make_golden import GOLDEN, outcome
from oracles import closed_form, moments_direct, symmetric_recurrence

_NONZERO = st.integers(-40, 40).filter(bool)
# Each family is drawn on its own, so that every run covers integer roots
# (D = 1), one shared denominator, pairwise coprime prime denominators, and
# 30-bit numerators over 30-bit primes, the integrate-tall shape.
_INTEGER_ROOTS = st.lists(_NONZERO, min_size=1, max_size=6, unique=True)
_SHARED_DENOMINATOR = st.builds(
    lambda nums, d: [F(n, d) for n in nums],
    st.lists(_NONZERO, min_size=1, max_size=6, unique=True),
    st.integers(2, 12),
)
_COPRIME_DENOMINATORS = st.lists(
    st.builds(F, _NONZERO, st.sampled_from(SMALL_PRIMES)), min_size=1, max_size=6
).map(lambda roots: list(dict.fromkeys(roots)))
_WIDE_PRIME_DENOMINATORS = st.lists(
    st.builds(
        F, st.integers(-(2**30), 2**30).filter(bool), st.sampled_from(PRIMES_30_BITS)
    ),
    min_size=1,
    max_size=5,
).map(lambda roots: list(dict.fromkeys(roots)))
_ROOTS = st.one_of(
    _INTEGER_ROOTS, _SHARED_DENOMINATOR, _COPRIME_DENOMINATORS, _WIDE_PRIME_DENOMINATORS
)


def _assert_shared_factor_divides(c, p):
    """G^(i-1) | e_i(c) for i = 1..q, read off p_(q+1-i) = (-1)^i e_i(c): the
    expansion kernel's A_i are exact quotients."""
    g, q = poleint.symmetric._shared_factor(c), len(c)
    assert g >= 1
    assert all(p[q + 1 - i] % g ** (i - 1) == 0 for i in range(1, q + 1))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_ROOTS, st.integers(0, 8))
@example([5], 6)  # q = 1, integer
@example([F(-7, 3)], 4)  # q = 1, negative
@example([-1, -2, -3], 5)  # negative integers only
@example([F(1, 6), F(-5, 6), F(7, 6)], 6)  # shared denominator
@example([F(1, 2), F(-2, 3), F(4, 5), F(-6, 7)], 5)  # coprime denominators
@example([6, -10, 15, 30], 4)  # G = 30: each of 2, 3, 5 divides three roots
@example([F(4, 9), F(-8, 9), F(16, 9)], 5)  # G = 8 on c = (4, -8, 16)
@example([F(35, 2), F(-21, 5), F(15, 7)], 5)  # G = 3 * 5 * 7 * D
@example([F(2**30 - 1, 1073741789), F(-(2**29), 536870923)], 3)  # 30-bit
def test_kernels_match_fraction_oracles(roots, extra):
    cfg = RootConfig(tuple(roots))
    q, n = cfg.q, cfg.q + 1 + extra
    d, c = scale_to_integers(cfg.roots)
    assert d == math.lcm(*(a.denominator for a in cfg.roots))
    assert c == tuple(d * a for a in cfg.roots)

    expansion_d, p, moments = integer_expansion(cfg.roots, n + 1)
    assert expansion_d == d
    _assert_shared_factor_divides(c, p)
    assert residue_moments(cfg.roots, n + 1) == (d, moments)
    assert moments == [0] * q + list(symmetric_recurrence(c, n - q)[1])

    series = integrate_via_expansion(cfg, n)
    assert series == integrate_via_partial_fractions(cfg, n)
    assert series == (0,) * q + closed_form(cfg, n - q)

    *checked, agree = cross_checked(cfg, n)
    assert (*checked, agree()) == (d, reduced_coefficients(moments, d, q), True)
    assert tuple(F(num, s * d**k) for num, s, k in checked[1]) == (
        integrate_via_partial_fractions(cfg, n)[1:]
    )

    direct = moments_direct(cfg, n)
    assert [moment(cfg, k) for k in range(n + 1)] == direct
    rows = check_moment_identities(cfg, n)
    assert [lhs for _, lhs, _ in rows] == direct
    assert [rhs for _, _, rhs in rows] == direct


# -- the residue kernel on the pole differences ------------------------------


def _distinct_roots(rng, q):
    roots = set()
    while len(roots) < q:
        roots.add(F(rng.randrange(-(2**30), 2**30) or 1, rng.choice(SMALL_PRIMES)))
    return tuple(roots)


# 2 to 21 poles; the Delta_i alternate in sign along the sorted poles, so the
# remainders meet negative divisors.  1/Q'(a_i) = d_i^(q-1) P / Delta_i
# against the Fraction product over the other poles; D = lcm d_i; below q the
# moments vanish, m_q = 1 and m_(q+1) = h_1(c).
@pytest.mark.parametrize("q", range(1, 21))
def test_residue_weights_off_the_pole_differences(q):
    roots = _distinct_roots(random.Random(q), q)
    _, c = scale_to_integers(roots)
    poles, p, deltas = _pole_differences(roots)
    assert poles == [(0, 1)] + [(a.numerator, a.denominator) for a in roots]
    assert p == math.prod(a.denominator for a in roots)
    for a, (_, d), x in zip((0, *roots), poles, deltas):
        derivative = math.prod(a - b for b in (0, *roots) if b != a)  # Q'(a)
        assert F(d ** (q - 1) * p, x) == 1 / derivative
    d, moments = residue_moments(roots, q + 2)
    assert d == math.lcm(*(a.denominator for a in roots))
    assert moments == [0] * q + [1, sum(c)]
    assert residue_moments(roots, 1) == (d, [0])


@pytest.mark.parametrize("roots", [(5,), (F(-7, 3),), (1, F(2, 3), F(-5, 7))])
def test_no_step_q_term_below_q(roots):
    # count <= q returns exactly count moments, with no n = q term appended;
    # at q = 1, d_i^(q-1) = 1 and pole 0 contributes at n = 0 only.
    cfg, q = RootConfig(roots), len(roots)
    for count in range(1, q + 2):
        assert residue_moments(cfg.roots, count)[1] == ([0] * q + [1])[:count]
    assert [moment(cfg, k) for k in range(q + 1)] == [0] * q + [1]
    if q == 1:  # Delta_0 = 0 * d_1 - n_1, Delta_1 = n_1 - 0
        n = cfg.roots[0].numerator
        assert _pole_differences(cfg.roots)[2] == [-n, n]


def _wide_roots(rng, q, bits):
    """q distinct nonzero n/d, sorted, with n of either sign and d of `bits` bits."""
    roots = set()
    while len(roots) < q:
        n = rng.randrange(1, 2**bits) * rng.choice((-1, 1))
        roots.add(F(n, rng.randrange(2 ** (bits - 1), 2**bits)))
    return tuple(sorted(roots))


@pytest.mark.parametrize("bits", [30, 300])
@pytest.mark.parametrize("q", range(1, 21))
def test_residue_moments_match_the_oracles(q, bits):
    # m_n(c) = D^(n-q) m_n(a) off the Fraction residues, and h_l(c) off the
    # classical recurrence, for counts below, at and past q + 1.  Along the
    # sorted poles the Delta_i alternate in sign, so every draw divides by
    # negative ones too.
    roots = _wide_roots(random.Random(1000 * bits + q), q, bits)
    deltas = _pole_differences(roots)[2]
    signs = [x > 0 for _, x in sorted(zip((0, *roots), deltas))]
    assert all(a != b for a, b in zip(signs, signs[1:]))
    d, c = scale_to_integers(roots)
    direct = moments_direct(RootConfig(roots), q + 3)
    want = [0] * q + [m * d ** (n - q) for n, m in enumerate(direct) if n >= q]
    assert want[q:] == list(symmetric_recurrence(c, 3)[1])
    for count in (1, q, q + 1, q + 4):
        assert residue_moments(roots, count) == (d, want[:count])


# 1/2 + 1/3 + 1/7 + 1/43 + 1/1806 = 1: over these five divisors (q = 4), the
# fractional parts 1 - 1/|Delta_i| sum to F = 4 = q, the top of its range.
_EGYPTIAN = [2, -3, 7, -43, 1806]


def _largest_remainders():
    """(quo_i, rem_i) = (1, rem_i) with rem_i / Delta_i = 1 - 1/|Delta_i|."""
    return [(1, x - 1 if x > 0 else x + 1) for x in _EGYPTIAN]


def test_the_fractional_read_at_both_ends():
    # F = 0: every remainder is 0, and T = 0.
    assert _residue_moment([(5, 0), (-1, 0), (0, 0), (7, 0), (2, 0)], _EGYPTIAN) == 13
    # F = q: four of the five floors drop a fraction, so T falls short of
    # 2^64 q by less than q, and its ceiling still reads q.
    parts = _largest_remainders()
    t = sum((r << 64) // x for (_, r), x in zip(parts, _EGYPTIAN))
    assert 4 * 2**64 - 4 <= t < 4 * 2**64
    assert _residue_moment(parts, _EGYPTIAN) == 5 + 4


@pytest.mark.parametrize("slack", [1, 4, 5])
def test_the_fractional_read_window_is_q_wide(slack):
    # Five poles (q = 4), four remainders 0 and one rem / Delta = 1 - slack/2^64:
    # T = 2^64 F - slack with F = 1, read as F while slack <= q, refused past it.
    parts = [(2, 0)] * 4 + [(3, 2**64 - slack)]
    deltas = [7, -7, 7, -7, 2**64]
    if slack <= 4:
        assert _residue_moment(parts, deltas) == 4 * 2 + 3 + 1
    else:
        with pytest.raises(ExactCheckError, match="must vanish at n = 0 and be integers"):
            _residue_moment(parts, deltas)


@pytest.mark.parametrize("i", range(5))
def test_the_fractional_read_refuses_a_remainder_off_by_one(i):
    # rem_i one step toward 0 takes 1/|Delta_i| off F: no integer is left.
    parts = _largest_remainders()
    u, r = parts[i]
    parts[i] = (u, r - 1 if r > 0 else r + 1)
    with pytest.raises(ExactCheckError, match="must vanish at n = 0 and be integers"):
        _residue_moment(parts, _EGYPTIAN)


# -- the reduced coefficients and their printer --------------------------------


def _check_reduced(moments, d, q):
    """(num, s, k) against the Fraction b_n = -m_n D^(q-n) / (n D^(n-q)), and
    both printer inputs (an int and a Decimal denominator) against
    format_rational of it."""
    reduced = reduced_coefficients(moments, d, q)
    assert len(reduced) == len(moments) - 1
    for n, (m, (num, s, k)) in enumerate(zip(moments[1:], reduced), start=1):
        want = F(-m * d ** max(q - n, 0), n * d ** max(n - q, 0))
        assert (num, s * d**k) == (want.numerator, want.denominator)
        assert s > 0 and k in (0, max(n - q, 0))
        text = format_rational(want)
        assert format_quotient(num, s * d**k) == text
        assert format_quotient(num, EXACT.multiply(s, EXACT.power(d, k))) == text


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_ROOTS, st.integers(0, 8))
@example([F(1, 6), F(-5, 6), F(7, 6)], 6)  # shared denominator: the fallback
@example([F(1, 2), F(-2, 3), F(4, 5), F(-6, 7)], 5)  # coprime: the fast path
def test_reduced_coefficients_of_the_kernel_moments(roots, extra):
    cfg = RootConfig(tuple(roots))
    d, _, moments = integer_expansion(cfg.roots, cfg.q + extra + 2)
    _check_reduced(moments, d, cfg.q)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-(10**6), 10**6), min_size=2, max_size=12),
    st.sampled_from([1, 2, 6, 9, 30, 210, 1001]),
    st.integers(0, 8),
)
@example([0, 5, -9, 12, 0, 35], 6, 2)  # n < q nonzero, m shares 3 with D = 6
@example([0, 0, 1, -7, 49], 7, 2)  # a moment divisible by D
def test_reduced_coefficients_of_any_integer_moments(moments, d, q):
    _check_reduced(moments, d, q)


def test_reduced_coefficients_take_each_path():
    # D = 6, q = 1: -5/(2*6) keeps its D^1; -9/(3*6^2) shares 3 with D and
    # reduces against the whole denominator, to -1/12 with k = 0.
    assert reduced_coefficients([0, 1, 5, 9, 0], 6, 1) == [
        (-1, 1, 0),
        (-5, 2, 1),
        (-1, 12, 0),
        (0, 1, 0),
    ]
    assert series_from_moments([0, 1, 5, 9, 0], 6, 1) == (
        0, F(-1), F(-5, 12), F(-1, 12), 0,
    )


def test_the_exact_decimal_context_traps_rounding():
    assert EXACT.traps[Inexact] and EXACT.traps[Rounded]
    assert str(EXACT.power(10**40 + 1, 50)) == str(Decimal((10**40 + 1) ** 50))
    with pytest.raises(Inexact):
        EXACT.quantize(Decimal("1.5"), Decimal(1))
    with pytest.raises(Rounded):  # even when only a zero digit is dropped
        EXACT.quantize(Decimal("2.0"), Decimal(1))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(rationals, max_size=5), st.integers(0, 8))
@example([], 4)  # q = 1: the zero alone
@example([F(6), F(-10)], 5)  # c = (6, -10, 0, 6): G = 6
@example([F(0)], 3)  # zeros only: G = lcm(0, ...) = 0, taken as 1
def test_symmetric_table_with_zero_and_repeated_values(values, depth):
    values = values + [F(0)] + values[:1]  # a zero and, if any, a repeat
    table = SymmetricTable.build(values, depth)
    assert (table.e, table.h) == symmetric_recurrence(values, depth)
    _, c = scale_to_integers(values)
    _assert_shared_factor_divides(c, integer_expansion(values, 0)[1])


# -- the expansion kernel's size rule -----------------------------------------


def _size_spread():
    """200 seeded shapes: q = 1..8, N = q+1..4q, and roots n/d with n and d of
    at most b = 1..30 bits (b >= 2 once q > 2: there are two 1-bit roots)."""
    rng = random.Random(34)
    for _ in range(200):
        q = rng.randint(1, 8)
        bits = rng.randint(1 if q <= 2 else 2, 30)
        roots = set()
        while len(roots) < q:
            sign = rng.choice((-1, 1))
            roots.add(F(sign * rng.randrange(1, 2**bits), rng.randrange(1, 2**bits)))
        yield sorted(roots), rng.randint(q + 1, 4 * q)


def test_the_size_rule_bounds_what_integrate_prints(monkeypatch):
    # The rule sizes what the kernel holds, P, the moments and the D^l.  It
    # never predicts fewer bits than integrate prints (the numerators and
    # denominators of b_0..b_N), so one bit less refuses; nor more than 160
    # times as many, where P's q^2 term dominates (at most 123.7 on these
    # draws, at q = 7, N = 8), and 16 times once N >= 2q (at most 9.94, at
    # q = 8, N = 16).  The least ratio drawn is 3.78.
    for roots, n in _size_spread():
        argv = ["integrate", "--roots=" + ",".join(map(str, roots)), f"--terms={n}"]
        code, out, err = _run(argv)
        assert (code, err) == (0, "")
        values = [F(row["value"]) for row in json.loads(out)["coefficients"]]
        printed = sum(v.numerator.bit_length() + v.denominator.bit_length()
                      for v in values)
        factor = 16 if n >= 2 * len(roots) else 160
        with monkeypatch.context() as patch:
            patch.setattr(poleint.symmetric, "MAX_EXPANSION_BITS", printed - 1)
            code, out, err = _run(argv)
            assert (code, out) == (1, "")
            assert err.endswith(f"above MAX_EXPANSION_BITS = {printed - 1}\n")
            patch.setattr(poleint.symmetric, "MAX_EXPANSION_BITS", factor * printed)
            assert _run(argv)[::2] == (0, "")


# -- complete_homogeneous off the expansion kernel -----------------------------

_SPREAD = st.tuples(
    st.one_of(
        st.lists(rationals, max_size=5), _SHARED_DENOMINATOR, _COPRIME_DENOMINATORS
    ),
    st.booleans(),
    st.booleans(),
).map(lambda t: t[0] + [F(0)] * t[1] + t[0][:1] * t[2])  # a zero, a repeat


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_SPREAD, st.integers(0, 8))
@example([], 0)
@example([], 3)  # h_l of no values is 0 for l > 0
@example([F(0), F(0)], 2)
@example([F(1, 6), F(1, 6), F(-5, 6), F(0)], 4)  # repeated, shared denominator
@example([F(1, 2), F(-2, 3), F(4, 5)], 0)
def test_complete_homogeneous_is_the_table_entry(values, l):
    assert complete_homogeneous(values, l) == SymmetricTable.build(values, l).h[l]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.one_of(_SPREAD, _WIDE_PRIME_DENOMINATORS))
@example([])
@example([F(0), F(-3, 4), F(-3, 4), F(5, 6)])  # zero, a negative repeat, lcm 12
def test_scale_to_integers_is_d_times_a(values):
    # the Fraction form: D grows by den(D * a) per value, and c_j = D * a_j
    d = 1
    for a in values:
        d *= (d * a).denominator
    assert scale_to_integers(values) == (d, tuple(d * a for a in values))


def test_no_subcommand_builds_the_symmetric_table(monkeypatch):
    def refuse(cls, values, depth):
        raise AssertionError("SymmetricTable.build reached")

    monkeypatch.setattr(SymmetricTable, "build", classmethod(refuse))
    roots = "--roots=1,2/3,-5/7"
    for argv in (
        ARGV,
        ["pfd", roots, "--num", "z^2-1"],
        ["identities", roots],
        ["vandermonde", "--points", "1,2/3,-5/7,0", "--degree", "3"],
        ["limit", roots, "--scales", "1,1/2"],
    ):
        assert _run(argv)[::2] == (0, "")


def _vandermonde_argv(rng, i):
    """Points with integer, shared, coprime or mixed denominators by i % 4;
    a repeated point now and then makes both determinants vanish."""
    n = rng.randint(1, 8)
    nums = [rng.randint(-30, 30) for _ in range(n)]
    dens = [
        [1] * n,
        [rng.randint(2, 12)] * n,
        [rng.choice(SMALL_PRIMES) for _ in range(n)],
        [rng.randint(1, 40) for _ in range(n)],
    ][i % 4]
    points = [F(a, b) for a, b in zip(nums, dens)]
    return ["vandermonde", "--points=" + ",".join(map(str, points)),
            "--degree", str(rng.randint(1, 5))]


def test_vandermonde_degree_prints_what_the_table_printed(monkeypatch):
    # complete_homogeneous read h_l off SymmetricTable.build; every argument
    # list prints the same bytes with that reader put back in the CLI.
    rng = random.Random(18)
    argvs = [_vandermonde_argv(rng, i) for i in range(100)]
    new = [_run(argv) for argv in argvs]
    monkeypatch.setattr(
        poleint.cli, "complete_homogeneous",
        lambda values, l: SymmetricTable.build(values, l).h[l],
    )
    assert new == [_run(argv) for argv in argvs]
    assert {code for code, _, _ in new} == {0}


@pytest.mark.parametrize("argv", [
    ["vandermonde", "--points", "1,2/3,-5/7,0"],
    ["vandermonde", "--points", "1,2/3,-5/7,0", "--degree", "3"],
    ["vandermonde", "--points", "1,1,2", "--degree", "2"],
], ids=["plain", "degree", "repeated-point"])
def test_one_vandermonde_request_runs_one_elimination(monkeypatch, argv):
    # `determinant` and `generalized_vandermonde` reach the kernel through the
    # module too, so every elimination, by whichever name, is counted here
    original, widths = poleint.symmetric.bordered_determinants, []

    def counted(matrix):
        widths.append(len(matrix[0]))
        return original(matrix)

    _replace_everywhere(monkeypatch, original, counted)
    assert _run(argv)[::2] == (0, "")
    assert widths == [len(argv[2].split(",")) + ("--degree" in argv)]


# -- route independence -------------------------------------------------------

ARGV = ["integrate", "--roots", "1,2/3,-5/7", "--terms", "9"]  # q = 3
# the same roots above HELPER_BITS, (3^2 + 401^2) * 10 bits: the residue
# kernel runs in the helper
HELPER_ARGV = ["integrate", "--roots", "1,2/3,-5/7", "--terms", "400"]


def _replace_everywhere(monkeypatch, original, replacement):
    """Rebind every poleint module's reference to `original`, so that a
    route reaching a kernel through any module sees the replacement."""
    for name, module in list(sys.modules.items()):
        if name == "poleint" or name.startswith("poleint."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _perturb_expansion(l):
    def kernel(values, count):
        d, p, m = integer_expansion(values, count)
        m[len(values) + l] += 1
        return d, p, m

    return integer_expansion, kernel


def _perturb_residues(l):
    # m_(q+l) += 1 on the residue side, after its own self-check
    def kernel(roots, count):
        d, moments = residue_moments(roots, count)
        moments[len(roots) + l] += 1
        return d, moments

    return residue_moments, kernel


@pytest.mark.parametrize("l", [0, 4])
@pytest.mark.parametrize(
    "perturb", [_perturb_expansion, _perturb_residues], ids=["expansion", "residues"]
)
def test_a_perturbed_kernel_breaks_route_agreement(monkeypatch, perturb, l):
    # One route's kernel is off by one in h_l.  If the other route read the
    # same kernel, the two would still agree and this test would fail.
    # The helper is forked after the patch, so it runs the patched kernel.
    original, kernel = perturb(l)
    _replace_everywhere(monkeypatch, original, kernel)
    for argv in (ARGV, HELPER_ARGV):
        code, out, err = _run(argv)
        assert code == 3 and err == ""
        assert '"paths_agree": false' in out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert (poleint.helper._helper is None) == (argv is ARGV or not HELPER_CAN_RUN)
    cfg = RootConfig((1, F(2, 3), F(-5, 7)))
    assert integrate_via_expansion(cfg, 9) != integrate_via_partial_fractions(cfg, 9)
    # The identity check reads the same two kernels, one per column, so the
    # perturbed row, and only that row, fails there too.
    code, out, err = _run(["identities", "--roots", "1,2/3,-5/7", "--max-k", "9"])
    assert code == 3 and err == ""
    rows = out.splitlines()[:-1]
    assert len(rows) == 10
    assert [r.split()[0] for r in rows if r.endswith("pass=false")] == [f"k={3 + l}"]


@pytest.mark.parametrize("l", [0, 4])
def test_a_mismatch_runs_the_residue_kernel_once(monkeypatch, l):
    # A failed cross-check reports the residue moments it already holds
    # rather than running the residue kernel a second time.
    original, kernel = _perturb_expansion(l)
    _replace_everywhere(monkeypatch, original, kernel)
    counts = []

    def counted(roots, count):
        counts.append(count)
        return residue_moments(roots, count)

    _replace_everywhere(monkeypatch, residue_moments, counted)
    for argv in (ARGV, ["identities", "--roots", "1,2/3,-5/7", "--max-k", "9"]):
        counts.clear()
        assert _run(argv)[0] == 3
        assert counts == [10]


_ROUTE_ROOTS = pytest.mark.parametrize(
    "roots",
    [
        (1, F(2, 3), F(-5, 7)),
        tuple(F(n, p) for n, p in zip(
            (2**30 - 1, -(2**29), 987654321, -123456789, 3), PRIMES_30_BITS
        )),
    ],
    ids=["small", "30-bit"],
)


@_ROUTE_ROOTS
def test_the_residue_route_reads_only_the_residues(monkeypatch, roots):
    # The partial-fraction route, moment and partial_fractions take D off the
    # pole denominators: with the scaling step and the expansion kernel both
    # refusing, each returns what it returned before.
    cfg = RootConfig(roots)

    def refuse(*args):
        raise AssertionError("the residue route reached the expansion side")

    def residue_side():
        return (
            integrate_via_partial_fractions(cfg, 9),
            [moment(cfg, k) for k in range(10)],
            partial_fractions(Poly((1,)), cfg),
        )

    want = residue_side()
    for original in (scale_to_integers, integer_expansion):
        _replace_everywhere(monkeypatch, original, refuse)
    assert residue_side() == want


@_ROUTE_ROOTS
def test_the_expansion_route_reads_only_the_expansion(monkeypatch, roots):
    # The mirror guard: the expansion route, its kernel and complete_homogeneous
    # take D off the scaling step alone, so with the pole differences, the
    # residue scaling and the residue kernel all refusing, each returns what
    # it returned before.
    cfg = RootConfig(roots)

    def refuse(*args):
        raise AssertionError("the expansion route reached the residue side")

    def expansion_side():
        return (
            integrate_via_expansion(cfg, 9),
            integer_expansion(cfg.roots, 10),
            [complete_homogeneous(cfg.roots, l) for l in range(6)],
        )

    want = expansion_side()
    for original in (_pole_differences, residue_scale, residue_moments):
        _replace_everywhere(monkeypatch, original, refuse)
    assert expansion_side() == want


def test_limit_runs_the_scaling_step_once(monkeypatch):
    # Only the expansion-route base row scales the roots and reduces its
    # coefficients; each of the four default scales runs the residue kernel
    # alone and checks t^l times the base on integers.
    calls = []

    def counted(original):
        def run(*args):
            calls.append(original.__name__)
            return original(*args)

        return run

    for original in (scale_to_integers, reduced_coefficients):
        _replace_everywhere(monkeypatch, original, counted(original))
    assert _run(["limit", "--roots", "1,2/3,-5/7"])[::2] == (0, "")
    assert sorted(calls) == ["reduced_coefficients", "scale_to_integers"]


def test_limit_sizes_every_scale_before_the_first_row(monkeypatch):
    # The third scale fails the residue size rule: limit refuses it before
    # the residue kernel runs on the first two.
    calls = []

    def counted(roots, count):
        calls.append(count)
        return residue_moments(roots, count)

    _replace_everywhere(monkeypatch, residue_moments, counted)
    code, out, err = _run(["limit", "--roots=1", f"--scales=1,1/2,1/{2**10300}",
                           "--samples=1", "--terms=80"])
    assert (code, out) == (1, "")
    assert err == ("error: 81 moments at q = 1 could hold 67601724 bits, "
                   f"above MAX_EXPANSION_BITS = {MAX_EXPANSION_BITS}\n")
    assert calls == []


def test_limit_refuses_an_overflowing_radius_before_any_residue_kernel(monkeypatch):
    # radius**q overflows at the walk's first point, z = radius: limit refuses
    # with the walk's own message before the residue kernel runs on any scale
    def refuse(*args):
        raise AssertionError("ran the residue kernel")

    _replace_everywhere(monkeypatch, residue_moments, refuse)
    code, out, err = _run(["limit", "--roots=1,2/3,-5/7", "--radius=1e150"])
    assert (code, out) == (1, "")
    assert err == "error: radius**q must not overflow a double (q = 3)\n"


def test_limit_counts_its_residue_kernel_steps_before_any_kernel(monkeypatch):
    # scales x (q+1) x (N+1) answers to MAX_HORNER_STEPS once the radius is
    # checked, before any scale is sized and before either kernel runs: 2000
    # scales of the roots 1..50 at N = 51 are refused, and a radius below a
    # scaled root keeps its own message
    def refuse(*args):
        raise AssertionError("sized a scale or ran a kernel")

    for original in (residue_moments, residue_scale, integer_expansion):
        _replace_everywhere(monkeypatch, original, refuse)
    argv = ["limit", "--roots=" + ",".join(map(str, range(1, 51))), "--terms=51",
            "--samples=1", "--scales=" + ",".join(f"1/{k}" for k in range(1, 2001))]
    assert _run([*argv, "--radius=1e4"]) == (
        1, "", "error: 2000 scales x 51 poles x 52 moments = 5304000 residue kernel "
        "steps, above MAX_HORNER_STEPS = 1048576\n")
    assert _run([*argv, "--radius=50"]) == (
        1, "", "error: radius must exceed every scaled root magnitude (need > 50.0)\n")


def test_limit_runs_at_its_residue_kernel_step_bound(monkeypatch):
    # 2 scales x 3 poles x 6 moments = 36 steps run at a bound of 36, not at 35
    argv = ["limit", "--roots=1,2", "--terms=5", "--samples=1", "--scales=1,1/2"]
    monkeypatch.setattr(poleint.asymptotics, "MAX_HORNER_STEPS", 36)
    assert _run(argv)[::2] == (0, "")
    monkeypatch.setattr(poleint.asymptotics, "MAX_HORNER_STEPS", 35)
    assert _run(argv) == (1, "", "error: 2 scales x 3 poles x 6 moments = 36 residue "
                          "kernel steps, above MAX_HORNER_STEPS = 35\n")


def test_pfd_sizes_its_poles_before_any_pole_difference(monkeypatch):
    # partial_fractions runs the residue route's size rule for q + 1 moments,
    # after the parse and the degree check: the roots 1..1700 are refused, as
    # integrate --terms 1701 refuses them, and 1..1600 are admitted
    def refuse(*args):
        raise AssertionError("took a pole difference")

    monkeypatch.setattr(poleint.integrate, "_pole_differences", refuse)
    roots = "--roots=" + ",".join(map(str, range(1, 1701)))
    assert _run(["pfd", roots, "--num=z^"])[::2] == (
        2, "parse error at offset 2: exponent must be a nonnegative integer literal\n")
    # integrate --terms q+1 sizes the q + 2 moments m_0..m_(q+1)
    for argv, count, bits in ((["pfd", roots], 1701, 69400812),
                              (["integrate", roots, "--terms=1701"], 1702, 69441648)):
        assert _run(argv) == (1, "", f"error: {count} moments at q = 1700 could hold "
                              f"{bits} bits, above MAX_EXPANSION_BITS = {MAX_EXPANSION_BITS}\n")
    residue_scale(RootConfig(range(1, 1601)).roots, 1601)  # 61478412 bits
    monkeypatch.setattr(poleint.symmetric, "MAX_EXPANSION_BITS", 0)  # refuse any size
    assert _run(["pfd", "--roots=1,2", "--num=z^3"])[::2] == (
        1, "error: numerator degree must be below denominator degree\n")


def test_pfd_checks_its_terms_without_the_numerator_evaluation(monkeypatch):
    # decomposes evaluates P on its own, not through partial_fractions' Horner:
    # terms with one coefficient moved by 1 fail its check
    def moved(numerator, cfg):
        (pole, c), *rest = partial_fractions(numerator, cfg)
        return (pole, c + 1), *rest

    _replace_everywhere(monkeypatch, partial_fractions, moved)
    code, out, err = _run(["pfd", "--roots", "1,2/3,-5/7", "--num", "z^2+1"])
    assert (code, err) == (3, "")
    assert '"reconstruction_ok": false' in out


def test_no_golden_argv_builds_a_series(monkeypatch):
    # Every route returns a plain tuple of coefficients: replayed in process,
    # with every output still its golden bytes, no argv constructs an InvZSeries.
    built = []
    init = InvZSeries.__init__

    def counted(self, truncation, coefficients):
        built.append(truncation)
        init(self, truncation, coefficients)

    monkeypatch.setattr(InvZSeries, "__init__", counted)
    cases = json.loads(GOLDEN.read_text())["cases"]
    assert [case["argv"] for case in cases if outcome(case["argv"]) != case] == []
    assert built == []


def test_the_residue_route_sizes_its_moments_before_any_pole_difference(monkeypatch):
    # residue_moments reads its own D and c = D a, pole 0 included, against the
    # expansion kernel's rule: moment and the partial-fraction route refuse
    # with its message before taking a single pole difference.
    def refuse(*args):
        raise AssertionError("took a pole difference")

    monkeypatch.setattr(poleint.integrate, "_pole_differences", refuse)
    cfg = RootConfig((F(1, 2**10300),))  # D = 2^10300
    for call in (lambda: residue_moments(cfg.roots, 81), lambda: moment(cfg, 80),
                 lambda: integrate_via_partial_fractions(cfg, 80)):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == (
            "81 moments at q = 1 could hold 67601724 bits, "
            f"above MAX_EXPANSION_BITS = {MAX_EXPANSION_BITS}")
    # D = 2^10000 predicts 65633124 bits, under the bound: accepted
    check_moment_size(1, 81, 2**10000, [0, 1])


@pytest.mark.parametrize("roots", [
    (1, F(2, 3), F(-5, 7)),
    tuple(F(n, p) for n, p in zip((2**30 - 1, -(2**29), 3), PRIMES_30_BITS)),
], ids=["small", "30-bit"])
def test_both_routes_size_the_same_moments(monkeypatch, roots):
    # On the same roots the residue rule predicts what the expansion rule
    # does, so integrate and identities, which expand first, refuse nothing
    # new: at the prediction both kernels run, one bit under both refuse.
    roots, count = RootConfig(roots).roots, 12
    d, c = scale_to_integers(roots)
    bits = (len(c) ** 2 + count**2) * (max(map(abs, c)).bit_length() + d.bit_length())
    monkeypatch.setattr(poleint.symmetric, "MAX_EXPANSION_BITS", bits)
    integer_expansion(roots, count)
    residue_moments(roots, count)
    monkeypatch.setattr(poleint.symmetric, "MAX_EXPANSION_BITS", bits - 1)
    for kernel in (integer_expansion, residue_moments):
        with pytest.raises(ValueError) as refused:
            kernel(roots, count)
        assert str(refused.value) == (f"{count} moments at q = {len(c)} could hold "
                                      f"{bits} bits, above MAX_EXPANSION_BITS = {bits - 1}")


def _break_pole_term(monkeypatch, n):
    """Put pole 1's term of m_n off by one inside the residue kernel: at n = 0
    its quotient, so m_0 = 1; past it its remainder, rem_1 -> (rem_1 + 1) mod
    Delta_1, so the fractional parts no longer sum to an integer."""
    original, calls = _residue_moment, []

    def broken(parts, deltas, zero=False):
        if len(calls) == n:
            (u, r), x = parts[1], deltas[1]
            parts = [parts[0], (u + 1, r) if n == 0 else (u, (r + 1) % x), *parts[2:]]
        calls.append(n)
        return original(parts, deltas, zero)

    monkeypatch.setattr(poleint.integrate, "_residue_moment", broken)


@pytest.mark.parametrize("k", [0, 2, 3, 5])
def test_moment_checks_its_residue_sum(monkeypatch, k):
    # One term of m_k off by one: moment raises, as both routes do, rather
    # than return a wrong Fraction.
    _break_pole_term(monkeypatch, k)
    with pytest.raises(ExactCheckError, match="must vanish at n = 0 and be integers"):
        moment(RootConfig((1, F(2, 3), F(-5, 7))), k)


def test_a_broken_scaling_step_raises(monkeypatch):
    # With D = 1, the roots 2/3 and -5/7 do not scale to integers.
    monkeypatch.setattr(poleint.symmetric, "math", SimpleNamespace(lcm=lambda *d: 1))
    with pytest.raises(ArithmeticError, match="D \\* a_j must be an integer"):
        scale_to_integers([1, F(2, 3), F(-5, 7)])
    # the determinant's rows take the same step: it once returned 1, not 31/21
    with pytest.raises(ExactCheckError, match="D \\* a_j must be an integer"):
        determinant([[1, F(2, 3)], [F(-5, 7), 1]])
    code, out, err = _run(ARGV)
    assert code == 3 and out == ""
    assert err == "error: D * a_j must be an integer; exact arithmetic is broken\n"


def test_a_wrong_shared_factor_exits_3(monkeypatch):
    # At c = (21, 14, -15), G = 21; 2G does not divide e_2(c) = -231, so the
    # expansion kernel refuses before either route prints anything.
    original = poleint.symmetric._shared_factor
    monkeypatch.setattr(poleint.symmetric, "_shared_factor", lambda c: 2 * original(c))
    for argv in (ARGV, ["identities", "--roots", "1,2/3,-5/7", "--max-k", "9"]):
        code, out, err = _run(argv)
        assert code == 3 and out == ""
        assert err == "error: G^(i-1) must divide e_i(c); exact arithmetic is broken\n"


@pytest.mark.parametrize("i", [0, 2])
def test_a_wrong_pole_difference_exits_3(monkeypatch, i):
    # Delta_i off by one: the residues no longer sum to zero, so the residue
    # kernel's self-check refuses before integrate or identities prints, and
    # pfd's reconstruction reads the wrong residues and fails.
    def broken(roots):
        poles, p, deltas = _pole_differences(roots)
        deltas[i] += 1
        return poles, p, deltas

    monkeypatch.setattr(poleint.integrate, "_pole_differences", broken)
    for argv in (ARGV, ["identities", "--roots", "1,2/3,-5/7", "--max-k", "9"]):
        code, out, err = _run(argv)
        assert code == 3 and out == ""
        assert err == (
            "error: residue moments must vanish at n = 0 and be integers; "
            "exact arithmetic is broken\n"
        )
    code, out, err = _run(["pfd", "--roots", "1,2/3,-5/7", "--num", "1"])
    assert code == 3 and err == ""
    assert "false" in out


@pytest.mark.parametrize("n", [0, 5])
def test_a_failed_residue_self_check_exits_3(monkeypatch, n):
    # A quotient off by one breaks the residue sum m_0 = 0; a remainder off by
    # one at n = 5 leaves fractional parts that do not sum to an integer.
    _break_pole_term(monkeypatch, n)
    code, out, err = _run(ARGV)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert "residue moments must vanish at n = 0 and be integers" in err


def test_a_failed_scaling_law_check_in_limit_exits_3(monkeypatch):
    # Every scaled row gets the t = 1 residue moments, so b_(q+1) does not
    # scale by t.
    original = poleint.asymptotics.residue_moments
    monkeypatch.setattr(
        poleint.asymptotics,
        "residue_moments",
        lambda roots, n: original(RootConfig((1, 2)).roots, n),
    )
    code, out, err = _run(["limit", "--roots=1,2", "--scales=1,1/2", "--terms=6"])
    assert code == 3 and out == ""
    assert err == "error: t^l scaling law failed at l = 1\n"


@pytest.mark.parametrize("l", [0, 4])
@pytest.mark.parametrize(
    "perturb", [_perturb_expansion, _perturb_residues], ids=["expansion", "residues"]
)
def test_a_perturbed_kernel_fails_the_limit_checks(monkeypatch, perturb, l):
    # limit's base row comes off the expansion route and its scaled rows off
    # the residue route.  At 1/2 both scales give the same integer roots
    # c = D * a, so if one route built every row, only a perturbed leading
    # coefficient (the expansion kernel at l = 0) would fail.  At 2/3,
    # D_t * t != D and t^l has an odd denominator.  A residue kernel off at
    # l = 0 fails the row's own -1/q check, before the scaling law.
    original, kernel = perturb(l)
    _replace_everywhere(monkeypatch, original, kernel)
    message = (
        "leading coefficient drifted from -1/q"
        if perturb is _perturb_residues and l == 0
        else f"t^l scaling law failed at l = {l}"
    )
    for scales in ("1,1/2", "1,2/3"):
        code, out, err = _run(["limit", "--roots", "1,2/3,-5/7", "--scales", scales])
        assert (code, out, err) == (3, "", f"error: {message}\n")
