"""End-to-end verification checklist.

Each test below prints one PASS/FAIL line (visible with -s or on failure)
and enforces its stated tolerance; the exact checks use no tolerance at
all.  The randomized corpus is seeded, so every run exercises the same 200
root configurations.
"""

import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from poleint import (
    InvZSeries,
    Poly,
    PolyParseError,
    RootConfig,
    check_moment_identities,
    complete_homogeneous,
    determinant,
    generalized_vandermonde,
    integrate_via_expansion,
    integrate_via_partial_fractions,
    parse_poly,
    scaling_limit_table,
    vandermonde_matrix,
    vandermonde_product,
)
from poleint.cli import main as cli_main
from poleint.integrate import _pole_differences, residue_moments

from conftest import random_fraction, random_root_config
from oracles import (closed_form, complete_homogeneous_direct, derivative, log_potential,
                     valuation)

N_CORPUS = 32


def _corpus() -> list[RootConfig]:
    rng = random.Random(20260808)
    configs = []
    for i in range(200):
        configs.append(random_root_config(rng, q=1 + i % 8, bound=1000))
    return configs


CORPUS = _corpus()


@pytest.fixture(scope="module")
def corpus_results():
    return [
        (
            cfg,
            integrate_via_expansion(cfg, N_CORPUS),
            integrate_via_partial_fractions(cfg, N_CORPUS),
        )
        for cfg in CORPUS
    ]


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}{' (' + detail + ')' if detail else ''}")


def test_criterion_1_moment_identity_suite():
    start = time.perf_counter()
    ok = True
    for cfg in CORPUS:
        rows = check_moment_identities(cfg, cfg.q + 10)
        ok &= all(lhs == rhs for _, lhs, rhs in rows)
        if cfg.q <= 5:
            for l in range(1, 11):
                direct = complete_homogeneous_direct(cfg.roots, l)
                _, lhs, rhs = rows[cfg.q + l]
                ok &= rhs == direct
                ok &= lhs == direct
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (moment identities, 200 configs, k <= q+10)",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )
    assert ok
    assert elapsed < 10.0


def test_criterion_2_reference_fixture():
    res = integrate_via_expansion(RootConfig((1, 2)), 6)
    expected = {1: F(0), 2: F(-1, 2), 3: F(-1), 4: F(-7, 4), 5: F(-3)}
    ok = all(res[n] == v for n, v in expected.items())
    _report("criterion 2 (roots {1,2}, N=6 coefficient fixture)", ok)
    assert ok


def test_criterion_3_cross_path_equality():
    start = time.perf_counter()
    ok = True
    for cfg in CORPUS:
        ref = integrate_via_expansion(cfg, N_CORPUS)
        chk = integrate_via_partial_fractions(cfg, N_CORPUS)
        ok &= ref == chk
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3 (both integration routes agree, N=32)",
        ok and elapsed < 30.0,
        f"{elapsed:.2f}s",
    )
    assert ok
    assert elapsed < 30.0


def test_criterion_4_defining_contract(corpus_results):
    ok = True
    for cfg, ref, chk in corpus_results:
        q_poly = Poly.from_roots([0, *cfg.roots])
        f = InvZSeries.from_rational(Poly((1,)), q_poly, N_CORPUS + 1)
        ok &= derivative(InvZSeries(N_CORPUS, ref)) == f
        ok &= derivative(InvZSeries(N_CORPUS, chk)) == f
    _report("criterion 4 (derivative of g reproduces 1/Q exactly)", ok)
    assert ok


def test_criterion_5_valuation_theorem(corpus_results):
    ok = True
    for cfg, ref, chk in corpus_results:
        ok &= valuation(ref) == cfg.q
        ok &= valuation(chk) == cfg.q
        ok &= ref[cfg.q] == F(-1, cfg.q)
    _report("criterion 5 (valuation q, leading coefficient -1/q)", ok)
    assert ok


def test_criterion_6_closed_form_coefficients(corpus_results):
    rng = random.Random(777)
    ok = True
    for cfg, ref, _ in corpus_results:
        expected = closed_form(cfg, N_CORPUS - cfg.q)
        for l, b in enumerate(expected):
            ok &= ref[cfg.q + l] == b
        # permutation invariance
        shuffled = list(cfg.roots)
        rng.shuffle(shuffled)
        permuted = integrate_via_expansion(RootConfig(tuple(shuffled)), cfg.q + 4)
        ok &= permuted == ref[: cfg.q + 5]
        # t^l scaling covariance
        t = random_fraction(rng, bound=9)
        scaled_cfg = RootConfig(tuple(t * r for r in cfg.roots))
        scaled = integrate_via_expansion(scaled_cfg, cfg.q + 4)
        t_power = F(1)
        for l in range(5):
            ok &= scaled[cfg.q + l] == t_power * ref[cfg.q + l]
            t_power *= t
    _report(
        "criterion 6 (closed form -h_l/(q+l), permutation and scaling laws)", ok
    )
    assert ok


def test_criterion_7_vandermonde_suite():
    start = time.perf_counter()
    rng = random.Random(555)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 6)
        points: set[F] = set()
        while len(points) < n:
            points.add(random_fraction(rng, bound=30))
        pts = sorted(points)
        v = vandermonde_product(pts)
        ok &= determinant(vandermonde_matrix(pts)) == v
        extra = random_fraction(rng, bound=30)
        prod = F(1)
        for x in pts:
            prod *= x - extra
        ok &= vandermonde_product(pts + [extra]) == (-1) ** n * prod * v
        l = rng.randint(1, 6)
        ok &= generalized_vandermonde(pts, l) == v * complete_homogeneous(pts, l)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 7 (Vandermonde determinant/recurrence/factorization x100)",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )
    assert ok
    assert elapsed < 10.0


def test_criterion_8a_scaling_limit():
    rows = scaling_limit_table(
        RootConfig((1, 2)),
        [F(1), F(1, 2), F(1, 4), F(1, 8)],
        radius=10.0,
        samples=64,
        truncation=24,
    )
    sups = [sup for _, _, sup in rows]
    ratios = [b / a for a, b in zip(sups, sups[1:])]
    ok = all(b < a for a, b in zip(sups, sups[1:]))
    # consecutive ratios touching the last two rows
    for ratio in ratios[-2:]:
        ok &= 0.3 <= ratio <= 0.7
    _report(
        "criterion 8a (sup errors strictly decreasing, final ratios in [0.3, 0.7])",
        ok,
        ", ".join(f"{sup:.3e}" for sup in sups),
    )
    assert ok


def _zero_sum_family(seed: int) -> list[tuple[str, RootConfig, float]]:
    # q = 2..8: q - 1 roots +-n/p with 30-bit n and p, and minus their sum.
    rng = random.Random(seed)
    bits30 = range(2**29, 2**30)
    family = []
    for q in range(2, 9):
        roots = [rng.choice((-1, 1)) * F(rng.choice(bits30), rng.choice(bits30))
                 for _ in range(q - 1)]
        cfg = RootConfig((*roots, -sum(roots)))
        family.append((f"seeded q={q}", cfg, 10 * float(max(map(abs, cfg.roots)))))
    return family


def test_criterion_8c_zero_sum_roots_decay_quadratically():
    # The tail is sum_l t^l b_{q+l}(a) z^-(q+l) with b_{q+1} = -(sum a_j)/(q+1)
    # and b_{q+2} = -h_2(a)/(q+2), 2h_2 = (sum a_j)^2 + sum a_j^2 > 0.  When
    # the roots sum to zero the t^1 term vanishes exactly and the sup error
    # falls as t^2: halving t divides it by about 4, where 8a's roots divide
    # it by about 2.
    configs = [
        ("1,-1", RootConfig((1, -1)), 10.0),
        ("1,2,-3", RootConfig((1, 2, -3)), 10.0),
        *_zero_sum_family(27),
    ]
    ok = True
    details = []
    for label, cfg, radius in configs:
        rows = scaling_limit_table(
            cfg, [F(1), F(1, 2), F(1, 4), F(1, 8)], radius=radius, samples=64,
            truncation=cfg.q + 8,
        )
        ok &= all(b[1] == 0 and b[2] < 0 for _, b, _ in rows)
        sups = [sup for _, _, sup in rows]
        ratios = [b / a for a, b in zip(sups, sups[1:])][-2:]
        ok &= all(0.2 <= ratio <= 0.3 for ratio in ratios)
        details.append(f"{label}: " + "/".join(f"{ratio:.4f}" for ratio in ratios))
    _report(
        "criterion 8c (zero-sum roots: b_(q+1) = 0, b_(q+2) < 0, "
        "final ratios in [0.2, 0.3])",
        ok,
        ", ".join(details),
    )
    assert ok


def test_criterion_8b_dipole_far_field_tolerance():
    # Stated tolerance: the pair potential at a = 1/100 matches its far
    # field -1/z + b_2 z^-2 at z = 10 to 1e-6 relative.  With q = 1 the
    # potential is (1/a) log(1 - a/z) = -1/z - a/(2z^2) - a^2/(3z^3) - ...,
    # so its relative distance from bare -1/z is x/2 + x^2/3 + ... with
    # x = a/z: the first-order effect of the scaling law, ~5.0e-4 here (see
    # test_asymptotics for that rate and for the separation a <= 2e-5 * z at
    # which bare -1/z reaches 1e-6).  Once the first-order term b_2 = -a/2,
    # taken from the exact expansion, is included, the remainder is
    # x^2/3 ~= 3.3e-7; a wrong or missing b_2 leaves >= 5e-4.
    a = F(1, 100)
    b2 = integrate_via_expansion(RootConfig((a,)), 6)[2]
    assert b2 == -a / 2
    z = 10 + 0j
    phi = log_potential(RootConfig((a,)), z)
    bare = abs(phi - (-1 / z)) / abs(1 / z)
    rel = abs(phi - (-1 / z + float(b2) / z**2)) / abs(1 / z)
    ok = rel <= 1e-6
    _report(
        "criterion 8b (dipole a=1/100 within 1e-6 of -1/z + b_2/z^2 at z=10)",
        ok,
        f"bare -1/z deviation {bare:.3e} (first order), residual {rel:.3e}",
    )
    assert ok, f"relative deviation {rel:.3e} from -1/z + b_2/z^2 exceeds 1e-6"


EXPECTED_INTEGRATE_DOC = {
    "q": 2,
    "roots": ["1", "2"],
    "truncation": 6,
    "b0_convention": "zero",
    "coefficients": [
        {"n": 0, "value": "0"},
        {"n": 1, "value": "0"},
        {"n": 2, "value": "-1/2"},
        {"n": 3, "value": "-1"},
        {"n": 4, "value": "-7/4"},
        {"n": 5, "value": "-3"},
        {"n": 6, "value": "-31/6"},
    ],
    "valuation": 2,
    "paths_agree": True,
}

EXPECTED_IDENTITIES_TEXT = (
    "k=0 lhs=0 rhs=0 pass=true\n"
    "k=1 lhs=0 rhs=0 pass=true\n"
    "k=2 lhs=1 rhs=1 pass=true\n"
    "k=3 lhs=3 rhs=3 pass=true\n"
    "k=4 lhs=7 rhs=7 pass=true\n"
    "k=5 lhs=15 rhs=15 pass=true\n"
    "k=6 lhs=31 rhs=31 pass=true\n"
    "7/7 identities hold\n"
)

POSITIVE_PARSE_CORPUS = {
    "z*(z-1)*(z-2)": Poly((0, 2, -3, 1)),
    "z^3-3*z^2+2*z": Poly((0, 2, -3, 1)),
    "z*(z-1/2)": Poly((0, F(-1, 2), 1)),
    "(z+1/2)^2": Poly((F(1, 4), 1, 1)),
    "-1*z^2 + z": Poly((0, 1, -1)),
}

NEGATIVE_PARSE_CORPUS = {
    "(z+1": 4,
    "z+": 2,
    "z^1/2": 3,
    "z^-1": 2,
    "2z": 1,
    "z*": 2,
    "z**2": 2,
    "1/0": 2,
    "q": 0,
}


def test_criterion_9_cli_and_parser(capsys):
    ok = True

    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    expected_json = json.dumps(EXPECTED_INTEGRATE_DOC, indent=2) + "\n"
    for _ in range(2):  # byte stability across runs
        code, out, err = run(
            "integrate", "--roots", "1,2", "--terms", "6", "--format", "json"
        )
        ok &= code == 0 and out == expected_json and err == ""
    for _ in range(2):
        code, out, err = run("identities", "--roots", "1,2", "--max-k", "6")
        ok &= code == 0 and out == EXPECTED_IDENTITIES_TEXT
    code, out, err = run("integrate", "--roots", "1,1", "--terms", "6")
    ok &= code == 1 and "roots must be pairwise distinct" in err

    for text, poly in POSITIVE_PARSE_CORPUS.items():
        ok &= parse_poly(text) == poly
    for text, position in NEGATIVE_PARSE_CORPUS.items():
        try:
            parse_poly(text)
            ok = False
        except PolyParseError as exc:
            ok &= exc.position == position

    _report("criterion 9 (CLI byte stability, exit codes, parser corpus)", ok)
    assert ok


def test_criterion_10_vandermonde_expansion_is_the_residue_moment(capsys):
    # The paper's proof step on the q+1 poles x = (0, a_1, ..., a_q): expand
    # V_l(x) along its last column (x_i^(q+l)).  Each cofactor is
    # V(x) / Q'(x_i), the residue weight, so V_l(x) = V(x) * m_(q+l)(a).
    # The first 40 configurations cover q = 1..8 five times each; the first
    # 8 also tie the two subcommands: vandermonde's generalized lhs over its
    # determinant is the lhs of identities row k = q+l.
    def lhs_column(argv):  # the lhs= values of a checks table, tally dropped
        cli_main(argv)
        rows = capsys.readouterr().out.splitlines()[:-1]
        return [F(row.split()[1].removeprefix("lhs=")) for row in rows]

    start = time.perf_counter()
    ok = True
    for cfg in CORPUS[:40]:
        q, pts = cfg.q, [F(0), *cfg.roots]
        v = vandermonde_product(pts)
        rows = vandermonde_matrix(pts)
        poles, p, deltas = _pole_differences(cfg.roots)
        cofactors = []
        for i, ((_, e), delta) in enumerate(zip(poles, deltas)):
            minor = [row[:-1] for k, row in enumerate(rows) if k != i]
            cofactors.append((-1) ** (i + q) * determinant(minor))
            ok &= cofactors[i] == v * F(e ** (q - 1) * p, delta)
        d, moments = residue_moments(cfg.roots, q + 7)
        for l in range(1, 7):
            v_l = generalized_vandermonde(pts, l)
            ok &= v_l == v * F(moments[q + l], d**l)
            ok &= v_l == sum(x ** (q + l) * c for x, c in zip(pts, cofactors))

    for cfg in CORPUS[:8]:
        roots = ",".join(map(str, cfg.roots))
        moments = lhs_column(["identities", f"--roots={roots}", f"--max-k={cfg.q + 6}"])
        for l in range(1, 7):
            det, v_l = lhs_column(
                ["vandermonde", f"--points=0,{roots}", f"--degree={l}"]
            )
            ok &= v_l / det == moments[cfg.q + l]
    elapsed = time.perf_counter() - start
    _report(
        "criterion 10 (V_l(0, a) = V(0, a) * m_(q+l)(a), cofactors 1/Q'(p), "
        "l <= 6, 40 configs, 8 through the CLI)",
        ok and elapsed < 2.0,
        f"{elapsed:.2f}s",
    )
    assert ok
    assert elapsed < 2.0
