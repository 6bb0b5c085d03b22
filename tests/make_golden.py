"""Write tests/golden.json, the byte-identity corpus of the command line.

    PYTHONPATH=src python3 tests/make_golden.py

RULE: a change that means to change an output regenerates golden.json with
this script and lists each changed argv in CHANGES.md.  A change that does
not mean to change an output leaves golden.json alone.

For each argv the file holds the exit code of `cli.main`, its stderr
verbatim, and the byte length and SHA-256 of its stdout.  The argvs are
drawn from a seeded generator over `conftest.PRIMES_30_BITS`:

* `integrate` at q = 8, 12 and 16, N = 3q, 30-bit roots;
* the five README examples;
* the error exits of each subcommand;
* `limit --scales 1,1/3 --terms 3q` and
  `limit --scales 2/3,5/7,1/1024 --max-l 3` at q = 1..8, and `limit` at
  its default scales;
* `--help` at the top level and for each subcommand;
* three more `pfd` successes: `--den`, a rational numerator, q = 4;
* digit literals past the int-to-str digit limit: a 5000-digit root for
  `integrate`, `pfd --den` and `vandermonde`, a 5000-digit `--num` constant
  and trailing token, and a literal above `MAX_POWER_BITS` bits;
* `pfd` at size, 30-bit roots and integer numerators of degree q - 1:
  `--roots` at q = 8 and 16, then `--den` at q = 8;
* `identities --den` at q = 5 and `limit --den --max-l 3` at q = 3, 30-bit
  roots;
* `vandermonde` at size: 8 seeded 30-bit points with `--degree=3`, and the
  points 1, 2, ..., 24;
* the paths no argv above reaches: each `--num` parse error, the three
  `--den` shape errors, a non-integer `--terms`, an unknown `--format`,
  `vandermonde` at `--degree 0`, at `--points 1,2 --degree 1000` (refused
  by the parser's power rule until the expansion kernel's own size rule
  replaced it) and on a repeated point (Bareiss swaps rows), the zero
  numerator, and `--terms=--` alone;
* appended after them: `vandermonde` on the points 1, 2, ..., 100, refused
  because its elimination could hold more than `MAX_ELIMINATION_BITS`, and
  `vandermonde --points 1,1,2 --degree 2`, where the shared columns 1, x
  have a singular leading block, so one row swap serves both borders;
* appended after those: `integrate` of one 30-bit root at `--terms 4000`,
  refused because its expansion could hold more than `MAX_EXPANSION_BITS`,
  and `vandermonde` on the points 1, 2, ..., 400, refused because its powers
  could hold more than `MAX_ELIMINATION_BITS`.

`tests/test_golden.py` runs every argv in process and compares.  The CLI
words its help and usage errors itself, so no output depends on the
interpreter's version or the terminal's width.  The sup errors that `limit`
prints are taken at points from the platform's `math.cos` and `math.sin`,
so another libm may move their last digits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
RULE = (
    "A change that means to change an output regenerates this file with "
    "tests/make_golden.py and lists each changed argv in CHANGES.md; a change "
    "that does not mean to leaves it alone."
)

if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from poleint.cli import main  # noqa: E402


def _roots(rng: random.Random, q: int) -> list[Fraction]:
    """q distinct +-n/p, n below 2^30 and p one of the 30-bit primes."""
    from conftest import PRIMES_30_BITS  # which imports hypothesis; replays skip it

    roots: dict[Fraction, None] = {}
    while len(roots) < q:
        root = Fraction(rng.randrange(-(2**30), 2**30), rng.choice(PRIMES_30_BITS))
        if root:
            roots[root] = None
    return list(roots)


def _csv(values) -> str:
    return ",".join(map(str, values))


def _num(rng: random.Random, degree: int) -> str:
    """A polynomial of the given degree with integer coefficients in [-9, 9]."""
    coeffs = [rng.randint(-9, 9) for _ in range(degree)]
    coeffs.append(rng.choice((-1, 1)) * rng.randint(1, 9))
    terms = [f"{c}*z^{k}" for k, c in enumerate(coeffs) if c]
    return "+".join(reversed(terms)).replace("+-", "-")


def _den(roots) -> str:
    """The factored form z*(z-r1)*(z+r2)*... accepted by --den."""
    return "*".join(["z"] + [f"(z{'-' if r > 0 else '+'}{abs(r)})" for r in roots])


README_EXAMPLES = [
    ["integrate", "--roots", "1,2", "--terms", "6", "--format", "json"],
    ["pfd", "--roots", "1,2", "--num", "z"],
    ["identities", "--roots", "1,2", "--max-k", "6"],
    ["vandermonde", "--points", "0,1,2", "--degree", "2"],
    ["limit", "--roots", "1,2", "--scales", "1,1/2,1/4", "--radius", "10",
     "--samples", "64", "--terms", "24", "--max-l", "3"],
]

HUGE = "1" + "0" * 400  # beyond the double range
ERROR_EXITS = [
    [],
    ["frobnicate"],
    ["integrate", "--roots", "1,2"],
    ["integrate", "--roots", "1", "--den", "z*(z-1)", "--terms", "4"],
    ["integrate", "--roots", "1,2,x", "--terms", "4"],
    ["integrate", "--roots", "1, 2/0", "--terms", "4"],
    ["integrate", "--roots", "1,2,3", "--terms", "3"],
    ["integrate", "--roots", "1,1", "--terms", "6"],
    ["integrate", "--roots", "0,1", "--terms", "4"],
    ["integrate", "--den=--", "--terms", "3"],
    ["integrate", "--den", "z*(z-1)*(z-1)", "--terms", "4"],
    ["pfd", "--roots=--"],
    ["pfd", "--roots", "1,2", "--num", "z^3"],
    ["pfd", "--roots", "1,2", "--num", "z+"],
    ["pfd", "--roots", "١,2"],
    ["identities", "--roots", "1,2,3", "--max-k", "2"],
    ["identities", "--roots", "1,2,1"],
    ["identities", "--roots=1", "--max-k=--"],
    ["vandermonde"],
    ["vandermonde", "--points", "1,2,3/0"],
    ["vandermonde", "--points=--"],
    ["limit", "--roots", "1,2,3", "--terms", "3"],
    ["limit", "--roots", "1,2", "--scales", "1", "--radius", "1"],
    ["limit", "--roots", "1,2", "--radius", "nan"],
    ["limit", "--roots", "1,2", "--radius", "1e200", "--samples", "4", "--terms", "6"],
    ["limit", "--roots", "1,2", "--scales", "1,0"],
    ["limit", "--roots", "1,2", "--samples", "0"],
    ["limit", "--roots", "1,2", "--max-l", "-1"],
    ["limit", "--roots", f"1/{HUGE},-1/{HUGE}", "--scales", "1", "--radius", "1e-200"],
    ["limit", "--roots", "1", "--scales", "1,1/0"],
    ["limit", "--roots=1", "--scales=--"],
]

# Paths no argv above reaches, appended after every seeded draw so that the
# entries before them keep their place.
LATE_CASES = [
    *(["pfd", "--roots", "1", "--num", num] for num in (
        "y", "z$", "z^1001", "z^600*z^600", "9^99999", "9^50000*9^50000",
        "(" * 101 + "z" + ")" * 101, "(z", "z^z", "z*)", "1/0")),
    *(["pfd", "--den", den] for den in ("z*(z^2-2)", "z(z-1)", "(z-1)*(z-2)")),
    ["integrate", "--roots", "1,2", "--terms", "abc"],
    ["integrate", "--roots", "1,2", "--terms", "6", "--format", "xml"],
    ["vandermonde", "--points", "1,2,3", "--degree", "0"],
    ["vandermonde", "--points", "1,2", "--degree", "1000"],
    ["vandermonde", "--points", "1,1,2"],
    ["pfd", "--roots", "1,2", "--num", "0"],
    ["integrate", "--terms=--"],
    ["vandermonde", f"--points={_csv(range(1, 101))}"],
    ["vandermonde", "--points", "1,1,2", "--degree", "2"],
    ["integrate", "--roots", "1/1073741789", "--terms", "4000"],
    ["vandermonde", f"--points={_csv(range(1, 401))}"],
]

SUBCOMMANDS = ("integrate", "pfd", "identities", "vandermonde", "limit")
HELP_REQUESTS = [["--help"]] + [[command, "--help"] for command in SUBCOMMANDS]


def argvs() -> list[list[str]]:
    rng = random.Random(20261019)
    out = []
    for q in (8, 12, 16):
        for den in (False, True):
            roots = _roots(rng, q)
            flag = f"--den={_den(roots)}" if den else f"--roots={_csv(roots)}"
            out.append(["integrate", flag, "--terms", str(3 * q)])
    out += README_EXAMPLES
    out += ERROR_EXITS
    for q in range(1, 9):
        roots = _csv(_roots(rng, q))
        out.append(["limit", f"--roots={roots}", "--scales=1,1/3", f"--terms={3 * q}"])
        out.append(["limit", f"--roots={roots}", "--scales=2/3,5/7,1/1024",
                    "--max-l=3"])
        if q % 4 == 0:
            out.append(["limit", f"--roots={roots}"])
    out += HELP_REQUESTS
    out.append(["pfd", "--den", "z*(z-1)*(z+1/2)", "--num", "3/4*z^2+1"])
    out.append(["pfd", "--roots", "1/3,-2,5/7,4", "--num", "z^3-2/5*z+7"])
    out.append(["pfd", f"--den={_den(_roots(rng, 4))}", "--num=-7/3*z^4+z-1/2"])
    digits = rng.choice("123456789") + "".join(rng.choices("0123456789", k=4999))
    out.append(["integrate", f"--roots={digits},-1/{digits}", "--terms", "3"])
    out.append(["pfd", f"--den=z*(z-{digits})"])
    out.append(["vandermonde", f"--points={digits},1"])
    out.append(["pfd", "--roots", "1", "--num", digits])
    out.append(["pfd", "--roots", "1", "--num", f"z {digits}"])
    out.append(["pfd", "--roots", "1", "--num", "9" * 80000])
    for q, den in ((8, False), (16, False), (8, True)):
        roots = _roots(rng, q)
        flag = f"--den={_den(roots)}" if den else f"--roots={_csv(roots)}"
        out.append(["pfd", flag, f"--num={_num(rng, q - 1)}"])
    out.append(["identities", f"--den={_den(_roots(rng, 5))}"])
    out.append(["limit", f"--den={_den(_roots(rng, 3))}", "--max-l=3"])
    out.append(["vandermonde", f"--points={_csv(_roots(rng, 8))}", "--degree=3"])
    out.append(["vandermonde", f"--points={_csv(range(1, 25))}"])
    out += LATE_CASES
    return out


def outcome(argv: list[str]) -> dict:
    """Exit code, stderr and stdout's size and SHA-256 of `main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout = out.getvalue().encode()
    return {
        "argv": argv,
        "exit": code,
        "stderr": err.getvalue(),
        "stdout_bytes": len(stdout),
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
    }


if __name__ == "__main__":
    cases = [outcome(argv) for argv in argvs()]
    lines = ",\n".join(json.dumps(case) for case in cases)  # one argv a line
    GOLDEN.write_text(f'{{"rule": {json.dumps(RULE)},\n "cases": [\n{lines}\n]}}\n')
    print(f"wrote {len(cases)} cases to {GOLDEN}")
