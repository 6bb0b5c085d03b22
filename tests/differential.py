"""Replay seeded argvs through `poleint.cli.main` in this tree and at another
revision, and print every argv whose outcome differs.

    python tests/differential.py REV [--count K] [--seed S]

REV is unpacked by `git archive REV` into a temporary directory.  Each tree
runs all K argvs in one child interpreter, in process, with its own `src`
first on the path, and reports each argv's exit code, stdout and stderr (or
the exception that escaped `main`).  The argvs cover all five subcommands:
well-formed requests on small rational roots, the domain, parse and usage
errors around them, and a few tall `limit` requests that pass the float
work bound with a hundred scales and thousands of terms.  The script prints
the outcome counts per subcommand, then every argv that differs, and exits 1
if any does.  It is not a test module, so pytest does not collect it; a
change that means to keep every output cites its run against the parent.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs in each tree: argvs in as JSON on stdin, outcomes out as JSON on stdout.
CHILD = """
import contextlib, io, json, sys
from poleint.cli import main
outcomes = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except BaseException as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    outcomes.append([code, out.getvalue(), err.getvalue()])
json.dump(outcomes, sys.stdout)
"""

SUBCOMMANDS = ("integrate", "pfd", "identities", "vandermonde", "limit")
GARBAGE = ["", "--", "x", "1/0", "1,,2", "z*z", "(z-1)", "1.5", "2^", "z*(z-1"]
RADII = ["1e4"] * 10 + ["1e3"] * 5 + ["10", "100", "144", "3", "2", "1", "0.5", "0", "-5",
                                      "inf", "nan", "1e150", "1e300", "1e-300", "5e-324"]


def _number(rng: random.Random, positive: bool = False) -> str:
    text = str(rng.randint(1, 12))
    if rng.random() < 0.5:
        text += f"/{rng.choice((2, 3, 5, 7, 9, 11))}"
    return text if positive or rng.random() < 0.6 else f"-{text}"


def _numbers(rng: random.Random, low: int, high: int, positive: bool = False) -> list[str]:
    values = [_number(rng, positive) for _ in range(rng.randint(low, high))]
    if rng.random() < 0.05:
        values.append(rng.choice(("0", values[0])))  # a zero or a repeat
    return values


def _roots(rng: random.Random) -> tuple[list[str], int]:
    """A --roots or --den word and the root count it names."""
    roots = _numbers(rng, 1, 5)
    if rng.random() < 0.03:
        return [f"--roots={rng.choice(GARBAGE)}"], len(roots)
    if rng.random() < 0.3:
        factors = ["z", *(f"(z-{r})".replace("--", "+") for r in roots)]
        rng.shuffle(factors)
        return [f"--den={'*'.join(factors)}"], len(roots)
    return [f"--roots={','.join(roots)}"], len(roots)


def _numerator(rng: random.Random, q: int) -> str:
    terms = [f"{_number(rng)}*z^{rng.randint(0, q + (rng.random() < 0.1))}"
             for _ in range(rng.randint(1, 3))]
    return "+".join(terms).replace("+-", "-")


def _tall_limit(rng: random.Random) -> list[str]:
    """A hundred-odd scales of one or two small roots at thousands of terms:
    inside the float work bound, above the bound on residue kernel steps."""
    scales = ",".join(f"1/{k}" for k in range(1, rng.randint(100, 150)))
    return ["limit", f"--roots={rng.choice(('1', '2', '1,-1'))}", "--samples=1",
            f"--terms={rng.randint(6000, 7000)}", f"--scales={scales}"]


def draw_argv(rng: random.Random) -> list[str]:
    command = rng.choice(SUBCOMMANDS)
    if command == "limit" and rng.random() < 0.02:
        return _tall_limit(rng)
    if command == "vandermonde":
        argv = [command, f"--points={','.join(_numbers(rng, 1, 6))}"]
        if rng.random() < 0.7:
            argv.append(f"--degree={rng.randint(-1, 6)}")
    else:
        roots, q = _roots(rng)
        argv = [command, *roots]
        if command == "integrate" and rng.random() < 0.97:  # else: --terms missing
            argv.append(f"--terms={rng.randint(q - 1, 3 * q + 6)}")
        elif command == "pfd" and rng.random() < 0.9:
            argv.append(f"--num={_numerator(rng, q)}")
        elif command == "identities" and rng.random() < 0.6:
            argv.append(f"--max-k={rng.randint(q - 1, 3 * q + 6)}")
        elif command == "limit":
            argv += [f"--scales={','.join(_numbers(rng, 1, 4, positive=True))}",
                     f"--radius={rng.choice(RADII)}",
                     f"--samples={rng.choice((1, 7, 16, 64, 64, 64, 0))}",
                     f"--terms={rng.randint(q - 1, 3 * q + 6)}"]
            if rng.random() < 0.3:
                argv.append(f"--max-l={rng.randint(-1, 4)}")
    if rng.random() < 0.02:
        argv.insert(rng.randint(1, len(argv)), rng.choice(GARBAGE + ["--bogus=1"]))
    return argv


def replay(tree: Path, argvs: list[list[str]]) -> list[list]:
    """Each argv's [exit code, stdout, stderr] in one child interpreter on tree/src."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, cwd=tree,
                          check=False)
    if proc.returncode:
        sys.exit(f"the child on {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _unpack(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def _short(text: str, limit: int = 160) -> str:
    return text if len(text) <= limit else text[:limit] + "..."


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare this tree with")
    parser.add_argument("--count", type=int, default=2000, help="argvs (default 2000)")
    parser.add_argument("--seed", type=int, default=1, help="seed (default 1)")
    args = parser.parse_args()
    rng = random.Random(args.seed)
    argvs = [draw_argv(rng) for _ in range(args.count)]
    with tempfile.TemporaryDirectory() as tmp:
        _unpack(args.rev, Path(tmp))
        theirs = replay(Path(tmp), argvs)
    ours = replay(ROOT, argvs)
    counts = Counter((argv[0], str(outcome[0])) for argv, outcome in zip(argvs, ours))
    print(f"{len(argvs)} argvs, seed {args.seed}, this tree against {args.rev}")
    for command in SUBCOMMANDS:
        codes = {code: n for (c, code), n in sorted(counts.items()) if c == command}
        print(f"  {command}: " + ", ".join(f"exit {code} x{n}" for code, n in codes.items()))
    differing = [(argv, a, b) for argv, a, b in zip(argvs, ours, theirs) if a != b]
    print(f"{len(differing)} differ")
    for argv, (code, out, err), (code_then, out_then, err_then) in differing:
        print(f"\n{_short(json.dumps(argv))}")
        print(f"  here: exit {code}, stdout {_short(repr(out))}, "
              f"stderr {_short(repr(err))}")
        print(f"  {args.rev}: exit {code_then}, stdout {_short(repr(out_then))}, "
              f"stderr {_short(repr(err_then))}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
