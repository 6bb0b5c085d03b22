"""Byte identity of the command line against tests/golden.json.

RULE: a change that means to change an output regenerates golden.json with
`tests/make_golden.py` and lists each changed argv in CHANGES.md.  A change
that does not mean to change an output leaves golden.json alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import poleint
from make_golden import COLUMNS, GOLDEN, HERE, RULE, argvs, outcome


def test_every_golden_argv_reproduces_its_exit_stderr_and_stdout(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    golden = json.loads(GOLDEN.read_text())
    assert golden["rule"] == RULE
    assert [case["argv"] for case in golden["cases"]] == argvs()
    changed = [case["argv"] for case in golden["cases"]
               if outcome(case["argv"]) != case]
    assert changed == []


# The parser reads digits and the printer writes them free of the
# interpreter's int-to-str digit limit, so the corpus holds under the
# strictest limit it accepts, 640, as under the default.
_UNDER_LIMIT_CHILD = (
    "import json, sys\n"
    "from make_golden import GOLDEN, outcome\n"
    "cases = json.loads(GOLDEN.read_text())['cases']\n"
    "changed = [case['argv'][:2] for case in cases if outcome(case['argv']) != case]\n"
    "print(sys.get_int_max_str_digits(), changed)\n"
)


def test_every_golden_argv_reproduces_under_the_strictest_digit_limit():
    path = os.pathsep.join([str(HERE), str(Path(poleint.__file__).parents[1])])
    proc = subprocess.run(
        [sys.executable, "-c", _UNDER_LIMIT_CHILD],
        capture_output=True,
        text=True,
        env={**os.environ, "COLUMNS": COLUMNS, "PYTHONINTMAXSTRDIGITS": "640",
             "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "640 []\n"
