"""Byte identity of the command line against tests/golden.json.

RULE: a change that means to change an output regenerates golden.json with
`tests/make_golden.py` and lists each changed argv in CHANGES.md.  A change
that does not mean to change an output leaves golden.json alone.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import poleint
from make_golden import GOLDEN, HERE, RULE, argvs, outcome


def test_every_golden_argv_reproduces_its_exit_stderr_and_stdout():
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


def _child_env(**extra: str) -> dict:
    """The environment of a child that imports make_golden and poleint."""
    path = os.pathsep.join([str(HERE), str(Path(poleint.__file__).parents[1])])
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_every_golden_argv_reproduces_under_the_strictest_digit_limit():
    proc = subprocess.run(
        [sys.executable, "-c", _UNDER_LIMIT_CHILD],
        capture_output=True,
        text=True,
        env=_child_env(PYTHONINTMAXSTRDIGITS="640"),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "640 []\n"


# Another interpreter replays the corpus in a child that imports neither pytest
# nor hypothesis.  Exit code, stderr and stdout must match on every argv: the
# CLI words every message itself.
_REPLAY_CHILD = (
    "import json, sys\n"
    "from make_golden import GOLDEN, outcome\n"
    "assert not {'hypothesis', 'pytest'} & sys.modules.keys()\n"
    "cases = json.loads(GOLDEN.read_text())['cases']\n"
    "print(json.dumps([outcome(case['argv']) for case in cases]))\n"
)
_PROBE = ("import os, sys\n"
          "print(sys.implementation.name == 'cpython' and sys.version_info >= (3, 10),"
          " os.path.realpath(sys.executable))\n")


def _other_interpreters() -> list[str]:
    """Each CPython >= 3.10 that starts from PATH, other than this one."""
    seen = {os.path.realpath(sys.executable)}
    found = []
    for name in ["python3", *(f"python3.{minor}" for minor in range(10, 16))]:
        path = shutil.which(name)
        if path is None:
            continue
        proc = subprocess.run([path, "-c", _PROBE], capture_output=True, text=True)
        eligible, _, real = proc.stdout.strip().partition(" ")
        if proc.returncode == 0 and eligible == "True" and real not in seen:
            seen.add(real)
            found.append(path)
    return found




def test_every_other_interpreter_on_path_reproduces_the_corpus():
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 starts from PATH")
    cases = json.loads(GOLDEN.read_text())["cases"]
    for python in interpreters:
        proc = subprocess.run([python, "-c", _REPLAY_CHILD], capture_output=True,
                              text=True, env=_child_env())
        assert (python, proc.returncode, proc.stderr) == (python, 0, "")
        replayed = json.loads(proc.stdout)
        changed = [case["argv"][:3] for case, got in zip(cases, replayed)
                   if got != case]
        assert (python, len(replayed), changed) == (python, len(cases), [])
