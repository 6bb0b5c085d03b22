"""Byte identity of the command line against tests/golden.json.

RULE: a change that means to change an output regenerates golden.json with
`tests/make_golden.py` and lists each changed argv in CHANGES.md.  A change
that does not mean to change an output leaves golden.json alone.
"""

import json

from make_golden import COLUMNS, GOLDEN, RULE, argvs, outcome


def test_every_golden_argv_reproduces_its_exit_stderr_and_stdout(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    golden = json.loads(GOLDEN.read_text())
    assert golden["rule"] == RULE
    assert [case["argv"] for case in golden["cases"]] == argvs()
    changed = [case["argv"] for case in golden["cases"]
               if outcome(case["argv"]) != case]
    assert changed == []
