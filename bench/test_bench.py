"""Tests of the benchmark itself: the oracle against the program, and the
printed metric names against BENCHMARK.json.

    python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from fractions import Fraction

import pytest

import run
from oracle import Mismatch, Refused, check_integrate
from reference import Timing
from workloads import WORKLOADS, Request

sys.path.insert(0, str(run.SRC))
from poleint import cli  # noqa: E402


def call(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def test_oracle_rejects_a_corrupted_coefficient():
    roots = (Fraction(1, 3), Fraction(-2), Fraction(5, 7))
    rc, out, _ = call(["integrate", "--roots=1/3,-2,5/7", "--terms", "8"])
    assert rc == 0
    check_integrate(roots, 8, out)
    doc = json.loads(out)
    value = doc["coefficients"][6]["value"]
    doc["coefficients"][6]["value"] = value[:-1] + str((int(value[-1]) + 1) % 10)
    with pytest.raises(Mismatch, match="b_6"):
        check_integrate(roots, 8, json.dumps(doc, indent=2))


def test_clean_error_exit_is_refused_and_anything_else_wrong():
    ok = Request("integrate", ("integrate",), 0)
    with pytest.raises(Refused):
        ok.verify(1, "", "error: Exceeds the limit (4300 digits)\n")
    with pytest.raises(Mismatch):
        ok.verify(1, "", "Traceback (most recent call last):\n")
    with pytest.raises(Mismatch):
        Request("integrate", ("integrate",), 0, expect_rc=2).verify(0, "", "")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_accepts_one_cycle_of_each_workload(name):
    workload = WORKLOADS[name]
    requests = workload.requests(7)
    if name == "integrate-tall":  # q=16 requests are slow; q=8 and 12 suffice here
        requests = itertools.islice(requests, 2)
    else:
        requests = itertools.islice(requests, workload.cycle)
    for req in requests:
        req.verify(*call(req.argv))


def test_same_seed_same_requests():
    for workload in WORKLOADS.values():
        first = [r.argv for r in itertools.islice(workload.requests(3), workload.cycle)]
        again = [r.argv for r in itertools.islice(workload.requests(3), workload.cycle)]
        other = [r.argv for r in itertools.islice(workload.requests(4), workload.cycle)]
        assert first == again
        assert [a[0] for a in first] == [a[0] for a in other]
        assert first != other


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_printed_metrics_match_benchmark_json(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_STARTS", 1)
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_scaled_timing_is_relative_to_the_reference():
    assert Timing(300, 400).scaled(Timing(5, 20), 10) == (600, 200)
