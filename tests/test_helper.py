"""The residue helper: `integrate` above HELPER_BITS runs the residue kernel in
one forked process per interpreter, and every request still prints what the
in-process path prints, or fails as it fails."""

import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import poleint.integrate
from poleint import helper
from poleint.integrate import residue_moments
from poleint.symmetric import ExactCheckError

from conftest import HELPER_CAN_RUN
from test_kernels import _break_pole_term, _run

pytestmark = pytest.mark.skipif(not HELPER_CAN_RUN, reason="needs os.fork and two CPUs")

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}


@pytest.fixture
def tall(monkeypatch):
    """integrate-tall's first q = 12 and q = 16 argvs (seed 1): both above the
    gate, and each with its document off the in-process path."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import WORKLOADS

    requests = WORKLOADS["integrate-tall"].requests(1)
    argvs = [next(requests).argv for _ in range(3)][1:]
    with monkeypatch.context() as patch:
        patch.setattr(poleint.integrate, "HELPER_BITS", float("inf"))
        want = [_run(argv) for argv in argvs]
    assert helper._helper is None and [code for code, _, _ in want] == [0, 0]
    return list(zip(argvs, want))


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_a_request_above_the_gate_leaves_one_helper_that_stop_reaps(tall):
    (argv, want), (other, other_want) = tall
    assert _run(argv) == want
    pid = helper._helper[0]
    assert _run(other) == other_want and helper._helper[0] == pid  # reused
    helper.stop()
    assert helper._helper is None and not _alive(pid)


def test_a_request_below_the_gate_runs_in_process():
    assert _run(["integrate", "--roots", "1,2/3,-5/7", "--terms", "9"])[0] == 0
    assert helper._helper is None


def test_a_refused_expansion_leaves_no_stale_reply(monkeypatch, tall):
    # The helper answers the refused request too; the next one must read its
    # own reply, not that one, or its routes would disagree.
    (argv, want), (other, other_want) = tall

    def refuse(values, count):
        raise ExactCheckError("refused")

    with monkeypatch.context() as patch:
        patch.setattr(poleint.integrate, "integer_expansion", refuse)
        assert _run(other) == (3, "", "error: refused\n")
    assert _run(argv) == want


def test_a_killed_helper_is_replaced_by_the_in_process_kernel(tall):
    (argv, want), _ = tall
    assert _run(argv) == want
    pid = helper._helper[0]
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
    assert _run(argv) == want
    assert not _alive(pid)
    assert _run(argv) == want and helper._helper[0] != pid  # a fresh helper


def test_a_helper_that_dies_in_a_request_is_replaced_by_the_in_process_kernel(
        monkeypatch, tall):
    (argv, want), _ = tall
    caller = os.getpid()

    def dying(roots, count):
        if os.getpid() != caller:
            os._exit(1)
        return residue_moments(roots, count)

    monkeypatch.setattr(poleint.integrate, "residue_moments", dying)
    assert _run(argv) == want
    assert helper._helper is None


def test_a_helper_that_dies_in_its_reply_is_replaced_by_the_in_process_kernel(
        monkeypatch, tall):
    # The helper writes half its reply and dies at its next read: the caller
    # reads a truncated pickle, not a clean EOF.
    (argv, want), _ = tall
    caller, truncated = os.getpid(), []

    def dumps(obj):
        data = pickle.dumps(obj)
        if os.getpid() == caller:
            return data
        truncated.append(len(data))
        return data[:len(data) // 2]

    def load(file):
        if truncated:  # set in the helper alone
            os._exit(1)
        return pickle.load(file)

    monkeypatch.setattr(helper, "pickle", SimpleNamespace(
        dumps=dumps, load=load, UnpicklingError=pickle.UnpicklingError))
    assert _run(argv) == want
    assert helper._helper is None and truncated == []


def test_a_failed_residue_self_check_in_the_helper_exits_3(monkeypatch, tall):
    # patched before the fork, m_0 = 1: the helper's kernel raises, and the
    # caller raises its error again, with nothing printed
    (argv, _), _ = tall
    _break_pole_term(monkeypatch, 0)
    assert _run(argv) == (3, "", "error: residue moments must vanish at n = 0 and "
                          "be integers; exact arithmetic is broken\n")
    assert helper._helper is not None


# The child records the pids it forks and, once its helper should be gone,
# writes "reaped" to fd 2 for each that is: directly, and only in the caller,
# so the helper's own os._exit flushes nothing.
_REAP_CHILD = (
    "import atexit, os, sys\n"
    "from poleint import cli\n"
    "fork, exit, pids = os.fork, os._exit, []\n"
    "def recorded_fork():\n"
    "    pids.append(fork())\n"
    "    return pids[-1]\n"
    "def check():\n"
    "    for pid in filter(None, pids):\n"
    "        try:\n"
    "            os.kill(pid, 0)\n"
    "        except ProcessLookupError:\n"
    "            os.write(2, b'reaped\\n')\n"
    "os.fork = recorded_fork\n"
)


@pytest.mark.parametrize("ending", [
    # entry reaps the helper before os._exit, which runs no atexit handler
    "os._exit = lambda code: (check(), exit(code))\ncli.entry()\n",
    # the helper's own atexit handler, registered later, runs before check
    "atexit.register(check)\nsys.exit(cli.main(sys.argv[1:]))\n",
], ids=["entry", "atexit"])
def test_the_helper_is_reaped_before_the_process_ends(tall, ending):
    (argv, (code, out, err)), _ = tall
    proc = subprocess.run([sys.executable, "-c", _REAP_CHILD + ending, *argv],
                          capture_output=True, text=True, env=ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err + "reaped\n")


# With os.fork counted and refused, one shape cycle of cli-cold exits as its
# oracle expects and never forks (no request there reaches the gate).  An
# above-gate request then runs in process: where the fork fails, and without
# trying one where there is one CPU, another thread is alive, or no os.fork.
_FALLBACK_CHILD = (
    "import contextlib, io, os, sys, threading\n"
    "from poleint import cli\n"
    "from workloads import WORKLOADS\n"
    "def run(argv):\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "        code = cli.main(list(argv))\n"
    "    return code, out.getvalue(), err.getvalue()\n"
    "forks = []\n"
    "def refuse():\n"
    "    forks.append(len(os.listdir('/proc/self/fd')))\n"
    "    raise BlockingIOError('fork refused')\n"
    "os.fork = refuse\n"
    "requests = WORKLOADS['cli-cold'].requests(1)\n"
    "for _ in range(WORKLOADS['cli-cold'].cycle):\n"
    "    request = next(requests)\n"
    "    request.verify(*run(request.argv))\n"
    "argv = sys.argv[1:]\n"
    "runs = [len(forks), run(argv), len(forks)]\n"
    "affinity, os.sched_getaffinity = os.sched_getaffinity, lambda pid: {0}\n"
    "runs.append(run(argv))\n"
    "os.sched_getaffinity = affinity\n"
    "done = threading.Event()\n"
    "thread = threading.Thread(target=done.wait, daemon=True)\n"
    "thread.start()\n"
    "runs.append(run(argv))\n"
    "done.set()\n"
    "thread.join(60)\n"
    "del os.fork\n"
    "runs.append(run(argv))\n"
    "runs.append(len(forks))\n"
    "runs.append(forks[0] - len(os.listdir('/proc/self/fd')))  # the pipes closed\n"
    "print(repr(runs))\n"
)


def test_the_residue_kernel_runs_in_process_where_no_helper_can(tall):
    (argv, want), _ = tall
    proc = subprocess.run([sys.executable, "-c", _FALLBACK_CHILD, *argv],
                          capture_output=True, text=True, env=ENV, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == repr([0, want, 1, want, want, want, 1, 4]) + "\n"
