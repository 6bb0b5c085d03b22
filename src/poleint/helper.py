"""The residue kernel on a second core, in one helper process per interpreter:
forked by the first `submit`, reaped by `stop` at exit or in `cli.entry`.  The
caller runs the kernel where none can run (no fork, one CPU, another thread)."""

import atexit
import os
import pickle
import sys
from fractions import Fraction

from . import integrate

_helper = None  # (pid, request pipe, reply pipe)


def _serve(requests, replies) -> None:
    """Answer each request with residue_moments' (True, value) or (False, error)."""
    while True:
        roots, count = pickle.load(requests)  # numerators, denominators and count
        try:
            reply = True, integrate.residue_moments(tuple(map(Fraction, *roots)), count)
        except Exception as exc:
            reply = False, exc
        replies.write(pickle.dumps(reply))  # whole, or nothing if unpicklable


def submit(roots, count: int) -> bool:
    """Send residue_moments(roots, count) to the helper; False if none can run."""
    global _helper
    threading = sys.modules.get("threading")  # a live thread makes a fork unsafe
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if not hasattr(os, "fork") or cpus < 2 or threading and threading.active_count() > 1:
        return False
    if _helper is None:
        (request_r, request_w), (reply_r, reply_w) = os.pipe(), os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            for fd in (request_r, request_w, reply_r, reply_w):
                os.close(fd)
            return False
        if not pid:
            try:  # the helper ends only here, on EOF or any BaseException: no stdio flush
                os.close(request_w)
                os.close(reply_r)
                _serve(os.fdopen(request_r, "rb"), os.fdopen(reply_w, "wb", 0))
            finally:
                os._exit(0)
        os.close(request_r)  # each end open in one process: EOF and EPIPE reach the other
        os.close(reply_w)
        _helper = pid, os.fdopen(request_w, "wb", 0), os.fdopen(reply_r, "rb")
        atexit.register(stop)
    try:  # integers: a Fraction pickles through str, which the digit limit caps
        _helper[1].write(pickle.dumps((([a.numerator for a in roots],
                                        [a.denominator for a in roots]), count)))
    except BrokenPipeError:  # the helper died
        stop()
    return _helper is not None


def reply() -> tuple | None:
    """D and the moments asked for, or the helper's error raised; None if it died."""
    try:
        ok, value = pickle.load(_helper[2])
    except BaseException as exc:
        stop()  # dead, or a reply read in part: the pipe is of no further use
        if isinstance(exc, (EOFError, pickle.UnpicklingError)):  # died, mid-reply or not
            return None
        raise
    if not ok:
        raise value
    return value


def stop() -> None:
    """Close both pipes, so that the helper reads EOF or fails to write, and reap it."""
    global _helper
    if _helper:
        pid, *pipes = _helper
        _helper = None
        for pipe in pipes:
            pipe.close()
        os.waitpid(pid, 0)
