"""Benchmark of the poleint CLI: seeded workloads, oracle-checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports poleint from the checkout's own `src/` and exits 2 without it.
Workloads (BENCHMARK.json says why each exists):

    integrate-tall  in-process `integrate` on q in {8,12,16}, N=3q, 30-bit roots
    cli-cold        one fresh `python -m poleint` per request, all subcommands

Every workload is a closed loop with one client.  The oracle checks each
output outside the timed interval, and cli-cold outputs must also equal,
byte for byte, those of in-process `cli.main`.  A request is verified when
its outcome is right.  It is refused when it should succeed but ends in a
clean error exit (no answer), and wrong for any other outcome: a wrong
answer or exit code, a traceback, or an uncaught exception.  Refused and
wrong requests count as failed; `correct` is false once one is wrong.
Warm-up requests are checked but not counted.  A run stops on a
shape-cycle boundary once `--seconds` have passed and at least MIN_OPS
requests were made.

ops_per_s is verified requests over the summed wall time of all timed
requests.  Latencies are the CPU time (user + system) of the process that
serves a request, refused ones included: this thread for in-process
requests, the child for cli-cold.  On an idle core that equals wall time;
on a shared machine it leaves out the time other tenants hold the core.
Every time in the end-to-end metrics, setup_s too, is scaled by a
reference run right before it (see reference.py), so that a slow spell of
the host does not show as a slow program; the unscaled figures are
printed as descriptors.  The per-layer cli.*.p50_ms are scaled the same
way; process.* and traced self times are not.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced blocks of one shape cycle each and reports the per-layer ones:
self time (wall) and calls per op of every entry point in tracer.ENTRIES,
the largest bit length some of them return, untraced p50 per subcommand,
the process start-up costs, and the tracing overhead.  Spans are written
to bench/out/.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from oracle import Mismatch, Refused
from reference import BARE_NS, REF_NS, Timing, time_reference
from tracer import BITS_ENTRIES, ENTRIES, Tracer, aggregate
from workloads import WORKLOADS, Request, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_OPS = 110  # so that at least 10 latency samples lie beyond p90
MAX_SECONDS = 150
SETUP_STARTS = 21  # cold interpreter starts behind setup_s and process.*
COMMANDS = ("integrate", "pfd", "identities", "vandermonde", "limit")


END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {f"cli.{c}.p50_ms": "ms" for c in COMMANDS}
for _entry in ENTRIES:
    PER_LAYER[f"{_entry}.self_ms"] = "ms"
    PER_LAYER[f"{_entry}.calls"] = "count"
    if _entry in BITS_ENTRIES:
        PER_LAYER[f"{_entry}.max_bits"] = "bits"
PER_LAYER.update({
    "process.interp_start_ms": "ms",
    "process.import_cli_ms": "ms",
    "process.spawn_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ms": "ms",
})


def child_env() -> dict[str, str]:
    """Environment for child interpreters: poleint from this checkout, and
    bytecode cached next to the sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def children_cpu_ns() -> int:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((usage.ru_utime + usage.ru_stime) * 1e9)


def spawn(argv: list[str], env: dict[str, str]) -> tuple[int, bytes, bytes, int, Timing]:
    """Run argv to completion: exit code, stdout, stderr, wall nanoseconds
    until the child was executing (fork and exec), and the child's timing."""
    cpu = children_cpu_ns()
    start = time.perf_counter_ns()
    with subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        started = time.perf_counter_ns()
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    wall = time.perf_counter_ns() - start
    return proc.returncode, out, err, started - start, Timing(wall, children_cpu_ns() - cpu)


def bare_start(env: dict[str, str]) -> tuple[int, Timing]:
    """Start `python -c pass`: the wall nanoseconds of fork and exec, and
    the timing of the whole start (the reference of process work)."""
    rc, _, err, fork, timing = spawn([sys.executable, "-c", "pass"], env)
    if rc != 0:
        raise RuntimeError(f"python -c pass exited {rc}: {err.decode(errors='replace')}")
    return fork, timing


def measure_setup(env: dict[str, str]) -> tuple[float, float, dict[str, float]]:
    """setup_s is the median CPU time of a fresh interpreter that imports
    `poleint.cli`, bytecode already cached, each scaled by a bare start right
    before it; the unscaled median is returned too.  process.* split a cold
    start, unscaled, into fork and exec (wall time of the spawn call), the
    bare interpreter (CPU) and the import itself (the CPU difference)."""
    load = [sys.executable, "-c", "import poleint.cli"]
    forks, bare_ns, load_ns, scaled_ns = [], [], [], []
    for i in range(SETUP_STARTS + 1):
        fork, bare = bare_start(env)
        rc, _, err, _, timing = spawn(load, env)
        if rc != 0:
            raise RuntimeError(f"{load} exited {rc}: {err.decode(errors='replace')}")
        if i:  # the first round only warms the bytecode cache
            forks.append(fork)
            bare_ns.append(bare.cpu_ns)
            load_ns.append(timing.cpu_ns)
            scaled_ns.append(timing.scaled(bare, BARE_NS).cpu_ns)
    fork, bare_med, load_med, scaled_med = map(statistics.median, (forks, bare_ns, load_ns, scaled_ns))
    return scaled_med / 1e9, load_med / 1e9, {
        "process.interp_start_ms": bare_med / 1e6,
        "process.import_cli_ms": (load_med - bare_med) / 1e6,
        "process.spawn_ms": fork / 1e6,
    }


class Bench:
    """Runs requests of one workload and keeps the success accounting."""

    def __init__(self, workload: Workload, env: dict[str, str]):
        from poleint import cli

        self.cli = cli
        self.workload = workload
        self.env = env
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.input_bits = 0
        self.output_bits = 0

    def in_process(self, req: Request) -> tuple[int, str, str, Timing]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cpu, start = time.thread_time_ns(), time.perf_counter_ns()
            rc = self.cli.main(list(req.argv))
            timing = Timing(time.perf_counter_ns() - start, time.thread_time_ns() - cpu)
        return rc, out.getvalue(), err.getvalue(), timing

    def cold(self, req: Request, traced: bool) -> tuple[int, str, str, Timing]:
        if traced:
            spans_file = OUT / "child-spans.json"
            spans_file.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "child.py"), str(spans_file)]
        else:
            argv = [sys.executable, "-m", "poleint"]
        rc, out, err, _, timing = spawn(argv + list(req.argv), self.env)
        if traced:
            self.tracer.merge(json.loads(spans_file.read_text()))
        want_rc, want_out, want_err, _ = self.in_process(req)
        if (rc, out, err) != (want_rc, want_out.encode(), want_err.encode()):
            raise Mismatch("subprocess output differs from in-process cli.main")
        return rc, out.decode(), err.decode(), timing

    def attempt(self, req: Request, traced: bool = False, counted: bool = True) -> tuple[Timing | None, Timing | None, bool]:
        """Run and check one request: its timing and that timing scaled by
        a reference run right before it (both None if it is wrong), and
        whether it was verified."""
        if self.workload.in_process:
            ref, nominal = time_reference(), REF_NS
        else:
            ref, nominal = bare_start(self.env)[1], BARE_NS
        try:
            if self.workload.in_process:
                rc, out, err, timing = self.in_process(req)
            else:
                rc, out, err, timing = self.cold(req, traced)
            bits = req.verify(rc, out, err)
        except Refused as exc:
            print(f"REFUSED {' '.join(req.argv)[:120]}: {exc}"[:400], file=sys.stderr)
            verified = False
        except Exception:  # a wrong request is counted and reported, never fatal
            self.wrong += 1
            print(f"WRONG {' '.join(req.argv)[:200]}", file=sys.stderr)
            traceback.print_exc(limit=3, file=sys.stderr)
            timing, verified = None, False
        else:
            verified = True
        if counted:
            self.attempted += 1
            self.failed += not verified
            self.input_bits = max(self.input_bits, req.input_bits)
            if verified:
                self.output_bits = max(self.output_bits, bits)
        return timing, None if timing is None else timing.scaled(ref, nominal), verified

    def warm_up(self, seed: int) -> None:
        """Untimed, uncounted requests from a separate stream, so that lazy
        set-up and caches are done before timing."""
        stream = self.workload.requests(seed ^ 0x5EED)
        for _ in range(self.workload.cycle):
            self.attempt(next(stream), counted=False)


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else max(samples, default=0.0)


def done(start: float, seconds: int, ops: int) -> bool:
    """A run ends once `seconds` have passed with MIN_OPS requests made, or
    at MAX_SECONDS whatever happened."""
    elapsed = time.perf_counter() - start
    return elapsed >= MAX_SECONDS or (elapsed >= seconds and ops >= MIN_OPS)


def speed(timings: list[tuple[bool, Timing]]) -> dict[str, float]:
    """ops_per_s and the latency percentiles of (verified, timing) pairs."""
    ms = [t.cpu_ns / 1e6 for _, t in timings]
    wall_s = sum(t.wall_ns for _, t in timings) / 1e9
    verified = sum(ok for ok, _ in timings)
    return {
        "ops_per_s": verified / wall_s if wall_s else 0.0,
        "latency_p50_ms": statistics.median(ms) if ms else 0.0,
        "latency_p90_ms": p90(ms),
    }


def untraced_run(bench: Bench, seed: int, seconds: int) -> tuple[dict[str, float], dict]:
    stream = bench.workload.requests(seed)
    raw: list[tuple[bool, Timing]] = []
    scaled: list[tuple[bool, Timing]] = []
    start = time.perf_counter()
    for i, req in enumerate(stream):
        if i % bench.workload.cycle == 0 and done(start, seconds, i):
            break
        timing, timing_scaled, verified = bench.attempt(req)
        if timing is not None:
            raw.append((verified, timing))
            scaled.append((verified, timing_scaled))
    usage = resource.RUSAGE_SELF if bench.workload.in_process else resource.RUSAGE_CHILDREN
    metrics = speed(scaled)
    metrics.update({
        "ok_ratio": 1 - bench.failed / bench.attempted,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    })
    return metrics, {
        "samples": len(raw),
        "fail_ratio": bench.failed / bench.attempted,
        "unscaled": speed(raw),
    }


def traced_run(bench: Bench, seed: int, seconds: int, process: dict[str, float]) -> tuple[dict[str, float], dict]:
    """Alternate untraced and traced blocks of one shape cycle each, on fresh
    requests, until `seconds` have passed and both kinds ran equally often.
    Calls are shape-determined, so calls per op repeat exactly; max_bits
    comes from the first traced block only, so it repeats for a seed."""
    workload, tracer = bench.workload, bench.tracer
    stream = workload.requests(seed)
    by_command: dict[str, list[int]] = defaultdict(list)
    wall_ns: dict[bool, list[tuple[int, int]]] = {False: [], True: []}  # (op, wall)
    untraced_cpu_ns: list[int] = []
    block = 0
    start = time.perf_counter()
    while block < 2 or block % 2 or not done(start, seconds, bench.attempted):
        traced = block % 2 == 1
        tracer.keep = [] if block == 1 else None
        if traced and workload.in_process:
            tracer.install()
        try:
            for _ in range(workload.cycle):
                req = next(stream)
                tracer.op = bench.attempted
                timing, timing_scaled, _ = bench.attempt(req, traced)
                if timing is None:
                    continue
                wall_ns[traced].append((tracer.op, timing.wall_ns))
                if not traced:
                    by_command[req.command].append(timing_scaled.cpu_ns)
                    untraced_cpu_ns.append(timing.cpu_ns)
        finally:
            tracer.uninstall()
        if block == 1:
            max_bits = tracer.max_bits()
        block += 1

    self_ns, calls, top_ns = aggregate(tracer.spans)
    traced_ops = block // 2 * workload.cycle
    metrics: dict[str, float] = {}
    for entry in ENTRIES:
        metrics[f"{entry}.self_ms"] = self_ns[entry] / traced_ops / 1e6
        metrics[f"{entry}.calls"] = calls[entry] / traced_ops
        if entry in BITS_ENTRIES:
            metrics[f"{entry}.max_bits"] = max_bits.get(entry, 0)
    for command in COMMANDS:
        samples = by_command.get(command)
        metrics[f"cli.{command}.p50_ms"] = statistics.median(samples) / 1e6 if samples else 0.0
    metrics.update(process)
    mean = {k: statistics.fmean(ns for _, ns in v) for k, v in wall_ns.items()}
    metrics["trace.overhead_ratio"] = mean[True] / mean[False]
    metrics["trace.unattributed_ms"] = statistics.fmean(
        ns - top_ns[op] for op, ns in wall_ns[True]
    ) / 1e6

    (OUT / f"spans-{workload.name}.json").write_text(json.dumps({
        "entries": ENTRIES,
        "columns": ["entry", "start_ns", "end_ns", "parent", "op"],
        "spans": tracer.spans,
    }))
    shares = {
        module: sum(v for k, v in metrics.items() if k.startswith(module + ".") and k.endswith(".self_ms"))
        / (mean[True] / 1e6)
        for module in ("cli", "parser", "polynomial", "series", "symmetric", "integrate", "asymptotics")
    }
    if not workload.in_process:
        shares["process"] = sum(process.values()) / (statistics.median(untraced_cpu_ns) / 1e6)
    return metrics, {"traced_ops": traced_ops, "self_time_share": shares}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "poleint" / "cli.py").is_file():
        print(f"error: no poleint sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import poleint

    if Path(poleint.__file__).resolve().parent != (SRC / "poleint").resolve():
        print(f"error: imported poleint from {poleint.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = child_env()
    setup_s, setup_unscaled_s, process = measure_setup(env)
    bench = Bench(WORKLOADS[args.workload], env)
    bench.warm_up(args.seed)
    if args.trace:
        metrics, info = traced_run(bench, args.seed, args.seconds, process)
        units = PER_LAYER
    else:
        metrics, info = untraced_run(bench, args.seed, args.seconds)
        metrics["setup_s"] = setup_s
        info["unscaled"]["setup_s"] = setup_unscaled_s
        units = END_TO_END
    info.update(workload=args.workload, seed=args.seed, attempted=bench.attempted,
                failed=bench.failed, wrong=bench.wrong, input_max_bits=bench.input_bits,
                output_max_bits=bench.output_bits)
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    print("# descriptors " + json.dumps(info))
    print(json.dumps({
        "correct": bench.wrong == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
