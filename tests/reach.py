"""Print every function in `src/poleint` that no golden argv and no benchmark
request calls.

    python tests/reach.py

A profile hook (`sys.setprofile`) is set before poleint is imported, so
module bodies count too.  The script then runs, in process through
`poleint.cli.main`, every argv of `tests/golden.json` and one shape cycle of
each workload in `bench/workloads.py` (seed 1; the file is loaded by path and
read only), and records the code object of every Python call.  It prints,
one dotted name a line relative to `poleint`, each function whose code object
was never called: module functions, methods, the functions under
`functools.cache`, `classmethod`, `staticmethod` and `property`, and the named
functions nested in any of these.  `cli.entry`, which ends the process, is
listed too: each spawned `python -m poleint` runs it, the in-process replay
never does.  The script is not a test module, so pytest does not collect it;
`tests/test_traced_entries.py` runs it and checks what it prints.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path
from types import CodeType, FunctionType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "poleint"

called: set[CodeType] = set()


def _profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


sys.setprofile(_profile)
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from poleint.cli import main  # noqa: E402  (after the hook: module bodies count)


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _argvs() -> list[list[str]]:
    argvs = [case["argv"] for case in
             json.loads((ROOT / "tests" / "golden.json").read_text())["cases"]]
    for workload in _workloads().values():
        requests = workload.requests(1)
        argvs += [list(next(requests).argv) for _ in range(workload.cycle)]
    return argvs


def _functions(obj) -> list[FunctionType]:
    """The plain functions behind a module or class attribute."""
    if isinstance(obj, property):
        return [f for accessor in (obj.fget, obj.fset, obj.fdel) for f in _functions(accessor)]
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    while hasattr(obj, "__wrapped__"):  # functools.cache and friends
        obj = obj.__wrapped__
    return [obj] if isinstance(obj, FunctionType) else []


def _code_objects(code: CodeType):
    """code and the named functions nested in it, by their code objects."""
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType) and not const.co_name.startswith("<"):
            yield from _code_objects(const)


def defined() -> dict[CodeType, str]:
    """Every function code object of the package, with its dotted name."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("poleint."):
            continue
        attrs = list(vars(module).values())
        attrs += [a for cls in attrs if isinstance(cls, type) for a in vars(cls).values()]
        for function in (f for attr in attrs for f in _functions(attr)):
            for code in _code_objects(function.__code__):
                if Path(code.co_filename).resolve().parent == PACKAGE:
                    qualname = getattr(code, "co_qualname", code.co_name)
                    out[code] = f"{Path(code.co_filename).stem}.{qualname}"
    return out


def reach() -> int:
    for argv in _argvs():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                contextlib.suppress(SystemExit):
            main(argv)
    sys.setprofile(None)
    for name in sorted(name for code, name in defined().items() if code not in called):
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(reach())
