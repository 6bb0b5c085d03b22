"""The benchmark tracer rebinds the entry points named in bench/tracer.py.

Each name there must resolve on the package with the kind the tracer expects:
a function at module level, or an attribute in the owning class's own
namespace.  The tracer module is loaded by path and never installed.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poleint

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_entries() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRIES


@pytest.mark.parametrize("dotted", _tracer_entries())
def test_entry_resolves(dotted):
    module_name, *owner, attr = dotted.split(".")
    module = importlib.import_module(f"poleint.{module_name}")
    if owner:
        cls = getattr(module, owner[0])
        assert inspect.isclass(cls)
        assert attr in vars(cls), f"{dotted} is not defined on {owner[0]} itself"
    else:
        assert inspect.isfunction(getattr(module, attr, None)), dotted


# `Tracer.install` imports `poleint.cli` alone and lists the `poleint.*`
# namespaces once, before it rebinds anything; an entry whose module that
# import does not load would be rebound in no namespace.  -S keeps
# site-packages out of the child, as a cold run starts.
def test_cli_import_loads_every_entry_module():
    code = "import sys, poleint.cli; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(poleint.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    needed = {f"poleint.{dotted.split('.')[0]}" for dotted in _tracer_entries()}
    assert needed <= loaded, sorted(needed - loaded)
