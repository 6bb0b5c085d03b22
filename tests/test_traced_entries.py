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


# `tests/reach.py` prints every package function that no golden argv and no
# benchmark request calls.  Beyond the tracer's pins, only these may stay
# unreached: the record protocol of `Value`, the constructors of the two
# test-only records, `cli.entry`, which the in-process replay cannot run, and
# the two ends of the residue helper's life, which no in-process call sees.
UNREACHED_BEYOND_THE_PINS = {
    "polynomial.Value.__eq__",
    "polynomial.Value.__hash__",
    "polynomial.Value.__repr__",
    "polynomial.Value.__reduce__",
    "polynomial.Value.__setattr__",
    "polynomial.Value.__delattr__",
    "polynomial.Value._values",
    "series.InvZSeries.__init__",
    "symmetric.SymmetricTable.__init__",
    "cli.entry",
    "helper._serve",  # the helper's loop runs in the forked child alone
    "helper.stop",  # the reaper runs at exit, after the replay has reported
}


def test_every_unreached_function_is_pinned_or_listed():
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("reach.py"))],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) - set(_tracer_entries()) == UNREACHED_BEYOND_THE_PINS
