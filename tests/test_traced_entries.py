"""The benchmark tracer rebinds the entry points named in bench/tracer.py.

Each name there must resolve on the package with the kind the tracer expects:
a function at module level, or an attribute in the owning class's own
namespace.  The tracer module is loaded by path and never installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
