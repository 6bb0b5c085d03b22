"""The export list: `from poleint import *` binds exactly `poleint.__all__`.

Each library module names its public surface in its own `__all__`; the
package re-exports the six lists and nothing else.
"""

import importlib

import poleint

# The package's export list, in order, each name with the module that
# offers it (`format_rational` is defined in `polynomial`, offered by `parser`).
EXPORTS = (
    ("ExactCheckError", "symmetric"),
    ("InvZSeries", "series"),
    ("NotIntegrableInRing", "series"),
    ("Poly", "polynomial"),
    ("PolyParseError", "parser"),
    ("Rat", "polynomial"),
    ("RootConfig", "integrate"),
    ("SymmetricTable", "symmetric"),
    ("check_moment_identities", "integrate"),
    ("complete_homogeneous", "symmetric"),
    ("decomposes", "integrate"),
    ("determinant", "symmetric"),
    ("format_rational", "parser"),
    ("generalized_vandermonde", "symmetric"),
    ("integrate_via_expansion", "integrate"),
    ("integrate_via_partial_fractions", "integrate"),
    ("moment", "integrate"),
    ("parse_factored_denominator", "parser"),
    ("parse_poly", "parser"),
    ("parse_rational", "parser"),
    ("partial_fractions", "integrate"),
    ("scaling_limit_table", "asymptotics"),
    ("vandermonde_matrix", "symmetric"),
    ("vandermonde_product", "symmetric"),
)

MODULES = sorted({module_name for _, module_name in EXPORTS})


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from poleint import *", namespace)
    del namespace["__builtins__"]
    assert len(set(poleint.__all__)) == len(poleint.__all__)
    assert sorted(namespace) == sorted(poleint.__all__)
    for name in poleint.__all__:
        assert namespace[name] is getattr(poleint, name)


def test_each_module_star_import_binds_exactly_its_own_list():
    union = []
    for module_name in MODULES:
        module = importlib.import_module(f"poleint.{module_name}")
        namespace = {}
        exec(f"from poleint.{module_name} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(module.__all__), module_name
        for name in module.__all__:
            assert name in vars(module), f"{module_name}.{name}"
        union.extend(module.__all__)
    assert len(set(union)) == len(union), "a name is listed by two modules"
    assert sorted(union) == poleint.__all__


def test_package_exports_the_same_objects_in_the_same_order():
    assert poleint.__all__ == [name for name, _ in EXPORTS]
    for name, module_name in EXPORTS:
        module = importlib.import_module(f"poleint.{module_name}")
        assert name in module.__all__, f"{module_name}.{name}"
        assert getattr(poleint, name) is getattr(module, name), name
