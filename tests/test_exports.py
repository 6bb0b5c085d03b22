"""The export list: `from poleint import *` binds exactly `poleint.__all__`."""

import poleint


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from poleint import *", namespace)
    del namespace["__builtins__"]
    assert len(set(poleint.__all__)) == len(poleint.__all__)
    assert sorted(namespace) == sorted(poleint.__all__)
    for name in poleint.__all__:
        assert namespace[name] is getattr(poleint, name)
