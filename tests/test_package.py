"""The package's public namespace: what ``primesim.__all__`` promises is there."""

import primesim


def test_every_exported_name_resolves():
    assert [name for name in primesim.__all__ if not hasattr(primesim, name)] == []
    assert len(set(primesim.__all__)) == len(primesim.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from primesim import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(primesim.__all__)
    assert {"Trade", "L1Snapshot"}.isdisjoint(namespace)
