"""The package surface: each module's ``__all__`` declares its public
names once, and the package re-exports exactly those."""

import torusflow
from torusflow import assembly, curves, cyclic_solver, diagnostics, experiments, stepping

MODULES = (assembly, curves, cyclic_solver, diagnostics, experiments, stepping)


def test_package_all_is_the_modules_all_in_order():
    expected = ["__version__"]
    for module in MODULES:
        expected += module.__all__
    assert torusflow.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_each_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(torusflow, name) is getattr(module, name), (module.__name__, name)
    namespace = {}
    exec("from torusflow import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(torusflow.__all__)
