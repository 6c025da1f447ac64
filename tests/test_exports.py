"""The package's export list is the union of its modules' ``__all__`` lists."""

from __future__ import annotations

import ellvar
from ellvar import elliptic, errors, linalg, mc, mixture, portfolio, specfun, student

MODULES = (elliptic, errors, linalg, mc, mixture, portfolio, specfun, student)


def test_every_exported_name_is_declared_once():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert sorted(ellvar.__all__) == sorted(declared)


def test_every_exported_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ellvar, name) is getattr(module, name), f"{module.__name__}.{name}"
