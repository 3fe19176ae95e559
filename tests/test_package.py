import importlib

import pytest

import dynspan

MODULES = [
    "dynspan",
    "dynspan.cli",
    "dynspan.exact",
    "dynspan.families",
    "dynspan.linearize",
    "dynspan.lyness",
    "dynspan.polytope",
    "dynspan.system",
    "dynspan.verify",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_root_reexports_are_the_module_exports():
    # each name of the package root is the same object as the public name of
    # the module that defines it
    for attr in dynspan.__all__:
        value = getattr(dynspan, attr)
        module = importlib.import_module(value.__module__)
        assert attr in module.__all__ and getattr(module, attr) is value
