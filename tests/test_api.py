"""The public API: each library module's ``__all__`` and the package's union of them."""

import importlib
import inspect

import pytest

import skybell

LIBRARY = ("background", "errors", "montecarlo", "polarization", "propagation", "scenarios")
MODULES = [importlib.import_module(f"skybell.{name}") for name in LIBRARY]


@pytest.mark.parametrize("module", MODULES, ids=LIBRARY)
def test_each_module_lists_only_names_it_defines(module):
    for attr in module.__all__:
        assert attr in vars(module), attr
        obj = vars(module)[attr]
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, attr


def test_package_all_is_the_version_plus_the_module_lists():
    names = ["__version__"] + [attr for module in MODULES for attr in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(skybell.__all__) == sorted(names)


def test_every_listed_name_resolves_to_its_definition():
    assert isinstance(skybell.__version__, str)
    for module in MODULES:
        for attr in module.__all__:
            assert getattr(skybell, attr) is getattr(module, attr), attr


def test_star_import_binds_exactly_the_listed_names():
    namespace = {}
    exec("from skybell import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(skybell.__all__)
