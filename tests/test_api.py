"""The public API: each library module's ``__all__`` and the package's union of them."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import skybell

LIBRARY = ("background", "errors", "montecarlo", "polarization", "propagation", "scenarios")
MODULES = [importlib.import_module(f"skybell.{name}") for name in LIBRARY]
SOURCES = sorted(Path(skybell.__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_module_imports_a_private_name_of_another(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        f"from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []
