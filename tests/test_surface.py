"""The package surface: ``lcoai.__all__`` is every public name the package
imports from its modules, and ``from lcoai import *`` binds exactly those."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import lcoai


def _imported() -> dict:
    """Each name ``lcoai/__init__.py`` imports from a submodule -> that submodule."""
    tree = ast.parse(Path(lcoai.__file__).read_text(encoding="utf-8"))
    return {alias.name: f"lcoai.{node.module}" for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lcoai import *", namespace)
    del namespace["__builtins__"]
    assert len(lcoai.__all__) == len(set(lcoai.__all__)) == 57
    assert sorted(namespace) == sorted(lcoai.__all__)


def test_every_public_name_is_its_submodule_object_and_no_module():
    imported = _imported()
    assert sorted(imported) == sorted(lcoai.__all__)
    for name, module in imported.items():
        value = getattr(lcoai, name)
        assert not isinstance(value, ModuleType), name
        assert value is getattr(importlib.import_module(module), name), name
