"""The package surface: ``lcoai.__all__`` is every name of the lazy table in
``lcoai/__init__.py``, each resolved in the submodule that defines it, and
``from lcoai import *`` binds exactly those."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import lcoai
from conftest import FIXTURES, REPO_ROOT


def _imported() -> dict:
    """Each name of the table in ``lcoai/__init__.py`` -> its submodule."""
    tree = ast.parse(Path(lcoai.__file__).read_text(encoding="utf-8"))
    table, = (node.value for node in tree.body if isinstance(node, ast.Assign)
              and [target.id for target in node.targets] == ["_SUBMODULE"])
    return {name: f"lcoai.{module}" for name, module in ast.literal_eval(table).items()}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lcoai import *", namespace)
    del namespace["__builtins__"]
    assert len(lcoai.__all__) == len(set(lcoai.__all__)) == 50
    assert sorted(namespace) == sorted(lcoai.__all__)


def test_every_public_name_is_its_submodule_object_and_no_module():
    imported = _imported()
    assert sorted(imported) == sorted(lcoai.__all__)
    for name, module in imported.items():
        value = getattr(lcoai, name)
        assert not isinstance(value, ModuleType), name
        assert value is getattr(importlib.import_module(module), name), name
        # the table names the module that defines a function or class, not one
        # that imports it
        assert getattr(value, "__module__", module) == module, name


def test_dir_lists_every_public_name():
    assert set(lcoai.__all__) <= set(dir(lcoai))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'lcoai' has no attribute 'no_such_name'$"):
        lcoai.no_such_name


def test_a_name_is_looked_up_on_every_use(monkeypatch):
    # what bench/tracing.py relies on: a function replaced in its submodule
    # is what lcoai hands out, and the original again once it is put back
    from lcoai import sensitivity

    original = lcoai.tornado
    stand_in = object()
    monkeypatch.setattr(sensitivity, "tornado", stand_in)
    assert lcoai.tornado is stand_in
    monkeypatch.undo()
    assert lcoai.tornado is original
    assert not set(lcoai.__all__) & set(vars(lcoai))  # no name was kept in the package


def _loaded_after(code: str) -> set:
    """The modules a fresh interpreter holds after running ``code``."""
    script = f"{code}\nimport sys\nprint(*sys.modules, sep='\\n')"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def _package(modules: set) -> set:
    return {name for name in modules if name.startswith("lcoai.")}


def test_import_lcoai_loads_no_submodule():
    assert _package(_loaded_after("import lcoai")) == set()


def test_loading_scenarios_loads_the_schema_and_the_kernel_only():
    loaded = _loaded_after(
        f"import lcoai\nlcoai.load_scenarios({str(FIXTURES / 'table1.json')!r})")
    assert _package(loaded) == {"lcoai.schema", "lcoai.cost_core", "lcoai.errors"}
    assert not loaded & {"argparse", "csv", "datetime"}


def test_parsing_a_log_loads_ingest_only():
    loaded = _loaded_after(
        f"import lcoai\nwith open({str(FIXTURES / 'telemetry_sample.jsonl')!r}, 'rb') as fh:\n"
        "    lcoai.parse_log(fh)")
    assert _package(loaded) == {"lcoai.ingest", "lcoai.errors"}
    assert not loaded & {"decimal", "fractions"}


def test_the_cli_module_loads_every_traced_module():
    # bench/tracing.py::install looks up each module of BOUNDARIES in
    # sys.modules once the bench has imported lcoai.cli_report
    tracing = ast.parse((REPO_ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    boundaries, = (node.value for node in tracing.body if isinstance(node, ast.Assign)
                   and [target.id for target in node.targets] == ["BOUNDARIES"])
    traced = {f"lcoai.{module}" for module in ast.literal_eval(boundaries)}
    assert len(traced) == 5
    assert traced <= _loaded_after("import lcoai.cli_report")
