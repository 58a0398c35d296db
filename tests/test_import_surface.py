"""The import surface: empty package ``__init__``s, layer-bounded imports.

``repro.api`` is the one facade.  Package ``__init__`` files bind
nothing, so importing a module runs only its own import statements, and
a fresh interpreter that imports any module loads only ``repro``
modules in its layer's closure of reprolint's layer DAG.  Only the
replay backend imports numpy, so neither the facade nor the CLI
loads it.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.analysis.rules.layering import LAYER_DAG

SRC = pathlib.Path(repro.__file__).resolve().parents[1]
PACKAGE = SRC / "repro"

#: The one package whose ``__init__`` imports: it registers the rules.
REGISTERING_INIT = PACKAGE / "analysis" / "rules" / "__init__.py"

MODULES = [module.name
           for module in pkgutil.walk_packages(repro.__path__, "repro.")]


def layer_of(module: str) -> str:
    """The module's layer, as the ``layering`` rule names it."""
    parts = module.split(".")
    if len(parts) == 1 or parts[1].startswith("__"):
        return "repro"
    return parts[1]


def closure(layer: str) -> "set[str]":
    """``layer`` and every layer it may reach through the DAG."""
    reached = {layer}
    pending = [layer]
    while pending:
        for below in LAYER_DAG[pending.pop()]:
            if below not in reached:
                reached.add(below)
                pending.append(below)
    return reached


def fresh_import(module: str) -> "tuple[list[str], bool]":
    """The ``repro`` modules and whether numpy is loaded after a fresh
    interpreter imports ``module``."""
    script = (
        "import importlib, json, sys\n"
        f"importlib.import_module({module!r})\n"
        "print(json.dumps([sorted(name for name in sys.modules\n"
        "                         if name.split('.')[0] == 'repro'),\n"
        "                  'numpy' in sys.modules]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
    loaded, numpy_loaded = json.loads(completed.stdout.splitlines()[-1])
    return loaded, numpy_loaded


def test_package_inits_bind_nothing():
    inits = sorted(PACKAGE.rglob("__init__.py"))
    assert REGISTERING_INIT in inits
    for path in inits:
        if path == REGISTERING_INIT:
            continue
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path} has no docstring"
        statements = tree.body[1:]
        if path == PACKAGE / "__init__.py":
            assert len(statements) == 1 and isinstance(
                statements[0], ast.Assign), path
            assert [ast.unparse(target) for target in
                    statements[0].targets] == ["__version__"], path
        else:
            assert statements == [], f"{path} binds names"


@pytest.mark.parametrize("module", MODULES)
def test_import_loads_only_the_layer_closure(module):
    loaded, _ = fresh_import(module)
    assert module in loaded
    allowed = closure(layer_of(module))
    outside = [name for name in loaded
               if name != "repro" and layer_of(name) not in allowed]
    assert outside == [], (
        f"importing {module} (layer {layer_of(module)!r}) loads "
        f"modules outside {sorted(allowed)}")


@pytest.mark.parametrize("module", ["repro.api", "repro.harness.cli"])
def test_import_loads_no_numpy(module):
    _, numpy_loaded = fresh_import(module)
    assert not numpy_loaded
