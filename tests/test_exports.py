"""Every name a qhaar module exports in __all__ must exist, so star imports work,
no production module may pull in the cross-check oracles or interpolate, and
only weingarten tells the flavors apart by name."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qhaar

MODULES = ["qhaar"] + [f"qhaar.{info.name}" for info in pkgutil.iter_modules(qhaar.__path__)]
PRODUCTION = [name for name in MODULES if name != "qhaar.oracles"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_production_modules_do_not_import_oracles():
    assert "qhaar.cli" in PRODUCTION and "qhaar.oracles" in MODULES
    code = (
        "import importlib, sys\n"
        f"for name in {PRODUCTION!r}:\n"
        "    importlib.import_module(name)\n"
        "print('qhaar.oracles' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = str(Path(qhaar.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def test_production_modules_do_not_interpolate():
    # E and E' are read off exact functions of N; interpolation through
    # sampled sizes is left to the oracles
    found = []
    for path in sorted(Path(qhaar.__file__).parent.glob("*.py")):
        if path.name in ("exactalg.py", "oracles.py"):
            continue
        text = path.read_text()
        found.extend(
            f"{path.name}: {name}"
            for name in ("interpolate_rational", "laurent_moments")
            if re.search(rf"\b{name}\b", text)
        )
    assert found == []


def test_only_weingarten_compares_flavor_names():
    # every other module reads the Flavor record in weingarten.FLAVORS
    def operands(node):
        for x in [node.left, *node.comparators]:
            yield from x.elts if isinstance(x, (ast.Tuple, ast.List, ast.Set)) else [x]

    found = []
    for path in sorted(Path(qhaar.__file__).parent.glob("*.py")):
        if path.name == "weingarten.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                found.extend(
                    f"{path.name}:{node.lineno}"
                    for x in operands(node)
                    if isinstance(x, ast.Constant) and x.value in ("quantum", "classical")
                )
    assert found == []


def test_only_load_scenario_reads_the_free_flag():
    # Flavor.free says only whether copies with different labels form a free
    # product; outside the Weingarten layer and the oracles it validates
    # scenario input, and the free limit never reads it
    found = []
    for path in sorted(Path(qhaar.__file__).parent.glob("*.py")):
        if path.name in ("weingarten.py", "oracles.py"):
            continue
        tree = ast.parse(path.read_text())
        allowed = {
            id(node)
            for fn in tree.body
            if path.name == "freeness.py"
            and isinstance(fn, ast.FunctionDef)
            and fn.name == "load_scenario"
            for node in ast.walk(fn)
        }
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "free" and id(node) not in allowed
        )
    assert found == []
