"""Every name a qhaar module exports in __all__ must exist, so star imports work,
and no production module may pull in the cross-check oracles."""

import importlib
import os
import pkgutil
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
