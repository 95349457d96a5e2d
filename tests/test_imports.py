"""Import-footprint guard: the package loads only its declared dependencies."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import importlib, pkgutil, sys
import repro, repro.flow.cli
for mod in pkgutil.walk_packages(repro.__path__, "repro."):
    if not mod.name.endswith("__main__"):
        importlib.import_module(mod.name)
print(sorted(name for name in sys.modules if name.split(".")[0] == "networkx"))
"""


def test_no_module_imports_networkx():
    """The graph layer is stdlib-only; a fresh interpreter never loads networkx."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
