"""Import-footprint guard: the package loads only its declared dependencies."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import importlib, json, pkgutil, sys
import repro, repro.flow.cli
for mod in pkgutil.walk_packages(repro.__path__, "repro."):
    if not mod.name.endswith("__main__"):
        importlib.import_module(mod.name)
print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def loaded_modules() -> list[str]:
    """Every module a fresh interpreter holds after importing all of repro."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_no_module_imports_networkx(loaded_modules):
    """The graph layer is stdlib-only; a fresh interpreter never loads networkx."""
    assert [m for m in loaded_modules if m.split(".")[0] == "networkx"] == []


def test_no_module_imports_a_process_pool(loaded_modules):
    """Everything prices in the calling process: no module loads the
    process-pool machinery (``repro serve`` uses threads only)."""
    assert [
        m for m in loaded_modules
        if m.split(".")[0] == "multiprocessing"
        or m == "concurrent.futures.process"
    ] == []


def test_no_module_imports_http_client(loaded_modules):
    """``ServeClient`` frames HTTP/1.1 itself: nothing loads
    :mod:`http.client` or the :mod:`email` header parser behind it."""
    assert [m for m in loaded_modules if m in ("http.client", "email.parser")] == []
