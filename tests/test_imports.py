"""Import-footprint guard: the package loads only its declared dependencies,
and ``import repro`` only the compile pipeline."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_IMPORT_ALL = """
import importlib, pkgutil
import repro, repro.flow.cli
for mod in pkgutil.walk_packages(repro.__path__, "repro."):
    if not mod.name.endswith("__main__"):
        importlib.import_module(mod.name)
"""

#: Modules no compile runs, so ``import repro`` must not load them: the
#: sweep, ledger, report and artifact-store layers and the fault injector
#: behind them, the functional simulators, graph statistics, trace
#: serialization, and the VSA block codes, codebooks and resonator.
NOT_IN_A_COMPILE = (
    "repro.flow.sweep",
    "repro.flow.ledger",
    "repro.flow.report",
    "repro.flow.artifacts",
    "repro.faults",
    "repro.arch.pe",
    "repro.arch.column",
    "repro.arch.adarray",
    "repro.arch.simd",
    "repro.graph.analysis",
    "repro.trace.serialize",
    "repro.vsa.blockcode",
    "repro.vsa.codebook",
    "repro.vsa.resonator",
)
#: Nor the service, its client, the CLI or the comparison devices.
NOT_IN_IMPORT_REPRO = NOT_IN_A_COMPILE + (
    "repro.flow.server",
    "repro.flow.client",
    "repro.flow.cli",
    "repro.baselines",
    "repro.characterize",
)

#: Every package façade; all but ``repro.workloads`` resolve names lazily.
FACADES = (
    "repro",
    "repro.arch",
    "repro.baselines",
    "repro.characterize",
    "repro.datasets",
    "repro.dse",
    "repro.flow",
    "repro.graph",
    "repro.model",
    "repro.nn",
    "repro.quant",
    "repro.trace",
    "repro.vsa",
    "repro.workloads",
)

#: Module-level names perfbench's tracer (``perfbench/tracing.py``) swaps
#: for timing wrappers, looked up where callers find them. It skips a
#: name that is missing, so a name that left module scope would silently
#: drop its layer from every traced run.
TRACED_FUNCTIONS = {
    "repro.flow.sweep": ("build_workload",),
    "repro.dse.accuracy": ("deployed_workload",),
    "repro.flow.nsflow": (
        "build_dataflow_graph",
        "fuse_loops",
        "evaluate_accuracy",
        "estimate_resources",
        "generate_rtl_parameters",
        "generate_host_code",
    ),
    "repro.dse.engine": ("run_phase2", "record_stage"),
}
#: ... and the methods it wraps, by defining module and class.
TRACED_METHODS = {
    ("repro.dse.engine", "DseEngine"): ("explore", "evaluate"),
    ("repro.arch.controller", "Controller"): ("schedule",),
    ("repro.flow.nsflow", "NSFlow"): ("compile",),
    ("repro.flow.ledger", "RunLedger"): ("acquire", "append", "entries"),
    ("repro.flow.artifacts", "ArtifactStore"): ("store", "entry_digest", "load"),
}


def _run(program: str) -> str:
    """The stdout of ``program`` run by a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def _fresh(program: str) -> list[str]:
    """Every module a fresh interpreter holds after running ``program``."""
    return json.loads(_run(
        f"{program}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    ))


def _within(loaded: list[str], packages) -> list[str]:
    """The ``loaded`` modules that are one of ``packages`` or inside one."""
    return [m for m in loaded if any(m == p or m.startswith(p + ".") for p in packages)]


@pytest.fixture(scope="module")
def loaded_modules() -> list[str]:
    """Every module a fresh interpreter holds after importing all of repro."""
    return _fresh(_IMPORT_ALL)


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


def test_import_repro_loads_only_the_compile_pipeline():
    """The façades resolve names on first use, so ``import repro`` loads
    the top-level API's modules and the workload registry, and none of
    the modules a compile never runs."""
    loaded = _fresh("import repro")
    assert _within(loaded, NOT_IN_IMPORT_REPRO) == []
    assert {"repro.flow.nsflow", "repro.dse.engine", "repro.workloads.registry"} <= set(loaded)


def test_the_cli_imports_each_commands_modules_in_its_handler():
    """Building the parser loads none of the sweep, store, service or
    baseline-device modules; ``repro compile`` never needs them."""
    loaded = _fresh("import repro.flow.cli")
    assert _within(loaded, NOT_IN_IMPORT_REPRO) == ["repro.flow.cli"]


def test_tracer_sees_every_registry_workload_and_backend():
    """perfbench wraps ``build_trace`` on every ``NSAIWorkload`` subclass
    and ``evaluate_design`` on every ``EvaluationBackend`` subclass that
    exists once it has imported ``repro.workloads.base`` and
    ``repro.model.backend``: those imports alone must define them all."""
    found = _run("""
import json
from repro.model.backend import EvaluationBackend
from repro.workloads.base import NSAIWorkload

def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub.__name__
        yield from subclasses(sub)

workloads, backends = set(subclasses(NSAIWorkload)), set(subclasses(EvaluationBackend))
from repro.workloads import available_workloads, build_workload
from repro.model.backend import EVALUATION_BACKENDS, make_backend
print(json.dumps([
    sorted(type(build_workload(n)).__name__ for n in available_workloads()),
    sorted(workloads),
    sorted(type(make_backend(b)).__name__ for b in EVALUATION_BACKENDS),
    sorted(backends),
]))
""")
    registry, workloads, backend_types, backends = json.loads(found)
    assert len(registry) == 6 and set(registry) <= set(workloads)
    assert set(backend_types) == {"AnalyticBackend", "ScheduleBackend"}
    assert set(backend_types) <= set(backends)


def test_names_perfbench_patches_stay_at_module_scope():
    for module, names in TRACED_FUNCTIONS.items():
        namespace = vars(importlib.import_module(module))
        assert [n for n in names if not callable(namespace.get(n))] == [], module
    for (module, cls), methods in TRACED_METHODS.items():
        owner = vars(importlib.import_module(module))[cls]
        assert [m for m in methods if not callable(getattr(owner, m, None))] == [], cls


@pytest.mark.parametrize("package", FACADES)
def test_every_exported_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    assert [n for n in module.__all__ if n not in listed] == []
    for name in module.__all__:
        getattr(module, name)
