#!/usr/bin/env python3
"""Startup benchmark: what each entry point imports, and what that costs.

Every ``repro`` command, perfbench set-up probe and ``repro serve``
start pays interpreter start-up and imports before its first op. This
bench starts fresh interpreters for four entry points:

* ``import_repro`` — ``import repro``;
* ``compile_cold_setup`` — the imports of perfbench compile-cold's
  set-up (``perfbench/worker.py setup``): the top-level API,
  ``repro.dse.accuracy`` and ``repro.model.cache``;
* ``sweep_claims_setup`` — the imports of sweep-claims' set-up:
  ``repro.flow.artifacts``, ``repro.flow.ledger`` and ``repro.flow.sweep``;
* ``serve`` — ``python -m repro serve --port 0``, up to its
  ``Serving on`` line (then drained with SIGTERM);

and records for each:

* ``wall_ms`` — the median of ``RUNS`` fresh starts, spawn to exit
  (``serve``: spawn to the ready line);
* ``import_ms`` — medians of ``RUNS`` ``-X importtime`` starts, split
  into ``repro`` (the self time of repro's own modules), ``numpy``
  (everything numpy's import pulls in), ``other`` (every other module,
  the interpreter's own start-up included) and their ``total``;
* ``repro_modules`` — the sorted repro modules it loads (for ``serve``,
  those loaded by its ready line), and their count.

Every child inherits this process's environment (``src`` is put on
``PYTHONPATH``), so the times include compiling each module's source
whenever the interpreter may not read or write a bytecode cache.

Results land in ``BENCH_startup.json`` (repo root). Usage::

    PYTHONPATH=src python benchmarks/bench_startup.py
    PYTHONPATH=src python benchmarks/bench_startup.py --check-only

``--check-only`` (CI's perf-smoke job) starts each entry point once and
fails if the repro modules any of them loads differ from
``BENCH_startup.json``'s: the module sets are deterministic, so a module
that starts loading where it did not (or stops) shows up here. The times
are printed, never gated. For where ``import repro`` and the setups
stand in the end-to-end benchmark, see ``setup_s`` and
``import.total_ms`` in ``python3 perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Fresh starts per entry point and kind (timed, ``-X importtime``).
RUNS = 7
#: The interpreter entry points, as ``python -c`` programs.
PROGRAMS = {
    "import_repro": "import repro",
    "compile_cold_setup": (
        "from repro import NSFlow, build_workload\n"
        "from repro.dse.accuracy import clear_accuracy_cache\n"
        "from repro.model.cache import clear_model_caches\n"
    ),
    "sweep_claims_setup": (
        "from repro.flow.artifacts import ArtifactStore\n"
        "from repro.flow.ledger import RunLedger\n"
        "from repro.flow.sweep import run_sweep\n"
    ),
}
ENTRY_POINTS = (*PROGRAMS, "serve")
READY = b"Serving on "


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def start(entry: str, importtime: bool, scratch: pathlib.Path) -> tuple[float, str]:
    """One fresh start of ``entry``: its seconds, and its ``-X importtime``
    report ('' without ``importtime``)."""
    flags = ["-X", "importtime"] if importtime else []
    if entry == "serve":
        cmd = [sys.executable, *flags, "-m", "repro", "serve", "--port", "0",
               "--cache-dir", str(scratch / "serve-cache")]
    else:
        cmd = [sys.executable, *flags, "-c", PROGRAMS[entry]]
    log = scratch / f"{entry}.stderr"
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=REPO_ROOT, env=_env(),
                                stdout=subprocess.PIPE, stderr=err)
        try:
            if entry == "serve":
                for line in proc.stdout:
                    if line.startswith(READY):
                        break
                seconds = time.perf_counter() - t0
                report = log.read_bytes()    # the imports made by the ready line
                proc.send_signal(signal.SIGTERM)
                proc.communicate(timeout=60)
            else:
                proc.communicate(timeout=60)
                seconds = time.perf_counter() - t0
                report = log.read_bytes()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{entry} exited {proc.returncode}: "
                           f"{log.read_text(errors='replace')[-2000:]}")
    return seconds, report.decode("utf-8", "replace")


def import_split(report: str) -> tuple[dict[str, float], list[str]]:
    """The ``-X importtime`` ``report`` as self ms per part, and its repro modules.

    The report lists each import after the imports it made, indented two
    spaces per level; read backwards, every module follows its importer,
    so a stack of ``(depth, part)`` gives each line its part: ``numpy``
    for numpy and whatever it imports, ``repro`` for repro's modules,
    ``other`` for the rest.
    """
    lines = []
    for line in report.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            name = fields[2].rstrip()
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            lines.append((int(fields[0]), depth, name.strip()))
    parts = {"repro": 0.0, "numpy": 0.0, "other": 0.0}
    modules = set()
    stack: list[tuple[int, str]] = []
    for self_us, depth, name in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top == "numpy" or (stack and stack[-1][1] == "numpy"):
            part = "numpy"
        elif top == "repro":
            part = "repro"
            modules.add(name)
        else:
            part = "other"
        stack.append((depth, part))
        parts[part] += self_us / 1e3
    parts["total"] = sum(parts.values())
    return parts, sorted(modules)


def bench_entry(entry: str, runs: int, scratch: pathlib.Path) -> dict:
    walls, splits, module_sets = [], [], set()
    for _ in range(runs):          # interleaved, so drift hits both kinds alike
        walls.append(start(entry, False, scratch)[0] * 1e3)
        split, modules = import_split(start(entry, True, scratch)[1])
        splits.append(split)
        module_sets.add(tuple(modules))
    if len(module_sets) != 1:
        raise RuntimeError(f"{entry}: the repro modules loaded differ between starts")
    modules = list(module_sets.pop())
    return {
        "wall_ms": {"median": statistics.median(walls), "runs": walls},
        "import_ms": {part: statistics.median(s[part] for s in splits)
                      for part in ("repro", "numpy", "other", "total")},
        "repro_module_count": len(modules),
        "repro_modules": modules,
    }


def run_bench(runs: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-startup-") as tmp:
        entries = {entry: bench_entry(entry, runs, pathlib.Path(tmp))
                   for entry in ENTRY_POINTS}
    return {
        "bench": "startup",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "runs": runs,
        "entry_points": entries,
    }


def check_modules(doc: dict, recorded: dict) -> list[str]:
    """Each entry point's repro modules against the ``recorded`` run's."""
    failures = []
    for entry, result in doc["entry_points"].items():
        if entry not in recorded.get("entry_points", {}):
            failures.append(f"{entry}: no recorded module set; run without --check-only")
            continue
        want = set(recorded["entry_points"][entry]["repro_modules"])
        got = set(result["repro_modules"])
        if got != want:
            failures.append(
                f"{entry} loads {sorted(got - want)} beyond, and not "
                f"{sorted(want - got)} of, the recorded repro modules; "
                "rerun without --check-only if that is intended"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_startup.json",
                        help="result JSON path (default: repo-root BENCH_startup.json)")
    parser.add_argument("--check-only", action="store_true",
                        help="one start per entry point; fail if its repro modules "
                             "differ from the JSON's; skip the JSON write")
    args = parser.parse_args(argv)

    doc = run_bench(1 if args.check_only else RUNS)
    print(f"{'entry point':<20} | {'wall ms':>8} | {'repro ms':>8} | "
          f"{'numpy ms':>8} | {'other ms':>8} | {'repro modules':>13}")
    for entry, r in doc["entry_points"].items():
        split = r["import_ms"]
        print(f"{entry:<20} | {r['wall_ms']['median']:8.1f} | {split['repro']:8.1f} | "
              f"{split['numpy']:8.1f} | {split['other']:8.1f} | "
              f"{r['repro_module_count']:13d}")
    if args.check_only:
        recorded = json.loads(args.out.read_text()) if args.out.is_file() else {}
        failures = check_modules(doc, recorded)
        for failure in failures:
            print(f"CONTRACT FAILURE: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("check-only: every entry point loads exactly the repro modules "
              f"{args.out.name} records")
        return 0
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
