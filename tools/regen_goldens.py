#!/usr/bin/env python3
"""Regenerate the golden report fixtures under tests/goldens/.

The goldens pin the *entire* numeric surface of a compiled scenario —
Phase I/II results, the full Pareto frontier, resource estimate, and
scheduled latency — as the exact ``report.json`` document the artifact
store persists. `tests/flow/test_goldens.py` recompiles each scenario
and diffs against these files byte-for-semantics (parsed JSON
equality), so any change to the cost models, the DSE, or the report
schema shows up as a reviewable fixture diff instead of a silent drift.

When a change *intentionally* alters results (a new backend version, a
model fix), regenerate and commit the diff:

    PYTHONPATH=src python tools/regen_goldens.py

This is the single source of truth for which scenarios are pinned
(:data:`GOLDENS`); the test module imports it, so the tool and the test
can never disagree about the fixture set.
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.flow.artifacts import _report_doc  # noqa: E402
from repro.flow.nsflow import NSFlow  # noqa: E402
from repro.quant import MIXED_PRECISION_PRESETS  # noqa: E402
from repro.workloads import build_workload  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "goldens"

#: Small synth family: fast to compile, non-trivial frontier.
_SYNTH_SMALL = dict(n_ops=10, depth=4, vector_dim=64, blocks=2, gemm_scale=16)

#: (fixture name, workload name, config overrides, backend).
#: One registry workload and two synth seeds, each under both backends.
#: max_pes is fixed (not device-derived) so goldens are device-budget
#: independent and the frontier stays small enough to review.
GOLDENS: tuple[tuple[str, str, dict, str], ...] = (
    ("prae-analytic", "prae", {}, "analytic"),
    ("prae-schedule", "prae", {}, "schedule"),
    ("synth101-analytic", "synth", dict(seed=101, **_SYNTH_SMALL), "analytic"),
    ("synth101-schedule", "synth", dict(seed=101, **_SYNTH_SMALL), "schedule"),
    ("synth202-analytic", "synth", dict(seed=202, **_SYNTH_SMALL), "analytic"),
    ("synth202-schedule", "synth", dict(seed=202, **_SYNTH_SMALL), "schedule"),
)

GOLDEN_MAX_PES = 256


def golden_doc(workload: str, overrides: dict, backend: str) -> dict:
    """Compile one golden scenario and return its report.json document."""
    wl = build_workload(workload, **overrides)
    nsf = NSFlow(
        precision=MIXED_PRECISION_PRESETS["MP"],
        max_pes=GOLDEN_MAX_PES,
        backend=backend,
    )
    return _report_doc(nsf.compile(wl))


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, workload, overrides, backend in GOLDENS:
        path = GOLDEN_DIR / f"{name}.json"
        doc = golden_doc(workload, overrides, backend)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
