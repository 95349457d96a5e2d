"""Reference outputs every benchmark op is checked against.

``reference.json`` holds one entry per op the seeds can draw: the 12
compile-cold classes and every scenario of the synth pool. An entry is
a digest of the chosen design config and the full ``DseReport`` in
canonical JSON (``repro.utils.stable_digest``) plus ``total_cycles``;
synth entries also carry the scenario's cache key, the artifact-store
entry digest and the ledger fields an earlier sweep would have
recorded. Regenerate it (a benchmark change, never part of a
performance change) with::

    python3 perfbench/run.py --record-reference
"""

from __future__ import annotations

import json
import pathlib

from .plans import COMPILE_CLASSES, SYNTH_POOL_SIZE, CompileOp

__all__ = [
    "REFERENCE_PATH",
    "load_reference",
    "synth_spec",
    "design_digest",
    "check_design",
    "record_reference",
]

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")
FORMAT = 1


def load_reference(path: pathlib.Path = REFERENCE_PATH) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path}: unsupported reference format {doc.get('format')!r}")
    return doc


def synth_spec(seed: int):
    """The sweep/serve scenario of one synth pool seed."""
    from repro.flow.sweep import ScenarioSpec

    return ScenarioSpec(workload="synth", overrides=(("seed", seed),))


def design_digest(config, report) -> str:
    """Canonical digest of a design config plus its ``DseReport``."""
    from repro.utils import jsonable, stable_digest

    return stable_digest({"config": jsonable(config), "report": jsonable(report)},
                         length=32)


def check_design(entry: dict, config, report, total_cycles: int) -> str | None:
    """``None`` when the output matches ``entry``, else what differs."""
    if total_cycles != entry["total_cycles"]:
        return f"total_cycles {total_cycles} != reference {entry['total_cycles']}"
    digest = design_digest(config, report)
    if digest != entry["digest"]:
        return f"design digest {digest} != reference {entry['digest']}"
    return None


def compile_once(op: CompileOp, build_workload=None):
    """What ``repro compile`` does after import, for one op."""
    from repro import MIXED_PRECISION_PRESETS, NSFlow

    if build_workload is None:
        from repro import build_workload
    workload = build_workload(op.workload)
    return NSFlow(
        precision=MIXED_PRECISION_PRESETS[op.precision],
        backend=op.backend,
        accuracy=op.accuracy,
        accuracy_problems=op.problems,
    ).compile(workload)


def record_reference(scratch: pathlib.Path, path: pathlib.Path = REFERENCE_PATH) -> None:
    """Price every drawable op and write the reference file."""
    from repro.flow.artifacts import ArtifactStore
    from repro.flow.sweep import run_sweep

    compile_doc = {}
    for op in COMPILE_CLASSES:
        design = compile_once(op)
        compile_doc[op.label] = {
            "digest": design_digest(design.config, design.dse),
            "total_cycles": design.schedule.total_cycles,
        }
    store = ArtifactStore(scratch / "reference-store")
    specs = [synth_spec(seed) for seed in range(SYNTH_POOL_SIZE)]
    result = run_sweep(specs, store=store)
    synth = []
    for seed, outcome in enumerate(result.outcomes):
        if not outcome.ok:
            raise RuntimeError(f"synth seed {seed} failed: {outcome.error}")
        art = outcome.artifacts
        digest = design_digest(art.config, art.report)
        reloaded = store.load(outcome.key)
        if design_digest(reloaded.config, reloaded.report) != digest:
            raise RuntimeError(f"synth seed {seed}: store round trip changes the digest")
        synth.append({
            "seed": seed,
            "scenario_id": outcome.scenario_id,
            "key": outcome.key,
            "digest": digest,
            "entry_digest": outcome.artifact_digest,
            "total_cycles": art.total_cycles,
            "latency_ms": art.latency_ms,
            "evaluations": outcome.evaluations,
        })
    lines = [
        "{",
        f'"format": {FORMAT},',
        f'"compile": {json.dumps(compile_doc, sort_keys=True)},',
        '"synth": [',
        ",\n".join(json.dumps(e, sort_keys=True) for e in synth),
        "]",
        "}",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
