"""Self-tests of the benchmark itself (not part of the repo's test suite).

    python3 -m pytest perfbench/selftest.py -q

They check that the op plans are pure functions of the seed, that the
output check catches an altered artifact, that the hit/miss mixes keep
each reported percentile inside one op class, that the reference file
covers every op a seed can draw, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import plans, reference, serve  # noqa: E402

SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
#: ``run.py``'s default seed and one other.
SEEDS = (0, 1)

_PLANS_JSON = (
    "import dataclasses, json; from perfbench import plans; "
    "print(json.dumps([dataclasses.asdict(f({seed}, {seconds})) for f in "
    "(plans.compile_plan, plans.sweep_plan, plans.serve_plan)], default=sorted))"
)


def _plans_json(seed: int) -> str:
    return json.dumps(
        [dataclasses.asdict(f(seed, SECONDS))
         for f in (plans.compile_plan, plans.sweep_plan, plans.serve_plan)],
        default=sorted,
    )


@pytest.fixture
def scratch():
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    path = pathlib.Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_op_sequence_is_a_pure_function_of_the_seed():
    assert _plans_json(3) == _plans_json(3)
    assert _plans_json(3) != _plans_json(4)
    fresh = subprocess.run(
        [sys.executable, "-c", _PLANS_JSON.format(seed=3, seconds=SECONDS)],
        cwd=ROOT, capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(ROOT), "PYTHONHASHSEED": "random", "PATH": "/usr/bin:/bin"},
    )
    assert fresh.stdout.strip() == _plans_json(3)


def test_output_check_flags_an_altered_artifact(scratch):
    from repro.flow.artifacts import ArtifactStore
    from repro.flow.sweep import run_sweep

    seed = 7
    synth = reference.load_reference()["synth"]
    entry = synth[seed]
    store = ArtifactStore(scratch / "cache")
    run_sweep([reference.synth_spec(seed)], store=store)
    assert serve.check_store(scratch / "cache", [seed], synth) == []

    report = store.path_for(entry["key"]) / "report.json"
    doc = json.loads(report.read_text())
    doc["phase2"]["iterations_run"] += 1
    report.write_text(json.dumps(doc, indent=2))
    altered = store.load(entry["key"])
    assert altered is not None, "the store's own audit passes the altered entry"
    assert reference.check_design(
        entry, altered.config, altered.report, altered.total_cycles) is not None
    assert serve.check_store(scratch / "cache", [seed], synth)


@pytest.mark.parametrize("seed", SEEDS)
def test_hit_and_miss_shares_keep_percentiles_inside_one_class(seed):
    assert 0.6 <= plans.sweep_plan(seed, SECONDS).hit_share <= 0.8
    assert 0.01 <= plans.serve_plan(seed, SECONDS).miss_share <= 0.05


def test_reference_covers_every_drawable_op():
    ref = reference.load_reference()
    assert set(ref["compile"]) == {op.label for op in plans.COMPILE_CLASSES}
    assert [e["seed"] for e in ref["synth"]] == list(range(plans.SYNTH_POOL_SIZE))


def test_refuses_to_run_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(ROOT / "perfbench", scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "compile-cold",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
