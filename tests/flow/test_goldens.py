"""Golden-report regression tests.

Each checked-in fixture under ``tests/goldens/`` is the exact
``report.json`` document of one compiled scenario — one registry
workload and two synth seeds, each priced by both evaluation backends.
Recompiling must reproduce the document *exactly*: every cycle count,
frontier point, resource percentage, and latency. A mismatch means the
cost models or the report schema changed; if the change is intentional,
regenerate with

    PYTHONPATH=src python tools/regen_goldens.py

and commit the reviewable fixture diff (see the tool's docstring).
"""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

# The fixture set and the compile recipe live in the regen tool — one
# source of truth, so the test and the tool cannot disagree.
_spec = importlib.util.spec_from_file_location(
    "regen_goldens", REPO_ROOT / "tools" / "regen_goldens.py"
)
regen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_goldens)


@pytest.mark.parametrize(
    "name,workload,overrides,backend",
    regen_goldens.GOLDENS,
    ids=[g[0] for g in regen_goldens.GOLDENS],
)
def test_report_matches_golden(name, workload, overrides, backend):
    path = regen_goldens.GOLDEN_DIR / f"{name}.json"
    assert path.is_file(), (
        f"missing golden {path}; run PYTHONPATH=src python "
        "tools/regen_goldens.py"
    )
    golden = json.loads(path.read_text())
    fresh = regen_goldens.golden_doc(workload, overrides, backend)
    # Compare as parsed JSON so formatting is irrelevant but every value
    # is exact — including frontier ordering and float latencies.
    assert fresh == golden, (
        f"{name}: compiled report diverged from tests/goldens/{name}.json "
        "(intentional model change? regenerate via tools/regen_goldens.py)"
    )


def test_goldens_cover_both_backends_and_synth_seeds():
    """The fixture set keeps the shape the regression contract promises."""
    backends = {g[3] for g in regen_goldens.GOLDENS}
    assert backends == {"analytic", "schedule"}
    synth_seeds = {
        g[2]["seed"] for g in regen_goldens.GOLDENS if g[1] == "synth"
    }
    assert len(synth_seeds) >= 2
    assert any(g[1] != "synth" for g in regen_goldens.GOLDENS)
