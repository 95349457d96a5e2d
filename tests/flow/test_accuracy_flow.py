"""End-to-end tests for the accuracy objective through the flow layer.

The tentpole contract: the accuracy *request* is part of the scenario
identity, the resulting :class:`AccuracyResult` rides the cached artifact
document, warm sweeps re-execute zero functional evaluations, and the
value is bit-identical across processes.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.dse import accuracy_cache_stats, clear_accuracy_cache
from repro.errors import ConfigError
from repro.flow import ArtifactStore, ScenarioGrid, ScenarioSpec, run_sweep


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_accuracy_cache()
    yield
    clear_accuracy_cache()


class TestScenarioIdentity:
    def test_id_unchanged_when_accuracy_off(self):
        assert ScenarioSpec(workload="prae").scenario_id == "prae@u250/MP"

    def test_id_encodes_accuracy_request(self):
        spec = ScenarioSpec(workload="prae", accuracy=True)
        assert spec.scenario_id == "prae@u250/MP/acc16"
        spec = ScenarioSpec(workload="prae", accuracy=True,
                            accuracy_problems=8, accuracy_seed=3)
        assert spec.scenario_id == "prae@u250/MP/acc8s3"

    def test_cache_key_folds_in_accuracy_request(self):
        off = ScenarioSpec(workload="prae")
        on = ScenarioSpec(workload="prae", accuracy=True)
        fewer = ScenarioSpec(workload="prae", accuracy=True,
                             accuracy_problems=8)
        reseeded = ScenarioSpec(workload="prae", accuracy=True,
                                accuracy_seed=1)
        keys = {s.cache_key() for s in (off, on, fewer, reseeded)}
        assert len(keys) == 4

    def test_knobs_ignored_while_accuracy_off(self):
        # The request block is None when off, so the problem/seed knobs
        # must not perturb the key of an accuracy-free scenario.
        a = ScenarioSpec(workload="prae")
        b = ScenarioSpec(workload="prae", accuracy_problems=8,
                         accuracy_seed=3)
        assert a.cache_key() == b.cache_key()

    def test_bad_problem_count_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(workload="prae", accuracy=True, accuracy_problems=0)

    def test_grid_knobs_are_scalars(self):
        grid = ScenarioGrid(workloads=("prae",),
                            precisions=("INT8", "INT4"),
                            accuracy=True, accuracy_problems=4)
        specs = grid.expand()
        assert len(specs) == 2
        assert all(s.accuracy and s.accuracy_problems == 4 for s in specs)


class TestSweepAccuracy:
    def test_cold_then_warm_reexecutes_nothing(self, tmp_path):
        # At the default problem count the deployment-precision twin must
        # make the INT4 loss visible, and a warm re-run must serve both
        # scores from the store without executing anything.
        grid = ScenarioGrid(workloads=("prae",), precisions=("INT8", "INT4"),
                            accuracy=True)
        store = ArtifactStore(tmp_path / "cache")
        cold = run_sweep(grid, store=store)
        assert cold.n_errors == 0
        assert cold.n_compiled == 2
        by_id = {o.spec.scenario_id: o.artifacts.report.accuracy
                 for o in cold.ok_outcomes()}
        int8 = by_id["prae@u250/INT8/acc16"]
        int4 = by_id["prae@u250/INT4/acc16"]
        assert int8.value is not None and int4.value is not None
        assert int4.value < int8.value

        clear_accuracy_cache()
        warm = run_sweep(grid, store=store)
        assert warm.n_compiled == 0
        assert accuracy_cache_stats()["executed"] == 0
        warm_by_id = {o.spec.scenario_id: o.artifacts.report.accuracy
                      for o in warm.ok_outcomes()}
        assert warm_by_id == by_id

    def test_artifact_roundtrip_preserves_result(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        spec = ScenarioSpec(workload="prae", precision="INT4",
                            accuracy=True, accuracy_problems=4)
        run_sweep([spec], store=store)
        loaded = store.load(spec.cache_key())
        acc = loaded.report.accuracy
        assert acc is not None and acc.value is not None
        assert acc.n_problems == 4 and acc.workload == "prae"
        assert all(p.accuracy == acc.value
                   for p in loaded.report.pareto.points)

    def test_accuracy_off_reports_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        result = run_sweep([ScenarioSpec(workload="prae")], store=store)
        (outcome,) = result.ok_outcomes()
        assert outcome.artifacts.report.accuracy is None
        assert accuracy_cache_stats()["executed"] == 0

    def test_synth_scenarios_score_none(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        spec = ScenarioSpec(workload="synth", accuracy=True,
                            accuracy_problems=4,
                            overrides=(("seed", 101),))
        result = run_sweep([spec], store=store)
        (outcome,) = result.ok_outcomes()
        acc = outcome.artifacts.report.accuracy
        assert acc is not None and acc.value is None


class TestCrossProcessDeterminism:
    def test_value_is_bit_identical_in_a_fresh_process(self):
        prog = (
            "from repro.dse import evaluate_accuracy\n"
            "from repro.quant import MIXED_PRECISION_PRESETS\n"
            "from repro.workloads import build_workload\n"
            "r = evaluate_accuracy(build_workload('prae'), 8, 0,\n"
            "    precision=MIXED_PRECISION_PRESETS['INT4'])\n"
            "print(repr(r.value))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", prog], env=env,
            capture_output=True, text=True, check=True,
        ).stdout.strip()

        from repro.dse import evaluate_accuracy
        from repro.quant import MIXED_PRECISION_PRESETS
        from repro.workloads import build_workload

        local = evaluate_accuracy(
            build_workload("prae"), 8, 0,
            precision=MIXED_PRECISION_PRESETS["INT4"],
        )
        assert out == repr(local.value)
