"""Tests for the scenario-sweep orchestrator and its artifact caching."""

import pytest

from repro.errors import ConfigError
from repro.flow import ArtifactStore, ScenarioGrid, ScenarioSpec, run_sweep
from repro.flow.cli import main
from repro.flow.report import (
    sweep_comparison_table,
    sweep_results_table,
    sweep_summary,
)

#: The two fastest-compiling registry workloads; keeps the suite snappy.
FAST_WORKLOADS = ("prae", "mimonet")


class TestScenarioSpec:
    def test_scenario_id_encodes_non_defaults(self):
        spec = ScenarioSpec(workload="prae")
        assert spec.scenario_id == "prae@u250/MP"
        spec = ScenarioSpec(workload="prae", device="zcu104",
                            precision="INT8", loops=2, iter_max=4,
                            max_pes=1024)
        assert spec.scenario_id == "prae@zcu104/INT8/loops2/iter4/pes1024"

    def test_unknown_names_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(workload="gpt4")
        with pytest.raises(ConfigError):
            ScenarioSpec(workload="prae", device="versal")
        with pytest.raises(ConfigError):
            ScenarioSpec(workload="prae", precision="BF16")

    def test_cache_key_stable_and_distinct(self):
        a = ScenarioSpec(workload="prae")
        b = ScenarioSpec(workload="prae", device="zcu104")
        assert a.cache_key() == ScenarioSpec(workload="prae").cache_key()
        assert a.cache_key() != b.cache_key()

    def test_overrides_are_canonically_ordered(self):
        a = ScenarioSpec(workload="mimonet",
                         overrides=(("superposition", 4), ("cnn_depth", 4)))
        b = ScenarioSpec(workload="mimonet",
                         overrides=(("cnn_depth", 4), ("superposition", 4)))
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_backend_in_id_and_key(self):
        ana = ScenarioSpec(workload="prae")
        sched = ScenarioSpec(workload="prae", backend="schedule")
        assert ana.scenario_id == "prae@u250/MP"
        assert sched.scenario_id == "prae@u250/MP/schedule"
        assert ana.cache_key() != sched.cache_key()
        with pytest.raises(ConfigError):
            ScenarioSpec(workload="prae", backend="rtl")


class TestScenarioGrid:
    def test_expansion_is_workload_major_and_deterministic(self):
        grid = ScenarioGrid(workloads=("nvsa", "prae"),
                            devices=("u250", "zcu104"),
                            precisions=("MP", "INT8"))
        ids = [s.scenario_id for s in grid.expand()]
        assert len(ids) == 8
        assert ids[:4] == [
            "nvsa@u250/MP", "nvsa@u250/INT8",
            "nvsa@zcu104/MP", "nvsa@zcu104/INT8",
        ]
        assert ids == [s.scenario_id for s in grid.expand()]  # stable

    def test_include_exclude_filters(self):
        grid = ScenarioGrid(workloads=("nvsa", "prae"),
                            devices=("u250", "zcu104"),
                            include=("*@u250/*",))
        assert [s.scenario_id for s in grid.expand()] == [
            "nvsa@u250/MP", "prae@u250/MP",
        ]
        grid = ScenarioGrid(workloads=("nvsa", "prae"),
                            devices=("u250", "zcu104"),
                            exclude=("nvsa@*", "*@zcu104/*"))
        assert [s.scenario_id for s in grid.expand()] == ["prae@u250/MP"]

    def test_len_counts_filtered_scenarios(self):
        grid = ScenarioGrid(workloads=("nvsa", "prae"),
                            exclude=("prae@*",))
        assert len(grid) == 1

    def test_string_axis_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioGrid(workloads="nvsa")

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioGrid(workloads=())

    def test_unknown_workload_fails_at_expand(self):
        grid = ScenarioGrid(workloads=("nvsa", "nope"))
        with pytest.raises(ConfigError):
            grid.expand()


class TestRunSweep:
    def test_cold_then_warm_cache(self, tmp_path):
        """Second identical sweep: all hits, zero model evaluations."""
        store = ArtifactStore(tmp_path / "cache")
        grid = ScenarioGrid(workloads=FAST_WORKLOADS)
        cold = run_sweep(grid, store=store)
        assert cold.n_scenarios == len(FAST_WORKLOADS)
        assert cold.n_compiled == len(FAST_WORKLOADS)
        assert cold.n_cached == 0
        assert cold.n_errors == 0
        assert cold.total_evaluations > 0
        assert cold.store_stats.stores == len(FAST_WORKLOADS)

        warm = run_sweep(grid, store=store)
        assert warm.n_cached == len(FAST_WORKLOADS)
        assert warm.n_compiled == 0
        # The headline guarantee: a warm sweep performs zero fresh DSE
        # evaluations, visible through both counter families.
        assert warm.total_evaluations == 0
        assert warm.fresh_model_evaluations == 0
        assert warm.store_stats.hits == len(FAST_WORKLOADS)
        for c, w in zip(cold.ok_outcomes(), warm.ok_outcomes()):
            assert w.cached and not c.cached
            assert c.artifacts.config == w.artifacts.config
            assert c.artifacts.latency_ms == w.artifacts.latency_ms
            assert c.artifacts.report.pareto == w.artifacts.report.pareto

    def test_hit_digest_comes_from_the_load(self, tmp_path, monkeypatch):
        """A hit records the digest of the bytes its load audited; it
        never re-reads the entry through ``entry_digest``."""
        store = ArtifactStore(tmp_path / "cache")
        grid = ScenarioGrid(workloads=("synth:0-2",))
        cold = run_sweep(grid, store=store)
        digest = ArtifactStore.entry_digest
        calls = []
        monkeypatch.setattr(ArtifactStore, "entry_digest",
                            lambda self, key: calls.append(key) or digest(self, key))
        warm = run_sweep(grid, store=store)
        assert calls == [] and warm.n_cached == 3
        for c, w in zip(cold.outcomes, warm.outcomes):
            assert w.artifact_digest == c.artifact_digest == digest(store, w.key)

    def test_miss_digest_comes_from_the_store(self, tmp_path, monkeypatch):
        """A miss records the digest ``store()`` computed from the bytes
        it wrote; it never reads the entry back through ``entry_digest``."""
        store = ArtifactStore(tmp_path / "cache")
        digest = ArtifactStore.entry_digest
        calls = []
        monkeypatch.setattr(ArtifactStore, "entry_digest",
                            lambda self, key: calls.append(key) or digest(self, key))
        cold = run_sweep(ScenarioGrid(workloads=("synth:0-2",)), store=store)
        assert calls == [] and cold.n_compiled == 3
        for outcome in cold.outcomes:
            assert outcome.artifact_digest == digest(store, outcome.key)

    def test_overlapping_grid_compiles_only_the_delta(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        run_sweep(ScenarioGrid(workloads=("prae",)), store=store)
        grown = run_sweep(ScenarioGrid(workloads=FAST_WORKLOADS), store=store)
        assert grown.n_cached == 1      # prae came from the store
        assert grown.n_compiled == 1    # only mimonet was fresh

    def test_sweep_without_store_always_compiles(self):
        grid = ScenarioGrid(workloads=("prae",))
        run_sweep(grid)                # first run, nothing persisted
        result = run_sweep(grid)       # still compiles: no store attached
        assert result.n_compiled == 1
        assert result.store_stats is None

    def test_failure_isolation(self, tmp_path):
        """A broken scenario records its error; the rest still compile."""
        # nvsa has no 'superposition' config field, so this scenario
        # fails at cache-key/workload construction time.
        specs = [
            ScenarioSpec(workload="prae"),
            ScenarioSpec(workload="nvsa",
                         overrides=(("superposition", 4),)),
            ScenarioSpec(workload="mimonet"),
        ]
        result = run_sweep(specs, store=ArtifactStore(tmp_path / "c"))
        assert result.n_scenarios == 3
        assert result.n_errors == 1
        assert result.n_compiled == 2
        bad = result.outcomes[1]
        assert not bad.ok
        assert "superposition" in bad.error
        assert bad.artifacts is None
        # The failing scenario contributes to accounting but not caching.
        assert result.outcomes[0].ok and result.outcomes[2].ok

    def test_progress_callback_sees_every_outcome(self):
        seen = []
        run_sweep([ScenarioSpec(workload="prae")], progress=seen.append)
        assert [o.scenario_id for o in seen] == ["prae@u250/MP"]

    def test_shared_jobs_budget_matches_serial(self, tmp_path):
        grid = ScenarioGrid(workloads=("prae",))
        serial = run_sweep(grid)
        pooled = run_sweep(grid, jobs=2)
        a, b = serial.outcomes[0], pooled.outcomes[0]
        assert a.artifacts.config == b.artifacts.config
        assert a.artifacts.latency_ms == b.artifacts.latency_ms


class TestSweepReports:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        store = ArtifactStore(tmp_path_factory.mktemp("report-cache"))
        grid = ScenarioGrid(workloads=FAST_WORKLOADS,
                            devices=("u250", "zcu104"))
        return run_sweep(grid, store=store)

    def test_results_table_lists_every_scenario(self, result):
        text = sweep_results_table(result)
        for outcome in result.outcomes:
            assert outcome.scenario_id in text
        assert "fresh" in text
        assert "vs best" in text

    def test_comparison_table_has_one_row_per_workload(self, result):
        text = sweep_comparison_table(result)
        for workload in FAST_WORKLOADS:
            assert workload in text
        assert "Best latency" in text

    def test_summary_carries_cache_counters(self, result):
        text = sweep_summary(result)
        assert "4 scenarios" in text
        assert "Artifact cache:" in text
        assert "Fresh DSE evaluations" in text

    def test_error_rows_are_reported(self):
        result = run_sweep([
            ScenarioSpec(workload="nvsa", overrides=(("nope", 1),)),
        ])
        text = sweep_results_table(result)
        assert "ERROR" in text
        assert "Scenario errors:" in text

    def test_backend_axis_sweeps_and_never_collides(self, tmp_path):
        """One grid, both backends: distinct scenarios, distinct cache
        entries, each report stamped with its producing backend."""
        store = ArtifactStore(tmp_path / "cache")
        grid = ScenarioGrid(
            workloads=("prae",), max_pes=(256,),
            backends=("analytic", "schedule"),
        )
        result = run_sweep(grid, store=store)
        assert result.n_errors == 0
        assert result.n_scenarios == 2
        assert len(store) == 2
        by_backend = {o.spec.backend: o for o in result.outcomes}
        assert by_backend["analytic"].artifacts.report.backend.name == "analytic"
        assert by_backend["schedule"].artifacts.report.backend.name == "schedule"
        text = sweep_results_table(result)
        assert "Backend" in text
        assert "schedule v1" in text
        assert "Evaluation backends:" in sweep_summary(result)
        # A warm re-run is all hits for both backends.
        warm = run_sweep(grid, store=store)
        assert warm.n_cached == 2


class TestCliSweep:
    def test_sweep_smoke_and_warm_rerun(self, tmp_path, capsys):
        argv = ["sweep", "--workloads", "prae", "--devices", "u250",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Sweep results" in out
        assert "0 cache hits" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 cache hits" in out
        assert "Fresh DSE evaluations: 0" in out

    def test_sweep_no_cache_flag(self, capsys):
        assert main(["sweep", "--workloads", "prae", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Artifact cache:" not in out

    def test_sweep_filters_and_empty_grid(self, capsys):
        rc = main(["sweep", "--workloads", "prae",
                   "--include", "nothing-matches-*", "--no-cache"])
        assert rc == 1
        assert "empty" in capsys.readouterr().err

    def test_sweep_rejects_unknown_device(self, capsys):
        rc = main(["sweep", "--workloads", "prae", "--devices", "versal",
                   "--no-cache"])
        assert rc == 1
        assert "unknown device" in capsys.readouterr().err

    def test_sweep_rejects_non_integer_loops(self, capsys):
        rc = main(["sweep", "--workloads", "prae", "--loops", "1,x",
                   "--no-cache"])
        assert rc == 1
        assert "--loops" in capsys.readouterr().err

    def test_sweep_multi_precision_grid(self, tmp_path, capsys):
        assert main([
            "sweep", "--workloads", "prae", "--precisions", "MP,INT8",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "prae@u250/MP" in out
        assert "prae@u250/INT8" in out
        assert "Cross-scenario comparison" in out
