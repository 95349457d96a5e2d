"""Tests for seed-range axes, the JSONL run ledger, and resumable sweeps."""

import json

import pytest
from sweep_worker import SYNTH_OVR, synth_grid

from repro.errors import ConfigError
from repro.flow import (
    ArtifactStore,
    LedgerRecord,
    RunLedger,
    ScenarioGrid,
    ScenarioSpec,
    expand_workload_axis,
    run_sweep,
)
from repro.flow.cli import main


class TestSeedRangeAxis:
    def test_plain_names_pass_through(self):
        assert expand_workload_axis("prae") == [("prae", ())]

    def test_single_seed_and_range(self):
        assert expand_workload_axis("synth:7") == [("synth", (("seed", 7),))]
        assert expand_workload_axis("SYNTH:2-4") == [
            ("synth", (("seed", 2),)),
            ("synth", (("seed", 3),)),
            ("synth", (("seed", 4),)),
        ]

    def test_works_for_any_seeded_workload(self):
        # Every registry workload carries a seed field, so ranges work
        # on all of them, not just synth.
        assert expand_workload_axis("scalable_nsai:0-1") == [
            ("scalable_nsai", (("seed", 0),)),
            ("scalable_nsai", (("seed", 1),)),
        ]
        assert expand_workload_axis("prae:3") == [("prae", (("seed", 3),))]

    @pytest.mark.parametrize("bad", [
        "synth:", "synth:x", "synth:3-1", "synth:1-2-3", "synth:0-99999999",
        "nope:0-3",
    ])
    def test_invalid_axes_rejected(self, bad):
        with pytest.raises(ConfigError):
            expand_workload_axis(bad)

    def test_grid_expands_ranges_with_seed_overrides(self):
        grid = synth_grid("0-2")
        specs = grid.expand()
        assert len(specs) == 3
        assert [dict(s.overrides)["seed"] for s in specs] == [0, 1, 2]
        # Seeds join the scenario id, so ids stay unique and filterable.
        assert len({s.scenario_id for s in specs}) == 3
        assert all("seed=" in s.scenario_id for s in specs)

    def test_seed_axis_overrides_grid_seed(self):
        grid = ScenarioGrid(workloads=("synth:5",), max_pes=(256,),
                            overrides=(("seed", 0), ("n_ops", 8)))
        (spec,) = grid.expand()
        assert dict(spec.overrides) == {"seed": 5, "n_ops": 8}

    def test_distinct_seeds_distinct_cache_keys(self):
        keys = {s.cache_key() for s in synth_grid("0-9").expand()}
        assert len(keys) == 10


class TestRunLedger:
    def test_append_and_read_roundtrip(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        rec = LedgerRecord(
            scenario_id="synth@u250/MP/seed=1", key="abc", status="ok",
            cached=False, resumed=False, latency_ms=1.25, evaluations=9,
            elapsed_s=0.1,
        )
        ledger.append(rec)
        assert ledger.records() == [rec]
        assert ledger.completed_keys() == {"abc"}

    def test_truncated_last_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(path)
        ledger.append(LedgerRecord(
            scenario_id="a", key="k1", status="ok", cached=False,
            resumed=False, latency_ms=1.0, evaluations=1, elapsed_s=0.1,
        ))
        with open(path, "a") as fh:
            fh.write('{"scenario_id": "b", "key": "k2", "stat')  # crash
        assert [r.key for r in ledger.records()] == ["k1"]
        assert ledger.completed_keys() == {"k1"}

    def test_non_object_lines_skipped(self, tmp_path):
        """Valid-JSON-but-not-a-record lines (manual edits) are skipped."""
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(path)
        ledger.append(LedgerRecord(
            scenario_id="a", key="k1", status="ok", cached=False,
            resumed=False, latency_ms=1.0, evaluations=1, elapsed_s=0.1,
        ))
        with open(path, "a") as fh:
            fh.write("null\n42\n[]\nnot json at all\n")
        assert [r.key for r in ledger.records()] == ["k1"]
        assert ledger.completed_keys() == {"k1"}

    def test_unknown_fields_ignored(self, tmp_path):
        path = tmp_path / "run.jsonl"
        doc = dict(scenario_id="a", key="k", status="ok", cached=False,
                   resumed=False, latency_ms=None, evaluations=0,
                   elapsed_s=0.0, future_field="ignored")
        path.write_text(json.dumps(doc) + "\n")
        assert RunLedger(path).completed_keys() == {"k"}

    def test_error_records_not_completed(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        ledger.append(LedgerRecord(
            scenario_id="a", key="k", status="error", cached=False,
            resumed=False, latency_ms=None, evaluations=0, elapsed_s=0.1,
            error="boom", traceback="Traceback ...",
        ))
        assert ledger.completed_keys() == set()
        assert len(ledger) == 1


class TestLedgerSchemaTolerance:
    """Valid-JSON-but-schema-incomplete rows must be skipped, not crash.

    A crash can land between ``write`` and ``fsync`` in ways that leave
    a *parseable* JSON object missing fields (or a manual edit can
    forge one); resume must treat such rows exactly like a truncated
    tail — skip them — instead of raising ``KeyError``/``TypeError``.
    """

    GOOD = dict(scenario_id="a", key="k1", status="ok", cached=False,
                resumed=False, latency_ms=1.0, evaluations=1,
                elapsed_s=0.1)

    def _ledger_with_tail(self, tmp_path, tail_doc):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps(self.GOOD) + "\n"
                        + json.dumps(tail_doc) + "\n")
        return RunLedger(path)

    @pytest.mark.parametrize("missing", [
        "scenario_id", "key", "status", "cached", "resumed",
        "evaluations", "elapsed_s",
    ])
    def test_tail_missing_required_field_skipped(self, tmp_path, missing):
        doc = dict(self.GOOD, key="k2")
        del doc[missing]
        ledger = self._ledger_with_tail(tmp_path, doc)
        assert [r.key for r in ledger.records()] == ["k1"]
        assert ledger.completed_keys() == {"k1"}

    @pytest.mark.parametrize("field,bad", [
        ("cached", "yes"),          # string where bool expected
        ("resumed", 1),             # int is not bool
        ("evaluations", "many"),
        ("elapsed_s", "fast"),
        ("scenario_id", None),
        ("key", 42),
        ("status", "finished"),     # unknown status value
        ("latency_ms", "1.0ms"),    # non-numeric, non-null
    ])
    def test_tail_with_forged_field_skipped(self, tmp_path, field, bad):
        doc = dict(self.GOOD, key="k2")
        doc[field] = bad
        ledger = self._ledger_with_tail(tmp_path, doc)
        assert [r.key for r in ledger.records()] == ["k1"]
        assert ledger.completed_keys() == {"k1"}

    def test_incomplete_row_mid_file_skipped_rest_read(self, tmp_path):
        path = tmp_path / "run.jsonl"
        rows = [
            dict(self.GOOD),
            {"scenario_id": "b", "key": "k2"},              # incomplete
            dict(self.GOOD, scenario_id="c", key="k3"),
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        ledger = RunLedger(path)
        assert [r.key for r in ledger.records()] == ["k1", "k3"]
        assert ledger.completed_keys() == {"k1", "k3"}

    def test_forged_claim_rows_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        rows = [
            dict(self.GOOD),
            {"kind": "claim", "scenario_id": "b"},          # no key/worker/ts
            {"kind": "claim", "scenario_id": "b", "key": "k2",
             "worker": "w1", "ts": "yesterday"},            # non-numeric ts
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        ledger = RunLedger(path)
        assert ledger.claims() == []
        assert ledger.completed_keys() == {"k1"}

    def test_resume_survives_forged_tail(self, tmp_path):
        """End to end: a forged tail row must not crash ``--resume``."""
        ledger = RunLedger(tmp_path / "run.jsonl")
        store = ArtifactStore(tmp_path / "cache")
        grid = synth_grid("0-2")
        run_sweep(grid, store=store, ledger=ledger)
        with open(ledger.path, "a") as fh:
            fh.write(json.dumps({"scenario_id": "z", "status": "ok"}) + "\n")
        resumed = run_sweep(grid, store=store, ledger=ledger, resume=True)
        assert resumed.n_resumed == 3
        assert resumed.total_evaluations == 0


class TestStreamingSweep:
    def test_every_outcome_streams_to_the_ledger(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        store = ArtifactStore(tmp_path / "cache")
        result = run_sweep(synth_grid("0-2"), store=store, ledger=ledger)
        assert result.n_compiled == 3
        recs = ledger.records()
        assert [r.scenario_id for r in recs] == [
            o.scenario_id for o in result.outcomes
        ]
        assert all(r.status == "ok" and r.latency_ms > 0 for r in recs)

    def test_failure_records_exception_and_traceback(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        specs = [
            ScenarioSpec(workload="synth", max_pes=256, overrides=SYNTH_OVR),
            ScenarioSpec(workload="nvsa", overrides=(("nope", 1),)),
        ]
        result = run_sweep(specs, ledger=ledger)
        assert result.n_errors == 1
        bad_outcome = result.outcomes[1]
        assert bad_outcome.traceback is not None
        assert "Traceback" in bad_outcome.traceback
        bad = ledger.records()[1]
        assert bad.status == "error"
        assert "nope" in bad.error
        # The full traceback survives in the ledger — debuggable after
        # the sweep process is gone.
        assert "Traceback" in bad.traceback

    def test_ledger_survives_mid_sweep_interrupt(self, tmp_path):
        """Kill the sweep after the first scenario: its row is on disk."""
        ledger = RunLedger(tmp_path / "run.jsonl")
        store = ArtifactStore(tmp_path / "cache")

        def die_after_first(outcome):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(synth_grid("0-4"), store=store, ledger=ledger,
                      progress=die_after_first)
        assert len(ledger.records()) == 1
        assert len(ledger.completed_keys()) == 1


class TestResume:
    def test_resume_skips_completed_and_reprices_nothing(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        store = ArtifactStore(tmp_path / "cache")
        grid = synth_grid("0-4")
        cold = run_sweep(grid, store=store, ledger=ledger)
        assert cold.n_compiled == 5

        resumed = run_sweep(grid, store=store, ledger=ledger, resume=True)
        assert resumed.n_resumed == 5
        assert resumed.n_compiled == 0
        # The resumability contract: zero re-priced scenarios.
        assert resumed.total_evaluations == 0
        assert "phase1.sweep" not in resumed.stage_timings
        for c, r in zip(cold.outcomes, resumed.outcomes):
            assert r.resumed and r.cached
            assert c.artifacts.latency_ms == r.artifacts.latency_ms

    def test_interrupted_sweep_resumes_where_it_died(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        store = ArtifactStore(tmp_path / "cache")
        grid = synth_grid("0-4")
        calls = {"n": 0}

        def die_after_two(outcome):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(grid, store=store, ledger=ledger,
                      progress=die_after_two)

        result = run_sweep(grid, store=store, ledger=ledger, resume=True)
        assert result.n_scenarios == 5
        assert result.n_resumed == 2          # the two that finished
        assert result.n_compiled == 3         # only the remainder priced
        assert result.n_errors == 0

    def test_resume_retries_errored_scenarios(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        store = ArtifactStore(tmp_path / "cache")
        bad = ScenarioSpec(workload="nvsa", overrides=(("nope", 1),))
        run_sweep([bad], store=store, ledger=ledger)
        result = run_sweep([bad], store=store, ledger=ledger, resume=True)
        # Still attempted (and still failing) — errors are never skipped.
        assert result.n_errors == 1
        assert result.n_resumed == 0

    def test_resume_recompiles_when_store_entry_vanished(self, tmp_path):
        import shutil
        ledger = RunLedger(tmp_path / "run.jsonl")
        store = ArtifactStore(tmp_path / "cache")
        grid = synth_grid("0")
        run_sweep(grid, store=store, ledger=ledger)
        shutil.rmtree(store.root)             # cache pruned behind our back
        result = run_sweep(grid, store=store, ledger=ledger, resume=True)
        assert result.n_compiled == 1         # ledger alone is not enough
        assert result.n_resumed == 0

    def test_vanished_artifact_restates_resumed_status(self, tmp_path):
        """Regression: a recompiled scenario must not be tallied as resumed.

        The ledger says ``ok`` for the key, so the resume check flags it —
        but the artifact is gone and the scenario is recompiled from
        scratch. Its outcome, the summary tally, and the fresh ledger row
        must all report a compilation, not a ledger skip.
        """
        import shutil
        from repro.flow.report import sweep_summary
        ledger = RunLedger(tmp_path / "run.jsonl")
        store = ArtifactStore(tmp_path / "cache")
        grid = synth_grid("0")
        run_sweep(grid, store=store, ledger=ledger)
        shutil.rmtree(store.root)
        result = run_sweep(grid, store=store, ledger=ledger, resume=True)
        (outcome,) = result.outcomes
        assert outcome.ok and not outcome.cached and not outcome.resumed
        assert outcome.evaluations > 0        # really re-priced
        summary = sweep_summary(result)
        assert "1 compiled, 0 cache hits" in summary
        assert "resumed" not in summary
        fresh_row = ledger.records()[-1]
        assert fresh_row.status == "ok"
        assert not fresh_row.cached and not fresh_row.resumed

    def test_resume_requires_ledger_and_store(self, tmp_path):
        grid = synth_grid("0")
        with pytest.raises(ConfigError):
            run_sweep(grid, store=ArtifactStore(tmp_path / "c"), resume=True)
        with pytest.raises(ConfigError):
            run_sweep(grid, ledger=tmp_path / "l.jsonl", resume=True)


class TestMultiFidelityResume:
    """Ledger/resume interaction for Phase I's multi-fidelity pruning."""

    def _mf_grid(self, seeds: str) -> ScenarioGrid:
        # Schedule backend so the analytic screen actually prunes (under
        # the analytic backend the screen is final and nothing is priced
        # after it).
        return synth_grid(seeds, backends=("schedule",))

    @staticmethod
    def _mf_counters(stage_timings) -> dict:
        return {
            name: stat.items for name, stat in stage_timings.items()
            if name.startswith("phase1.mf_")
        }

    def test_interrupted_mf_sweep_resumes_with_identical_counters(
        self, tmp_path,
    ):
        from repro.dse.timing import stage_timings_since, timings_snapshot
        grid = self._mf_grid("0-4")

        # Cold reference run: the pruning counters the whole grid costs.
        cold_store = ArtifactStore(tmp_path / "cold-cache")
        cold = run_sweep(grid, store=cold_store,
                         ledger=RunLedger(tmp_path / "cold.jsonl"))
        assert cold.n_compiled == 5
        cold_counters = self._mf_counters(cold.stage_timings)
        assert cold_counters["phase1.mf_pruned"] > 0

        # Same grid, killed after two scenarios.
        ledger = RunLedger(tmp_path / "run.jsonl")
        store = ArtifactStore(tmp_path / "cache")
        calls = {"n": 0}

        def die_after_two(outcome):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt

        snapshot = timings_snapshot()
        with pytest.raises(KeyboardInterrupt):
            run_sweep(grid, store=store, ledger=ledger,
                      progress=die_after_two)
        partial_counters = self._mf_counters(stage_timings_since(snapshot))

        # Resume: zero re-priced scenarios, and the remainder's pruning
        # counters close the gap to the cold run exactly — no candidate
        # is ever screened or priced twice across the interrupt.
        resumed = run_sweep(grid, store=store, ledger=ledger, resume=True)
        assert resumed.n_resumed == 2
        assert resumed.n_compiled == 3
        assert resumed.n_errors == 0
        resumed_counters = self._mf_counters(resumed.stage_timings)
        assert {
            name: partial_counters.get(name, 0) + resumed_counters.get(name, 0)
            for name in cold_counters
        } == cold_counters

        # A second resume re-prices nothing at all: every mf counter is
        # zero because no scenario even reaches the screen.
        warm = run_sweep(grid, store=store, ledger=ledger, resume=True)
        assert warm.n_resumed == 5
        assert warm.total_evaluations == 0
        assert "phase1.sweep" not in warm.stage_timings
        assert self._mf_counters(warm.stage_timings) == {}


@pytest.mark.slow
class TestLargeSynthSweep:
    """The scenario-scale acceptance contract, run in the CI deep job."""

    def test_100_plus_scenarios_both_backends_resumable(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        store = ArtifactStore(tmp_path / "cache")
        grid = synth_grid("0-54", backends=("analytic", "schedule"))
        specs = grid.expand()
        assert len(specs) == 110              # 55 seeds x 2 backends

        cold = run_sweep(grid, store=store, ledger=ledger)
        assert cold.n_errors == 0
        assert cold.n_compiled == 110
        assert len(ledger.completed_keys()) == 110

        # Interrupt-resumability at scale: a re-run with --resume
        # re-prices zero completed scenarios.
        warm = run_sweep(grid, store=store, ledger=ledger, resume=True)
        assert warm.n_resumed == 110
        assert warm.total_evaluations == 0
        assert "phase1.sweep" not in warm.stage_timings


class TestCliStreamResume:
    def test_cli_synth_axis_with_resume(self, tmp_path, capsys):
        argv = ["sweep", "--workloads", "synth:0-2",
                "--cache-dir", str(tmp_path / "cache"), "--resume"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "synth@u250/MP" in out
        assert "Run ledger:" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        assert "Fresh DSE evaluations: 0" in out

    def test_cli_resume_rejects_no_cache(self, capsys):
        rc = main(["sweep", "--workloads", "synth:0", "--no-cache",
                   "--resume"])
        assert rc == 1
        assert "--resume" in capsys.readouterr().err

    def test_cli_explicit_ledger_path(self, tmp_path, capsys):
        ledger = tmp_path / "custom.jsonl"
        assert main(["sweep", "--workloads", "prae",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--ledger", str(ledger)]) == 0
        assert ledger.is_file()
        assert "custom.jsonl" in capsys.readouterr().out

    def test_cli_bad_seed_axis_errors_cleanly(self, capsys):
        rc = main(["sweep", "--workloads", "synth:9-1", "--no-cache"])
        assert rc == 1
        assert "seed-range" in capsys.readouterr().err
