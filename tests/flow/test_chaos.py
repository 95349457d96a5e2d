"""Fault-tolerance tests: retries, timeouts, recovery.

Every test here runs real failure modes — injected fsync/short-write
faults, corrupted artifact entries, lost heartbeats, wall-clock
timeouts — through the production code paths and asserts the sweep's
exactly-once accounting survives them. The last one runs them all at
once: four worker processes share one ledger and store under seeded
fault schedules, and the merge must equal a fault-free serial sweep.
"""

import json
import signal
import threading

import pytest
import sweep_worker
from sweep_worker import synth_grid

from repro.errors import ConfigError, LedgerWriteError
from repro.faults import RetryPolicy, injected_faults, retry_count
from repro.flow import (
    ArtifactStore,
    LedgerRecord,
    RunLedger,
    merge_ledgers,
    run_sweep,
)

#: Zero-sleep policy so retry-path tests don't wait out real backoffs.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.0, max_delay_s=0.0)


def _record(scenario_id="s@u250/MP", key="k" * 32) -> LedgerRecord:
    return LedgerRecord(
        scenario_id=scenario_id, key=key, status="ok", cached=False,
        resumed=False, latency_ms=1.0, evaluations=10, elapsed_s=0.1,
    )


class TestLedgerWriteFaults:
    def test_fsync_fault_is_absorbed_by_retry(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl", retry=FAST_RETRY)
        before = retry_count()
        with injected_faults("ledger.append.fsync:raise@1"):
            ledger.append(_record())
        assert retry_count() - before == 1
        (row,) = ledger.records()
        assert row.status == "ok"

    def test_fsync_exhaustion_never_double_appends(self, tmp_path):
        """Exhausted fsync retries must surface as LedgerWriteError with
        exactly one row on disk — the row *is* durable-in-doubt, but a
        second copy would read as a double-priced scenario."""
        ledger = RunLedger(tmp_path / "run.jsonl", retry=FAST_RETRY)
        with injected_faults("ledger.append.fsync:raisex*"):
            with pytest.raises(LedgerWriteError):
                ledger.append(_record())
        assert len(ledger.path.read_text().splitlines()) == 1
        (row,) = ledger.records()          # the line itself is complete
        assert row.status == "ok"

    def test_short_write_is_terminated_and_skipped(self, tmp_path):
        """ENOSPC half-writes raise cleanly; readers skip the stub."""
        ledger = RunLedger(tmp_path / "run.jsonl")
        with injected_faults("ledger.append.write:short@1"):
            with pytest.raises(LedgerWriteError, match="short append"):
                ledger.append(_record(scenario_id="lost@u250/MP"))
            ledger.append(_record(scenario_id="kept@u250/MP"))
        lines = ledger.path.read_text().splitlines()
        assert len(lines) == 2             # junk stub + good row
        (row,) = ledger.records()
        assert row.scenario_id == "kept@u250/MP"

    def test_write_fault_retried_without_partial_rows(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl", retry=FAST_RETRY)
        with injected_faults("ledger.append.write:raise@1"):
            ledger.append(_record())
        assert len(ledger.records()) == 1


class TestSweepFaultTolerance:
    def test_fsync_fault_leaves_report_byte_identical(self, tmp_path):
        grid = synth_grid("0-2")
        clean_ledger = RunLedger(tmp_path / "clean.jsonl")
        run_sweep(grid, store=ArtifactStore(tmp_path / "clean-store"),
                  ledger=clean_ledger)
        faulty_ledger = tmp_path / "faulty.jsonl"
        with injected_faults("ledger.append.fsync:raise@2"):
            result = run_sweep(
                grid, store=ArtifactStore(tmp_path / "faulty-store"),
                ledger=faulty_ledger,
            )
        assert result.n_errors == 0
        assert result.io_retries >= 1
        assert result.fault_fires == {"ledger.append.fsync:raise": 1}
        golden = merge_ledgers([clean_ledger])
        merged = merge_ledgers([RunLedger(faulty_ledger)])
        assert merged.report_text() == golden.report_text()
        assert merged.canonical_ledger_text() == golden.canonical_ledger_text()

    def test_timeout_recorded_then_retried_on_resume(self, tmp_path):
        """A scenario over its wall-clock budget becomes a retryable
        error row; ``resume=True`` re-prices it (satellite: resume
        retries timeout-errored ledger rows)."""
        grid = synth_grid("0")
        store = ArtifactStore(tmp_path / "cache")
        ledger = RunLedger(tmp_path / "run.jsonl")
        with injected_faults("sweep.compile:delay=5@1"):
            result = run_sweep(grid, store=store, ledger=ledger,
                               scenario_timeout_s=0.2)
        (outcome,) = result.outcomes
        assert outcome.timed_out and not outcome.ok
        assert "ScenarioTimeoutError" in outcome.error
        assert result.n_timeouts == 1
        (row,) = ledger.records()
        assert row.status == "error"
        assert ledger.completed_keys() == set()

        resumed = run_sweep(grid, store=store, ledger=ledger, resume=True,
                            scenario_timeout_s=30.0)
        assert resumed.n_errors == 0 and resumed.n_compiled == 1
        assert ledger.completed_keys() == {outcome.key}

    def test_timeout_off_the_main_thread_fails_before_pricing(self, tmp_path):
        """SIGALRM handlers install only on the main thread: a deadline
        asked for on another thread raises instead of pricing unguarded."""
        ledger = RunLedger(tmp_path / "run.jsonl")
        raised: list[Exception] = []

        def sweep() -> None:
            try:
                run_sweep(synth_grid("0"), ledger=ledger,
                          scenario_timeout_s=5.0)
            except Exception as exc:  # noqa: BLE001 - asserted below
                raised.append(exc)

        thread = threading.Thread(target=sweep, name="pricer")
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        (exc,) = raised
        assert isinstance(exc, ConfigError) and "main thread" in str(exc)
        assert not ledger.path.exists()

    @pytest.mark.parametrize("seconds", [0, -5.0, float("nan"), float("inf")])
    def test_unusable_timeout_budget_is_rejected(self, tmp_path, seconds):
        ledger = RunLedger(tmp_path / "run.jsonl")
        with pytest.raises(ConfigError, match="positive"):
            run_sweep(synth_grid("0"), ledger=ledger,
                      scenario_timeout_s=seconds)
        assert not ledger.path.exists()

    def test_timeout_without_sigalrm_is_rejected(self, tmp_path, monkeypatch):
        monkeypatch.delattr(signal, "SIGALRM")
        ledger = RunLedger(tmp_path / "run.jsonl")
        with pytest.raises(ConfigError, match="SIGALRM"):
            run_sweep(synth_grid("0"), ledger=ledger, scenario_timeout_s=5.0)
        assert not ledger.path.exists()

    def test_heartbeat_failure_stops_claiming_new_work(self, tmp_path):
        """A worker whose lease heartbeat dies must defer its remaining
        claim-protocol scenarios, not keep claiming work it cannot
        promise to hold (satellite: heartbeat failures are surfaced)."""
        grid = synth_grid("0-1")
        ledger = RunLedger(tmp_path / "run.jsonl")
        with injected_faults(
            "ledger.heartbeat:raisex*;sweep.compile:delay=1.2x*"
        ):
            result = run_sweep(
                grid, store=ArtifactStore(tmp_path / "cache"),
                ledger=ledger, worker="w1", lease_timeout_s=2.0,
            )
        assert result.heartbeat_lost
        first, second = result.outcomes
        assert first.ok                       # in-flight scenario finishes
        assert second.deferred and second.holder is None
        assert result.n_deferred == 1
        # Deferred scenarios leave no result row — another worker owns
        # recording them.
        assert [r.scenario_id for r in ledger.records()] \
            == [first.scenario_id]

    def test_corrupt_cache_entry_is_quarantined_and_recovered(self, tmp_path):
        grid = synth_grid("0")
        first = run_sweep(grid, store=ArtifactStore(tmp_path / "cache"))
        (priced,) = first.outcomes
        digest_before = ArtifactStore(tmp_path / "cache").entry_digest(
            priced.key
        )
        store = ArtifactStore(tmp_path / "cache")
        # Read hits per load: meta(1), trace(2) — corrupt the trace read
        # so the fingerprint audit trips deterministically.
        with injected_faults("artifacts.load.read:corrupt@2"):
            result = run_sweep(grid, store=store)
        (outcome,) = result.outcomes
        assert outcome.ok and outcome.recovered and not outcome.cached
        assert result.n_recovered == 1
        assert store.corrupt == 1 and store.quarantined == 1
        assert store.quarantined_keys() == [priced.key]
        # Deterministic recompile: the recovered entry is byte-identical,
        # so distributed merges cannot see a digest conflict.
        assert store.entry_digest(priced.key) == digest_before


#: The chaos wave's per-worker fault schedules: an fsync failure the
#: retry policy absorbs, and a stall at worker 3's first compile that
#: blows its scenario timeout (``!once``: one firing across every
#: process sharing the fault state).
WAVE_FAULTS = ("", "ledger.append.fsync:raise@2",
               "sweep.compile:delay=2.5@1!once", "")
#: The cleanup pass corrupts its 2nd artifact read (the first load's
#: trace), so that entry fails its audit and is quarantined.
CLEANUP_FAULTS = "artifacts.load.read:corrupt@2"


def test_four_workers_under_fault_schedules_merge_matches_serial(tmp_path):
    """Four processes share one ledger + store under fault schedules and
    a resume pass cleans up: every fault fired and was survived, and
    the merge is byte-identical to a fault-free serial sweep."""
    seeds = "0-79"
    golden_ledger = RunLedger(tmp_path / "golden" / "ledger.jsonl")
    run_sweep(synth_grid(seeds),
              store=ArtifactStore(tmp_path / "golden" / "store"),
              ledger=golden_ledger)
    golden = merge_ledgers([golden_ledger])

    shared, state = tmp_path / "shared", tmp_path / "fault-state"
    procs = [
        sweep_worker.spawn(
            {"cache": str(shared), "seeds": seeds, "worker": f"chaos-w{i}",
             "scenario_timeout": 0.8 if "sweep.compile" in faults else None},
            faults=faults, fault_state=state,
        )
        for i, faults in enumerate(WAVE_FAULTS, start=1)
    ]
    outs = [p.communicate(timeout=600) for p in procs]
    # The cleanup pass re-prices the timed-out scenario's error row.
    cleanup = sweep_worker.spawn(
        {"cache": str(shared), "seeds": seeds, "resume": True},
        faults=CLEANUP_FAULTS, fault_state=state,
    )
    outs.append(cleanup.communicate(timeout=600))
    for proc, (_, err) in zip([*procs, cleanup], outs):
        assert proc.returncode == 0, err
    counters = [json.loads(out) for out, _ in outs]

    fired = {line.rsplit(":", 1)[0] for line in
             (state / "fires.log").read_text().splitlines()}
    assert fired == {"ledger.append.fsync:raise", "sweep.compile:delay",
                     "artifacts.load.read:corrupt"}
    # The stall became a retryable timeout error row, and the fsync
    # failure was retried.
    assert sum(c["n_timeouts"] for c in counters) >= 1
    assert sum(c["n_errors"] for c in counters) >= 1
    assert any(c["io_retries"] >= 1 for c in counters)
    # The corrupt entry was quarantined, kept as evidence and recompiled.
    assert counters[-1]["n_recovered"] >= 1
    assert counters[-1]["quarantined"] >= 1
    assert ArtifactStore(shared / "store").quarantined_keys()

    merged = merge_ledgers([RunLedger(shared / "ledger.jsonl")])
    assert merged.double_priced == []
    assert merged.open_claims == []
    assert len(merged.rows) == 80
    assert all(r.status == "ok" for r in merged.rows)
    assert merged.canonical_ledger_text() == golden.canonical_ledger_text()
    assert merged.report_text() == golden.report_text()
