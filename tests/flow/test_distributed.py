"""Crash-injection and merge-determinism harness for distributed sweeps.

The headline guarantee of the distributed-sweep work, proven end to
end: N concurrent worker *processes*, each compiling one ``--shard
i/N`` slice of a synth grid into its own ledger + artifact store,
produce — even after one worker is SIGKILLed mid-claim and its shard
re-run under a fresh worker id — a merged canonical ledger and report
**byte-identical** to a serial sweep's, with zero double-priced
scenarios and zero claims left open.

Also here: the shard-partition invariants (disjoint, covering, stable
under reordering — property-based), the deferred/claim semantics of
``run_sweep`` itself, and the ``--shard`` / ``merge-ledgers`` CLI
surface.
"""

import json
import signal
import time

import pytest
import sweep_worker
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, MergeConflictError
from repro.flow import (
    ArtifactStore,
    LedgerRecord,
    RunLedger,
    fold_stores,
    merge_ledgers,
    parse_shard,
    run_sweep,
    shard_filter,
    shard_index,
)
from repro.flow.cli import main
from sweep_worker import synth_grid


# ---------------------------------------------------------------------------
# Shard partition invariants
# ---------------------------------------------------------------------------

_GRID_SPECS = synth_grid("0-39").expand()


class TestShardPartition:
    @pytest.mark.parametrize("bad", [
        "", "1", "0/4", "5/4", "x/4", "4/x", "1/0", "1-4", "-1/4", "1/4/2",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_shard(bad)

    def test_parse_shard(self):
        assert parse_shard("1/1") == (1, 1)
        assert parse_shard(" 3/8 ") == (3, 8)

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 7])
    def test_shards_disjoint_and_covering(self, n_shards):
        slices = [
            shard_filter(_GRID_SPECS, (i, n_shards))
            for i in range(1, n_shards + 1)
        ]
        ids = [s.scenario_id for sl in slices for s in sl]
        assert sorted(ids) == sorted(s.scenario_id for s in _GRID_SPECS)
        assert len(ids) == len(set(ids))

    @settings(max_examples=25, deadline=None)
    @given(ids=st.lists(st.text(min_size=1, max_size=60), unique=True,
                        max_size=100),
           n_shards=st.integers(min_value=1, max_value=16))
    def test_index_in_range_and_deterministic(self, ids, n_shards):
        for sid in ids:
            idx = shard_index(sid, n_shards)
            assert 0 <= idx < n_shards
            assert idx == shard_index(sid, n_shards)

    @settings(max_examples=20, deadline=None)
    @given(perm=st.permutations(_GRID_SPECS),
           n_shards=st.integers(min_value=1, max_value=8))
    def test_membership_stable_under_reordering(self, perm, n_shards):
        """A scenario's shard is a function of its id alone — never of
        grid order, grid size, or which other scenarios exist."""
        for i in range(1, n_shards + 1):
            original = {s.scenario_id for s in
                        shard_filter(_GRID_SPECS, (i, n_shards))}
            permuted = {s.scenario_id for s in
                        shard_filter(perm, (i, n_shards))}
            assert original == permuted
        subset = perm[: len(perm) // 2]
        for s in subset:
            assert shard_index(s, n_shards) == \
                shard_index(s.scenario_id, n_shards)


# ---------------------------------------------------------------------------
# run_sweep claim semantics (in-process)
# ---------------------------------------------------------------------------

class TestSweepClaims:
    def test_worker_requires_ledger(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep(synth_grid("0-1"), worker="w1")

    def test_live_foreign_claims_defer(self, tmp_path):
        grid = synth_grid("0-3")
        specs = grid.expand()
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        for spec in specs[:2]:
            ledger.acquire(spec.scenario_id, spec.cache_key(), "other")
        store = ArtifactStore(tmp_path / "store")
        result = run_sweep(grid, store=store, ledger=ledger, worker="me")
        assert result.n_deferred == 2
        assert result.n_compiled == 2
        assert result.n_errors == 0          # deferrals are not failures
        deferred = [o for o in result.outcomes if o.deferred]
        assert all(o.holder == "other" for o in deferred)
        # Deferred scenarios are NOT priced and NOT recorded as results.
        priced = {r.key for r in ledger.records()}
        assert priced == {s.cache_key() for s in specs[2:]}

    def test_stale_foreign_claims_reissue(self, tmp_path):
        grid = synth_grid("0-2")
        specs = grid.expand()
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        # A "crashed" worker claimed everything long ago (epoch ts).
        for spec in specs:
            decision = ledger.acquire(spec.scenario_id, spec.cache_key(),
                                      "dead", now=1.0)
            assert decision.owned
        result = run_sweep(grid, store=ArtifactStore(tmp_path / "store"),
                           ledger=ledger, worker="me", lease_timeout_s=60.0)
        assert result.n_reissued == 3
        assert result.n_compiled == 3
        assert all(r.reissued for r in ledger.records())

    @pytest.mark.parametrize("damage", ["deleted", "quarantined"])
    def test_stale_ok_row_is_repriced_exactly_once(self, tmp_path, damage):
        """The ledger says ok, the store lost the artifact, two workers race.

        Worker A's whole sweep runs inside worker B's store lookup, after
        B's miss: A re-prices the stale key, then B must serve A's result
        from the store instead of pricing it a second time.
        """
        grid = synth_grid("3")
        ledger_path = tmp_path / "ledger.jsonl"
        store = ArtifactStore(tmp_path / "store")
        run_sweep(grid, store=store, ledger=RunLedger(ledger_path), worker="old")
        (key,) = store.keys()
        if damage == "deleted":
            for f in store.path_for(key).iterdir():
                f.unlink()
        else:
            (store.path_for(key) / "report.json").write_text("{ truncated")
        rows_before = len(RunLedger(ledger_path).records())

        class RacingStore(ArtifactStore):
            raced = False

            def load(self, k):
                cached = super().load(k)
                if cached is None and not self.raced:
                    self.raced = True
                    a = run_sweep(grid, store=ArtifactStore(tmp_path / "store"),
                                  ledger=RunLedger(ledger_path), worker="A")
                    assert a.n_compiled == 1
                return cached

        b = run_sweep(grid, store=RacingStore(tmp_path / "store"),
                      ledger=RunLedger(ledger_path), worker="B")
        (outcome,) = b.outcomes
        assert outcome.ok and outcome.cached and not outcome.deferred
        new_rows = RunLedger(ledger_path).records()[rows_before:]
        assert [(r.worker, r.cached) for r in new_rows] == [("A", False), ("B", True)]
        assert RunLedger(ledger_path).open_claims() == {}

    def test_cache_hits_skip_claims(self, tmp_path):
        grid = synth_grid("0-2")
        store = ArtifactStore(tmp_path / "store")
        run_sweep(grid, store=store)
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        result = run_sweep(grid, store=store, ledger=ledger, worker="me")
        assert result.n_cached == 3
        assert ledger.claims() == []         # nothing needed claiming
        assert all(r.cached for r in ledger.records())


# ---------------------------------------------------------------------------
# The crash-injection harness
# ---------------------------------------------------------------------------

def _spawn_worker(cache, shard, seeds, worker_id, *, lease=300.0,
                  kill_after=None):
    """One sharded sweep process over its own ledger + store."""
    return sweep_worker.spawn({
        "cache": str(cache), "seeds": seeds, "shard": shard,
        "worker": worker_id, "lease": lease, "kill_after": kill_after,
    })


def _distributed_vs_serial(tmp_path, *, seeds, n_workers, kill_after):
    """Serial golden vs N concurrent sharded workers (+ crash injection).

    With ``kill_after`` set, worker 1 SIGKILLs itself right after its
    ``kill_after``-th claim record hits the disk. Returns the merged
    :class:`LedgerMergeResult` for extra assertions.
    """
    # --- serial golden ------------------------------------------------------
    serial_ledger = RunLedger(tmp_path / "serial" / "ledger.jsonl")
    serial = run_sweep(
        synth_grid(seeds),
        store=ArtifactStore(tmp_path / "serial" / "store"),
        ledger=serial_ledger,
    )
    assert serial.n_errors == 0
    golden = merge_ledgers([serial_ledger])

    # The victim's shard must be big enough to survive the injected
    # kill and still have work left to re-issue.
    victim_slice = shard_filter(synth_grid(seeds).expand(), (1, n_workers))
    if kill_after is not None:
        assert len(victim_slice) > kill_after

    # --- N concurrent sharded workers ---------------------------------------
    procs = [
        _spawn_worker(
            tmp_path / f"shard{i}", f"{i}/{n_workers}", seeds,
            f"worker-{i}", kill_after=(kill_after if i == 1 else None),
        )
        for i in range(1, n_workers + 1)
    ]
    outs = [p.communicate(timeout=600) for p in procs]
    survivors = list(zip(procs, outs))
    if kill_after is not None:
        assert procs[0].returncode == -signal.SIGKILL
        survivors = survivors[1:]
    for proc, (out, err) in survivors:
        assert proc.returncode == 0, err
        assert json.loads(out)["n_errors"] == 0

    if kill_after is not None:
        victim = RunLedger(tmp_path / "shard1" / "ledger.jsonl")
        # The fault landed in the claimed-but-never-priced window.
        assert victim.open_claims()
        assert len(victim.completed_keys()) < len(victim_slice)
        # Re-run the victim's shard: a fresh worker id + short lease
        # treats the dead worker's claims as stale and re-issues them.
        time.sleep(0.6)
        rerun = _spawn_worker(tmp_path / "shard1", f"1/{n_workers}", seeds,
                              "worker-1b", lease=0.5)
        out, err = rerun.communicate(timeout=600)
        assert rerun.returncode == 0, err
        assert json.loads(out)["n_errors"] == 0
        assert any(r.reissued for r in victim.records())
        assert victim.open_claims() == {}

    # --- merge and compare --------------------------------------------------
    ledgers = [
        RunLedger(tmp_path / f"shard{i}" / "ledger.jsonl")
        for i in range(1, n_workers + 1)
    ]
    merged = merge_ledgers(ledgers)
    assert merged.double_priced == []
    assert merged.open_claims == []
    # THE guarantee: canonical ledger and report are byte-identical to
    # the serial sweep's, crash or no crash.
    assert merged.canonical_ledger_text() == golden.canonical_ledger_text()
    assert merged.report_text() == golden.report_text()

    # Folding the shard stores yields every merged artifact, digests
    # verified against the ledger.
    stats = fold_stores(
        [tmp_path / f"shard{i}" / "store" for i in range(1, n_workers + 1)],
        tmp_path / "merged-store",
        expected={r.key: r.artifact_digest for r in merged.rows},
    )
    assert stats.missing == ()
    assert stats.copied == len(merged.rows)
    return merged


class TestCrashInjectionHarness:
    def test_four_workers_one_sigkilled_merge_matches_serial(self, tmp_path):
        """200 scenarios, 4 concurrent processes, one SIGKILL mid-claim."""
        merged = _distributed_vs_serial(
            tmp_path, seeds="0-199", n_workers=4, kill_after=3,
        )
        assert len(merged.rows) == 200
        assert merged.n_ok == 200
        assert sum(s.reissued for s in merged.sources) >= 1

    def test_clean_run_no_crash(self, tmp_path):
        merged = _distributed_vs_serial(
            tmp_path, seeds="0-29", n_workers=3, kill_after=None,
        )
        assert len(merged.rows) == 30
        # Shards were disjoint, so nothing was priced twice and no
        # artifact was stored in two shard stores.
        assert sum(s.fresh for s in merged.sources) == 30

    @pytest.mark.slow
    def test_thousand_scenarios_acceptance(self, tmp_path):
        """The issue's acceptance bar: 1000 scenarios, 4 workers,
        one SIGKILLed and re-issued, merged byte-identical to serial."""
        merged = _distributed_vs_serial(
            tmp_path, seeds="0-999", n_workers=4, kill_after=5,
        )
        assert len(merged.rows) == 1000
        assert merged.n_ok == 1000
        assert sum(s.reissued for s in merged.sources) >= 1


# ---------------------------------------------------------------------------
# Merge conflict and CLI surface
# ---------------------------------------------------------------------------

def _forged_row(key: str, digest: str) -> LedgerRecord:
    return LedgerRecord(
        scenario_id="sid", key=key, status="ok", cached=False,
        resumed=False, latency_ms=1.0, evaluations=1, elapsed_s=0.1,
        artifact_digest=digest,
    )


class TestMergeConflicts:
    def test_differing_digests_hard_error(self, tmp_path):
        a, b = RunLedger(tmp_path / "a.jsonl"), RunLedger(tmp_path / "b.jsonl")
        a.append(_forged_row("k", "aa" * 16))
        b.append(_forged_row("k", "bb" * 16))
        with pytest.raises(MergeConflictError):
            merge_ledgers([a, b])

    def test_identical_digests_merge_fine(self, tmp_path):
        a, b = RunLedger(tmp_path / "a.jsonl"), RunLedger(tmp_path / "b.jsonl")
        a.append(_forged_row("k", "aa" * 16))
        b.append(_forged_row("k", "aa" * 16))
        merged = merge_ledgers([a, b])
        assert len(merged.rows) == 1
        # ... but both rows were *fresh*, so the leak is diagnosed.
        assert merged.double_priced == ["k"]

    def test_ok_beats_error(self, tmp_path):
        a, b = RunLedger(tmp_path / "a.jsonl"), RunLedger(tmp_path / "b.jsonl")
        a.append(LedgerRecord(
            scenario_id="sid", key="k", status="error", cached=False,
            resumed=False, latency_ms=None, evaluations=0, elapsed_s=0.1,
            error="boom",
        ))
        b.append(_forged_row("k", "aa" * 16))
        (row,) = merge_ledgers([a, b]).rows
        assert row.status == "ok"
        assert row.error is None


class TestCliDistributed:
    def test_shard_sweep_and_merge_ledgers(self, tmp_path, capsys):
        for i in (1, 2):
            rc = main([
                "sweep", "--workloads", "synth:0-7",
                "--shard", f"{i}/2", "--worker-id", f"w{i}",
                "--cache-dir", str(tmp_path / f"c{i}"),
            ])
            assert rc == 0
        out = capsys.readouterr().out
        assert "Shard progress" in out
        assert "shard 2/2, worker w2" in out

        rc = main([
            "merge-ledgers",
            str(tmp_path / "c1" / "sweep-ledger.jsonl"),
            str(tmp_path / "c2" / "sweep-ledger.jsonl"),
            "--stores", f"{tmp_path / 'c1'},{tmp_path / 'c2'}",
            "--out", str(tmp_path / "merged"),
            "--require-complete",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "Ledger merge summary" in out or "Merged" in out
        report = json.loads(
            (tmp_path / "merged" / "merged-report.json").read_text()
        )
        assert report["scenarios"] == 8
        assert report["ok"] == 8
        ledger_lines = (
            (tmp_path / "merged" / "merged-ledger.jsonl")
            .read_text().splitlines()
        )
        assert len(ledger_lines) == 8
        assert len(ArtifactStore(tmp_path / "merged" / "store").keys()) == 8

    def test_bad_shard_spec_is_a_cli_error(self, tmp_path, capsys):
        rc = main([
            "sweep", "--workloads", "synth:0-3", "--shard", "9/4",
            "--cache-dir", str(tmp_path / "c"),
        ])
        assert rc == 1
        assert "shard" in capsys.readouterr().err

    def test_require_complete_fails_on_open_claims(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "a.jsonl")
        ledger.append(_forged_row("k1", "aa" * 16))
        ledger.acquire("sid2", "k2", "crashed-worker")
        rc = main([
            "merge-ledgers", str(tmp_path / "a.jsonl"),
            "--out", str(tmp_path / "merged"),
            "--require-complete",
        ])
        assert rc == 1
        assert "open" in capsys.readouterr().err

    def test_missing_ledger_is_a_cli_error(self, tmp_path, capsys):
        rc = main([
            "merge-ledgers", str(tmp_path / "nope.jsonl"),
            "--out", str(tmp_path / "merged"),
        ])
        assert rc == 1
        assert "not found" in capsys.readouterr().err


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
