"""Concurrency contract of the shared run ledger.

Two halves:

* the **byte-level** contract — every append is a single ``O_APPEND``
  ``write(2)`` of one complete line, so any number of processes
  appending to one ledger can never interleave bytes mid-line and
  per-process append order is preserved in the file;
* the **claim protocol** on top of it — workers racing over one ledger
  arbitrate ownership by file order, so every scenario is priced by
  exactly one worker even with no sharding at all.

Plus hypothesis round-trips of both record kinds through the JSONL
encoding, since the merge/resume machinery assumes ``append`` then
``entries`` is lossless.
"""

import json
import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.flow import ClaimRecord, LedgerRecord, RunLedger


def _result(key: str, worker: str | None = None,
            sid: str | None = None) -> LedgerRecord:
    return LedgerRecord(
        scenario_id=sid or key, key=key, status="ok", cached=False,
        resumed=False, latency_ms=1.0, evaluations=1, elapsed_s=0.01,
        worker=worker,
    )


def _append_rows(path, worker_id: str, n_rows: int, barrier) -> None:
    ledger = RunLedger(path)
    barrier.wait()
    for i in range(n_rows):
        ledger.append(_result(f"{worker_id}:{i:04d}", worker=worker_id))


def _claim_and_price(path, worker_id: str, keys, barrier) -> None:
    ledger = RunLedger(path)
    barrier.wait()
    for key in keys:
        if key in ledger.completed_keys():
            continue
        decision = ledger.acquire(key, key, worker_id)
        if decision.owned:
            ledger.append(_result(key, worker=worker_id))


def _run_processes(target, arg_sets):
    barrier = multiprocessing.Barrier(len(arg_sets))
    procs = [
        multiprocessing.Process(target=target, args=(*args, barrier))
        for args in arg_sets
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert all(p.exitcode == 0 for p in procs)


class TestConcurrentAppends:
    N_WORKERS = 4
    N_ROWS = 100

    def test_no_mid_line_interleaving(self, tmp_path):
        """N processes hammering one ledger: every line stays whole."""
        path = tmp_path / "shared.jsonl"
        _run_processes(_append_rows, [
            (path, f"w{i}", self.N_ROWS) for i in range(self.N_WORKERS)
        ])
        lines = path.read_text().splitlines()
        assert len(lines) == self.N_WORKERS * self.N_ROWS
        # Every single line parses as a complete record — the O_APPEND
        # single-write contract means no torn or merged lines, ever.
        for line in lines:
            doc = json.loads(line)
            assert LedgerRecord.from_doc(doc).key == doc["key"]

    def test_per_process_order_preserved(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        _run_processes(_append_rows, [
            (path, f"w{i}", self.N_ROWS) for i in range(self.N_WORKERS)
        ])
        recs = RunLedger(path).records()
        assert len(recs) == self.N_WORKERS * self.N_ROWS
        for i in range(self.N_WORKERS):
            mine = [r.key for r in recs if r.worker == f"w{i}"]
            assert mine == [f"w{i}:{j:04d}" for j in range(self.N_ROWS)]


class TestClaimProtocol:
    def test_racing_workers_price_each_key_exactly_once(self, tmp_path):
        """Two unsharded workers over one ledger: no double-pricing.

        Both walk the same key list through ``acquire``; file-order
        arbitration must hand every key to exactly one of them.
        """
        path = tmp_path / "shared.jsonl"
        keys = [f"scenario-{i:03d}" for i in range(40)]
        _run_processes(_claim_and_price, [
            (path, "alice", keys), (path, "bob", list(reversed(keys))),
        ])
        ledger = RunLedger(path)
        recs = ledger.records()
        priced = [r.key for r in recs]
        assert sorted(priced) == sorted(keys)          # covered ...
        assert len(priced) == len(set(priced))         # ... exactly once
        assert ledger.open_claims() == {}
        # Both workers really participated (the race was a race).
        by_worker = {r.worker for r in recs}
        assert by_worker <= {"alice", "bob"}

    def test_loser_sees_holder(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        win = ledger.acquire("sid", "k", "alice")
        lose = ledger.acquire("sid", "k", "bob")
        assert win.owned and not win.reissued
        assert not lose.owned
        assert lose.holder == "alice"

    def test_stale_claim_is_reissued(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        ledger.acquire("sid", "k", "alice", lease_timeout_s=10.0, now=1000.0)
        # Within the lease: alice still owns it.
        live = ledger.acquire("sid", "k", "bob", lease_timeout_s=10.0,
                              now=1005.0)
        assert not live.owned and live.holder == "alice"
        # Past the lease: alice is presumed dead, bob inherits.
        stale = ledger.acquire("sid", "k", "bob", lease_timeout_s=10.0,
                               now=1011.0)
        assert stale.owned and stale.reissued

    def test_heartbeat_extends_lease(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        ledger.acquire("sid", "k", "alice", lease_timeout_s=10.0, now=1000.0)
        (claim,) = ledger.open_claims()["k"]
        ledger.heartbeat(claim, now=1008.0)
        kept = ledger.acquire("sid", "k", "bob", lease_timeout_s=10.0,
                              now=1012.0)
        assert not kept.owned and kept.holder == "alice"

    def test_result_closes_claim(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        ledger.acquire("sid", "k", "alice")
        ledger.append(_result("k", worker="alice", sid="sid"))
        assert ledger.open_claims() == {}


class TestFinishedKeys:
    """A key finished after the caller's store lookup is never re-owned."""

    def test_acquire_after_anothers_ok_is_not_owned(self, tmp_path):
        path = tmp_path / "run.jsonl"
        alice, bob = RunLedger(path), RunLedger(path)
        assert alice.acquire("sid", "k", "alice").owned
        alice.append(_result("k", worker="alice", sid="sid"))
        late = bob.acquire("sid", "k", "bob")
        assert not late.owned and late.finished
        assert late.holder == "alice"
        assert [c.worker for c in bob.claims()] == ["alice"]   # none appended
        assert bob.open_claims() == {}

    def test_ok_before_the_noted_position_is_stale(self, tmp_path):
        """A finish the caller already saw (store miss anyway) re-arbitrates."""
        path = tmp_path / "run.jsonl"
        alice, bob = RunLedger(path), RunLedger(path)
        alice.acquire("sid", "k", "alice")
        bob.open_claims()
        mark = bob.position()
        alice.append(_result("k", worker="alice", sid="sid"))
        assert bob.acquire("sid", "k", "bob", since=mark).finished
        again = bob.acquire("sid", "k", "bob", since=bob.position())
        assert again.owned and not again.finished

    def test_finish_inside_acquire_voids_the_late_claim(self, tmp_path,
                                                       monkeypatch):
        """Alice claims and finishes between Bob's first read and his claim."""
        path = tmp_path / "run.jsonl"
        alice, bob = RunLedger(path), RunLedger(path)
        append = RunLedger.append

        def racing_append(self, record):
            if self is bob and isinstance(record, ClaimRecord):
                assert alice.acquire("sid", "k", "alice").owned
                append(alice, _result("k", worker="alice", sid="sid"))
            append(self, record)

        monkeypatch.setattr(RunLedger, "append", racing_append)
        late = bob.acquire("sid", "k", "bob")
        assert not late.owned and late.finished and late.holder == "alice"
        assert [c.worker for c in bob.claims()] == ["alice", "bob"]
        # Bob's claim landed after Alice's ok row, so it is void.
        assert bob.open_claims() == {}
        assert RunLedger(path).open_claims() == {}


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1,
    max_size=40,
)
_opt_text = st.none() | _text
_finite = st.floats(allow_nan=False, allow_infinity=False, width=32)

_records = st.builds(
    LedgerRecord,
    scenario_id=_text, key=_text, status=st.sampled_from(["ok", "error"]),
    cached=st.booleans(), resumed=st.booleans(),
    latency_ms=st.none() | _finite,
    evaluations=st.integers(min_value=0, max_value=10**9),
    elapsed_s=_finite, error=_opt_text, traceback=_opt_text,
    worker=_opt_text, shard=_opt_text, reissued=st.booleans(),
    artifact_digest=_opt_text,
)

_claims = st.builds(
    ClaimRecord,
    scenario_id=_text, key=_text, worker=_text, ts=_finite,
    shard=_opt_text,
)


class TestRoundTrip:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rec=_records)
    def test_result_record_roundtrips(self, tmp_path, rec):
        path = tmp_path / "rt.jsonl"
        path.unlink(missing_ok=True)
        ledger = RunLedger(path)
        ledger.append(rec)
        assert ledger.records() == [rec]

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(claim=_claims)
    def test_claim_record_roundtrips(self, tmp_path, claim):
        path = tmp_path / "rt.jsonl"
        path.unlink(missing_ok=True)
        ledger = RunLedger(path)
        ledger.append(claim)
        assert ledger.claims() == [claim]

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(entries=st.lists(_records | _claims, max_size=12))
    def test_mixed_streams_roundtrip_in_order(self, tmp_path, entries):
        path = tmp_path / "rt.jsonl"
        path.unlink(missing_ok=True)
        ledger = RunLedger(path)
        for entry in entries:
            ledger.append(entry)
        assert ledger.entries() == entries


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
