"""The run ledger's incremental view against the full-read oracle.

One long-lived :class:`RunLedger` reads the file after every step of a
random sequence that appends, corrupts, truncates, rewrites and
replaces it; after each step its reads must equal what a from-scratch
parse of the whole file says (``ledger_oracle``). A second instance
appends too and reads only now and then, so its view lags by many rows.

Every line a step writes carries the current *generation* tag, and each
destructive step (truncate, rewrite, recreate) starts a new one: the
view's anchor check compares bytes, so a rewrite it should notice must
differ from the old content just before the parsed offset.
"""

import dataclasses
import json
import os
import shutil
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ledger_oracle as oracle
from repro.faults import injected_faults
from repro.flow import ClaimRecord, LedgerRecord, RunLedger
from repro.flow.cli import main

KEYS = ("k0", "k1", "k2")
WORKERS = ("a", "b")


def _row(gen: int, key: str, status: str, worker: str) -> LedgerRecord:
    return LedgerRecord(
        scenario_id=f"g{gen}:{key}", key=key, status=status, cached=False,
        resumed=False, latency_ms=1.0 if status == "ok" else None,
        evaluations=1, elapsed_s=0.01, worker=worker,
    )


def _claim(gen: int, key: str, worker: str, ts: float,
           since: int | None) -> ClaimRecord:
    return ClaimRecord(scenario_id=f"g{gen}:{key}", key=key, worker=worker,
                       ts=ts, since=since)


def _line(entry) -> bytes:
    doc = dataclasses.asdict(entry)
    if isinstance(entry, ClaimRecord):
        doc["kind"] = "claim"
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


_key = st.sampled_from(KEYS)
_worker = st.sampled_from(WORKERS)
_steps = st.one_of(
    st.tuples(st.just("result"), _key, st.sampled_from(["ok", "error"]),
              _worker, st.booleans()),
    st.tuples(st.just("claim"), _key, _worker,
              st.none() | st.integers(0, 3000), st.booleans()),
    st.tuples(st.just("acquire"), _key, _worker,
              st.sampled_from(["zero", "position", "size"]),
              st.sampled_from([100.0, 1000.0])),
    st.tuples(st.just("garbage"),
              st.sampled_from(["text", "array", "number", "string",
                               "undecodable", "blank"])),
    st.tuples(st.just("tail"), _key, st.floats(0.1, 1.0)),
    st.just(("complete",)),
    st.just(("truncate",)),
    st.tuples(st.just("rewrite"), st.integers(1, 4)),
    st.tuples(st.just("recreate"), st.integers(0, 4)),
    st.just(("read_second",)),
)


def _assert_matches(ledger: RunLedger) -> None:
    path = ledger.path
    assert ledger.entries() == oracle.entries(path)
    assert ledger.open_claims() == oracle.open_claims(path)
    assert ledger.completed_keys() == oracle.completed_keys(path)
    size = path.stat().st_size if path.exists() else 0
    assert ledger.position() == size


class TestViewMatchesOracle:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(steps=st.lists(_steps, max_size=30))
    def test_reads_equal_full_read_after_every_step(self, tmp_path, steps):
        work = tmp_path / "view"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        path = work / "ledger.jsonl"
        mine, other = RunLedger(path), RunLedger(path)
        gen, clock, pending = 0, 0.0, b""

        def write(data: bytes) -> None:
            with open(path, "ab") as fh:
                fh.write(data)

        for step in steps:
            kind = step[0]
            clock += 1.0
            if kind == "result":
                _, key, status, worker, by_other = step
                (other if by_other else mine).append(_row(gen, key, status, worker))
            elif kind == "claim":
                _, key, worker, since, by_other = step
                (other if by_other else mine).append(
                    _claim(gen, key, worker, clock, since))
            elif kind == "acquire":
                # The decision must be the oracle's on a copy of the file.
                _, key, worker, since_mode, lease = step
                size = path.stat().st_size if path.exists() else 0
                since = {"zero": 0, "position": mine.position(), "size": size}[since_mode]
                twin = work / "twin.jsonl"
                if path.exists():
                    shutil.copyfile(path, twin)
                else:
                    twin.unlink(missing_ok=True)
                kwargs = dict(lease_timeout_s=lease, now=clock, since=since)
                sid = f"g{gen}:{key}"
                got = mine.acquire(sid, key, worker, **kwargs)
                assert got == oracle.oracle_acquire(twin, sid, key, worker, **kwargs)
                assert twin.read_bytes() == path.read_bytes()
            elif kind == "garbage":
                write({
                    "text": f"g{gen} not json\n".encode(),
                    "array": f'["g{gen}"]\n'.encode(),
                    "number": f"{gen}\n".encode(),
                    "string": f'"g{gen}"\n'.encode(),
                    "undecodable": b"\xff\xfe g%d \xc3\n" % gen,
                    "blank": b"\n",
                }[step[1]])
            elif kind == "tail":
                # The first part of a row; "complete" writes the rest.
                _, key, frac = step
                line = _line(_row(gen, key, "ok", "a"))
                cut = max(1, int(len(line) * frac)) - 1
                write(line[:cut])
                pending = line[cut:]
            elif kind == "complete":
                write(pending or b"\n")
                pending = b""
            elif kind in ("truncate", "rewrite", "recreate"):
                gen += 1
                pending = b""
                rows = [_row(gen, KEYS[i % 3], "ok", "b") for i in range(
                    step[1] if kind != "truncate" else 0)]
                content = b"".join(_line(r) for r in rows)
                if kind == "rewrite":
                    size = path.stat().st_size if path.exists() else 0
                    while len(content) <= size:
                        content += _line(_claim(gen, "k0", "b", clock, None))
                    path.write_text(content.decode())
                elif kind == "recreate":
                    path.unlink(missing_ok=True)
                    path.write_bytes(content)
                else:
                    with open(path, "ab") as fh:
                        fh.truncate(0)
            elif kind == "read_second":
                _assert_matches(other)
            _assert_matches(mine)


class TestThreads:
    def test_readers_share_one_instance_while_rows_land(self, tmp_path,
                                                       monkeypatch):
        """Threads reading one view never lose or repeat a row."""
        monkeypatch.setattr(os, "fsync", lambda fd: None)
        path = tmp_path / "run.jsonl"
        shared, writer = RunLedger(path), RunLedger(path)
        done = threading.Event()
        seen: list[list] = []
        errors: list[BaseException] = []

        def write() -> None:
            for i in range(300):
                writer.append(_row(0, f"k{i % 7}", "ok", "w"))
                writer.append(_claim(0, f"k{i % 5}", "w", float(i), 0))
            done.set()

        def read() -> None:
            try:
                while not done.is_set():
                    seen.append(shared.entries())
                    shared.open_claims()
                    shared.completed_keys()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=write)]
        threads += [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        final = oracle.entries(path)
        assert len(final) == 600
        assert shared.entries() == final
        assert shared.open_claims() == oracle.open_claims(path)
        for snapshot in seen:
            assert snapshot == final[:len(snapshot)]


class TestUndecodableLines:
    def test_raw_ff_line_between_good_rows(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(path)
        first, second = _row(0, "k0", "ok", "a"), _row(0, "k1", "ok", "a")
        ledger.append(first)
        with open(path, "ab") as fh:
            fh.write(b"\xff\n")
        ledger.append(second)
        assert ledger.records() == [first, second]
        assert ledger.completed_keys() == {"k0", "k1"}
        assert RunLedger(path).records() == [first, second]

    def test_corrupted_append_then_resume(self, tmp_path, capsys):
        """A byte-flipped ledger row must not stop ``--resume``."""
        cache = tmp_path / "cache"
        argv = ["sweep", "--workloads", "synth:0-3", "--cache-dir", str(cache)]
        with injected_faults("ledger.append.write:corrupt@2"):
            assert main(argv) == 0
        with pytest.raises(UnicodeDecodeError):
            (cache / "sweep-ledger.jsonl").read_bytes().decode("utf-8")
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed via ledger" in out
        ledger = RunLedger(cache / "sweep-ledger.jsonl")
        assert len(ledger.completed_keys()) == 4
