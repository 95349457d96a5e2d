#!/usr/bin/env python3
"""Run-ledger claim benchmark: ``RunLedger.acquire`` vs ledger size.

A claims-active sweep calls ``acquire`` once per store miss, on a ledger
that keeps growing. This bench pre-grows ledgers to 1k / 5k / 20k rows
(a claim and an ``ok`` row per earlier scenario, as a sweep leaves
them), then on one long-lived :class:`~repro.flow.ledger.RunLedger`:

* times ``acquire`` of fresh keys, each closed by an ``ok`` row as the
  sweep would, and reports the median (an fsync'd claim append plus two
  reads of the bytes appended since the previous read);
* counts the lines ``acquire`` parses (the module's ``_parse_line``
  calls), which must not grow with the ledger;
* replays every kind of decision — owned, deferred to a live claim,
  re-issued from a stale one, finished after the caller's store lookup,
  a stale ``ok`` row re-arbitrated — against the full-read oracle of
  ``tests/flow/ledger_oracle.py``, on a byte-identical copy of the file;
* times the oracle's ``acquire`` too: the same protocol with a full read
  per check, which is how ``acquire`` read before the incremental view.

Results land in ``BENCH_ledger.json`` (repo root). Usage::

    PYTHONPATH=src python benchmarks/bench_ledger.py
    PYTHONPATH=src python benchmarks/bench_ledger.py --check-only

``--check-only`` (CI's perf-smoke job) fails if lines parsed per
``acquire`` grow with ledger size or if any decision differs from the
oracle's. It prints the wall-clock figures but never gates on them:
``acquire`` includes an fsync, whose latency varies across CI runners.
For the split of a whole claims-active sweep by layer, run
``python3 perfbench/run.py --workload sweep-claims --trace 1``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import platform
import shutil
import statistics
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests" / "flow"))

import ledger_oracle as oracle  # noqa: E402

import repro.flow.ledger as ledger_module  # noqa: E402
from repro.flow.ledger import ClaimRecord, LedgerRecord, RunLedger  # noqa: E402

SIZES = (1000, 5000, 20000)
TIMED_ACQUIRES = 30
ORACLE_ACQUIRES = 3
LEASE_S = 300.0
NOW = 1_000_000.0
WORKER, PEER = "bench", "peer"


def _result(i: int, key: str, worker: str) -> LedgerRecord:
    return LedgerRecord(
        scenario_id=f"synth@u250/MP/seed={i}", key=key, status="ok",
        cached=False, resumed=False, latency_ms=0.123456 + i,
        evaluations=1200 + i, elapsed_s=0.05, worker=worker,
        artifact_digest=f"{i:032x}",
    )


def _claim(i: int, key: str, worker: str, ts: float) -> ClaimRecord:
    return ClaimRecord(scenario_id=f"synth@u250/MP/seed={i}", key=key,
                       worker=worker, ts=ts)


def _line(record) -> bytes:
    doc = dataclasses.asdict(record)
    if isinstance(record, ClaimRecord):
        doc["kind"] = "claim"
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def grow(path: pathlib.Path, rows: int) -> None:
    """A ledger of ``rows`` rows: claim then ok for each earlier scenario."""
    lines = []
    for i in range(rows // 2):
        key = f"{i:032x}"
        lines.append(_line(_claim(i, key, "earlier-sweep", NOW - 3600 + i)))
        lines.append(_line(_result(i, key, "earlier-sweep")))
    path.write_bytes(b"".join(lines))


class ParseCounter:
    """Counts ``_parse_line`` calls while installed."""

    def __init__(self):
        self.calls = 0
        self._real = ledger_module._parse_line

    def __enter__(self):
        def counted(raw):
            self.calls += 1
            return self._real(raw)

        ledger_module._parse_line = counted
        return self

    def __exit__(self, *exc):
        ledger_module._parse_line = self._real


def bench_size(tmp: pathlib.Path, rows: int, *, time_oracle: bool) -> tuple[dict, list[str]]:
    path, twin = tmp / f"ledger-{rows}.jsonl", tmp / f"twin-{rows}.jsonl"
    grow(path, rows)
    ledger = RunLedger(path)
    with ParseCounter() as counter:
        t0 = time.perf_counter()
        ledger.open_claims()
        first_read_ms = (time.perf_counter() - t0) * 1e3
        first_read_lines = counter.calls

        latencies, parsed = [], []
        for j in range(TIMED_ACQUIRES):
            i = rows + j
            key = f"fresh-{i:026x}"
            before = counter.calls
            t0 = time.perf_counter()
            decision = ledger.acquire(
                f"seed={i}", key, WORKER, lease_timeout_s=LEASE_S, now=NOW,
                since=ledger.position(),
            )
            latencies.append((time.perf_counter() - t0) * 1e3)
            parsed.append(counter.calls - before)
            if not decision.owned:
                raise SystemExit(f"fresh key {key} not owned: {decision}")
            ledger.append(_result(i, key, WORKER))

    failures = _check_decisions(ledger, path, twin, rows)
    doc = {
        "rows": rows,
        "acquire_ms": {
            "median": statistics.median(latencies),
            "min": min(latencies),
            "max": max(latencies),
        },
        "lines_parsed_per_acquire": statistics.mean(parsed),
        "first_read_ms": first_read_ms,
        "first_read_lines": first_read_lines,
    }
    if time_oracle:
        samples = []
        for j in range(ORACLE_ACQUIRES):
            i = 2 * rows + j
            t0 = time.perf_counter()
            oracle.oracle_acquire(twin, f"seed={i}", f"full-{i:027x}", WORKER,
                                  lease_timeout_s=LEASE_S, now=NOW)
            samples.append((time.perf_counter() - t0) * 1e3)
        doc["full_read_acquire_ms"] = {"median": statistics.median(samples)}
    return doc, failures


def _check_decisions(ledger: RunLedger, path: pathlib.Path,
                     twin: pathlib.Path, rows: int) -> list[str]:
    """Every decision kind on the view and on the oracle, in lockstep."""
    shutil.copyfile(path, twin)
    failures: list[str] = []
    writer = RunLedger(twin)

    def append(record) -> None:
        ledger.append(record)
        writer.append(record)

    def acquire(label: str, key: str, **kwargs) -> None:
        kwargs = dict(lease_timeout_s=LEASE_S, now=NOW, **kwargs)
        got = ledger.acquire(label, key, WORKER, **kwargs)
        want = oracle.oracle_acquire(twin, label, key, WORKER, **kwargs)
        if got != want:
            failures.append(f"{rows} rows, {label}: view {got} != oracle {want}")

    base = 3 * rows
    acquire("owned", f"k{base}", since=ledger.position())
    append(_claim(base + 1, f"k{base + 1}", PEER, NOW - 1))
    acquire("deferred", f"k{base + 1}", since=ledger.position())
    append(_claim(base + 2, f"k{base + 2}", PEER, NOW - 2 * LEASE_S))
    acquire("reissued", f"k{base + 2}", since=ledger.position())
    ledger.open_claims()
    mark = ledger.position()
    append(_result(base + 3, f"k{base + 3}", PEER))
    acquire("finished", f"k{base + 3}", since=mark)
    ledger.open_claims()
    acquire("stale-ok", f"k{base + 3}", since=ledger.position())
    append(_result(base + 4, f"k{base + 4}", PEER))
    acquire("finished-any", f"k{base + 4}")
    acquire("history-finished", f"{0:032x}")
    if path.read_bytes() != twin.read_bytes():
        failures.append(f"{rows} rows: the view's ledger bytes differ from the oracle's")
    if (ledger.entries(), ledger.open_claims(), ledger.completed_keys()) != (
        oracle.entries(path), oracle.open_claims(path), oracle.completed_keys(path)
    ):
        failures.append(f"{rows} rows: the view's reads differ from a full read")
    return failures


def run_bench(sizes, *, time_oracle: bool) -> tuple[dict, list[str]]:
    failures: list[str] = []
    results = {}
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench-ledger-"))
    try:
        for rows in sizes:
            results[str(rows)], fails = bench_size(tmp, rows, time_oracle=time_oracle)
            failures += fails
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    decisions_match = not failures
    parsed = [r["lines_parsed_per_acquire"] for r in results.values()]
    if max(parsed) > min(parsed):
        failures.append(f"lines parsed per acquire grow with ledger size: {parsed}")
    doc = {
        "bench": "ledger",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "timed_acquires_per_size": TIMED_ACQUIRES,
        "sizes": results,
        "decisions_match_oracle": decisions_match,
    }
    return doc, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_ledger.json",
                        help="result JSON path (default: repo-root BENCH_ledger.json)")
    parser.add_argument("--check-only", action="store_true",
                        help="assert flat parse counts and oracle-equal "
                             "decisions; skip the JSON write")
    args = parser.parse_args(argv)

    doc, failures = run_bench(SIZES, time_oracle=not args.check_only)
    print(f"{'rows':>6} | {'acquire ms':>10} | {'lines/acquire':>13} | "
          f"{'first read ms':>13} | {'full-read acquire ms':>20}")
    for rows, r in doc["sizes"].items():
        full = r.get("full_read_acquire_ms", {}).get("median")
        print(f"{rows:>6} | {r['acquire_ms']['median']:10.3f} | "
              f"{r['lines_parsed_per_acquire']:13.1f} | {r['first_read_ms']:13.1f} | "
              f"{'-' if full is None else f'{full:.1f}':>20}")
    if failures:
        for failure in failures:
            print(f"CONTRACT FAILURE: {failure}", file=sys.stderr)
        return 1
    if args.check_only:
        print("check-only: flat lines parsed per acquire; every decision "
              "matches the full-read oracle")
        return 0
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
