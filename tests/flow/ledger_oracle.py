"""The full-read ledger oracle: every read parses the whole file.

``RunLedger`` once answered every read this way; it now keeps an
incremental view instead. This module keeps the simple version as the
reference the view is checked against — by the property tests in
``test_ledger_view.py`` and by ``benchmarks/bench_ledger.py`` — and is
used nowhere else.

Rows are split on ``\\n``; each line is decoded, stripped and parsed on
its own, and anything that is not a complete record is skipped. The
folds restate the documented rules from scratch: a result row closes
every earlier claim for its key; a claim opens unless an ``ok`` row for
its key lies between the claim's ``since`` and the claim.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.flow.ledger import ClaimDecision, ClaimRecord, LedgerRecord, RunLedger

__all__ = [
    "read_entries",
    "entries",
    "open_claims",
    "completed_keys",
    "oracle_acquire",
]


def _parse(raw: bytes) -> LedgerRecord | ClaimRecord | None:
    try:
        doc = json.loads(raw.decode("utf-8").strip())
        if not isinstance(doc, dict):
            return None
        if doc.get("kind") == "claim":
            return ClaimRecord.from_doc(doc)
        return LedgerRecord.from_doc(doc)
    except (ValueError, TypeError):
        return None


def read_entries(path: str | os.PathLike) -> list[tuple[int, LedgerRecord | ClaimRecord]]:
    """Every parseable record with the byte offset its line starts at."""
    path = pathlib.Path(path)
    if not path.is_file():
        return []
    out, at = [], 0
    for line in path.read_bytes().split(b"\n"):
        entry = _parse(line)
        if entry is not None:
            out.append((at, entry))
        at += len(line) + 1
    return out


def entries(path) -> list[LedgerRecord | ClaimRecord]:
    return [entry for _, entry in read_entries(path)]


def _fold(path) -> tuple[dict[str, list[ClaimRecord]], dict[str, tuple[int, LedgerRecord]]]:
    held: dict[str, list[ClaimRecord]] = {}
    done: dict[str, tuple[int, LedgerRecord]] = {}
    for at, entry in read_entries(path):
        if isinstance(entry, ClaimRecord):
            finish = done.get(entry.key)
            if entry.since is None or finish is None or finish[0] < entry.since:
                held.setdefault(entry.key, []).append(entry)
        else:
            held.pop(entry.key, None)
            if entry.status == "ok":
                done[entry.key] = (at, entry)
    return held, done


def open_claims(path) -> dict[str, list[ClaimRecord]]:
    return _fold(path)[0]


def completed_keys(path) -> set[str]:
    return {
        e.key for e in entries(path)
        if isinstance(e, LedgerRecord) and e.status == "ok" and e.key
    }


def oracle_acquire(
    path, scenario_id: str, key: str, worker: str, *,
    shard: str | None = None, lease_timeout_s: float = 300.0,
    now: float | None = None, since: int = 0,
) -> ClaimDecision:
    """``RunLedger.acquire``'s protocol with a full read for each check."""
    if now is None:
        now = time.time()

    def owner(claims):
        order, latest = [], {}
        for c in claims:
            if c.worker not in latest:
                order.append(c.worker)
            latest[c.worker] = c
        for w in order:
            if now - latest[w].ts < lease_timeout_s:
                return latest[w]
        return None

    def state():
        held, done = _fold(path)
        return held.get(key, []), done.get(key)

    existing, done = state()
    if done is not None and done[0] >= since:
        return ClaimDecision(owned=False, holder=done[1].worker, finished=True)
    holder = owner(existing)
    if holder is not None and holder.worker != worker:
        return ClaimDecision(owned=False, holder=holder.worker)
    reissued = any(c.worker != worker for c in existing)
    RunLedger(path).append(ClaimRecord(
        scenario_id=scenario_id, key=key, worker=worker, ts=now,
        shard=shard, since=since,
    ))
    existing, done = state()
    if done is not None and done[0] >= since:
        return ClaimDecision(owned=False, holder=done[1].worker, finished=True)
    winner = owner(existing)
    if winner is None or winner.worker != worker:
        return ClaimDecision(
            owned=False, holder=None if winner is None else winner.worker
        )
    return ClaimDecision(owned=True, reissued=reissued)
