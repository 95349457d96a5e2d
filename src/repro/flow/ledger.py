"""Append-only JSONL run ledger: streaming resume *and* multi-worker
coordination.

``run_sweep`` historically accumulated every outcome in memory and only
the artifact store survived a crash — a killed 500-scenario sweep lost
the *record* of what had finished (and of what failed, and why). The
ledger fixes both halves:

* **streaming** — one JSON line is appended (and fsynced) the moment
  each scenario completes, successes and failures alike, so a crash
  mid-grid preserves every completed row including the failing
  scenario's exception *and* traceback;
* **resume** — a re-run with ``resume=True`` reads the ledger, and any
  scenario whose cache key is recorded as ``ok`` *and* still present in
  the artifact store is served from the store without re-pricing a
  single design point.

Since the distributed-sweep work the same file is also a **coordination
substrate** for multiple concurrent workers:

* **claims** — before pricing a scenario, a worker appends a
  :class:`ClaimRecord` (worker id + heartbeat timestamp). Appends are a
  single ``O_APPEND`` ``write(2)`` of one complete line, so concurrent
  writers never interleave mid-line; ownership is arbitrated by file
  order (:meth:`RunLedger.acquire` — first live claim wins), which
  makes double-pricing impossible even when several workers share one
  ledger.
* **leases** — a claim's timestamp is refreshed by heartbeats while its
  owner prices; a claim that has gone stale for longer than the lease
  timeout marks a crashed worker, and its scenario is *re-issued* to
  the next worker that asks.
* **merging** — :func:`merge_ledgers` folds N shard ledgers into one
  canonical row set (sorted by scenario id, volatile fields dropped),
  detecting conflicts: the same scenario recorded ``ok`` with two
  different artifact digests is a hard :class:`~repro.errors.
  MergeConflictError`, because deterministic compilation makes that an
  impossibility unless something is broken.

The format is deliberately dumb: one self-contained JSON object per
newline-terminated line, append-only, no header. A truncated final line
(the crash case) is skipped on read, as is a line that is not UTF-8, not
JSON, or *valid-JSON-but-schema-incomplete* (a crash can fsync a prefix
of a row that still happens to parse); unknown fields are ignored, so
old ledgers stay readable as the record grows.

Reads are incremental. Each :class:`RunLedger` keeps one private view of
its file: the parsed entries, a running fold of open claims and of the
latest ``ok`` row per key, and the byte offset parsed so far. A read
parses only the newline-terminated lines appended since that offset; an
unterminated last line is parsed on every read but never cached. Before
reading, the view checks the file's device and inode, its size, and the
last few KiB it parsed (they must still sit just before the offset); a
replaced, truncated or rewritten file is re-read from byte 0. Appends
never touch the view, and a lock guards it, so one instance can be read
from several threads. ``acquire`` therefore costs two "stat and read
the delta" calls plus its own fsync'd append, however long the ledger.

**Finished keys.** A caller that looked a key up in the artifact store
notes :meth:`RunLedger.position` first and passes it to ``acquire`` as
``since``: an ``ok`` row for the key appended after that position means
another worker finished the key while we looked, so ``acquire`` answers
not-owned with ``finished=True`` and the finisher as holder, and the
caller loads the key from the store instead of pricing it again.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import pathlib
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import LedgerWriteError, MergeConflictError
from ..faults import RetryPolicy, faultpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sweep import ScenarioOutcome

__all__ = [
    "LedgerRecord",
    "ClaimRecord",
    "ClaimDecision",
    "RunLedger",
    "MergedRow",
    "SourceStats",
    "LedgerMergeResult",
    "merge_ledgers",
    "MERGE_FORMAT_VERSION",
]

#: Schema version of the canonical merged-ledger/report documents.
MERGE_FORMAT_VERSION = 1


@functools.cache
def _field_names(cls) -> frozenset[str]:
    """A record class's field names: what ``from_doc`` keeps of a row."""
    return frozenset(f.name for f in dataclasses.fields(cls))


@dataclass(frozen=True)
class LedgerRecord:
    """One completed scenario, as written to the run ledger.

    ``worker``/``shard`` are provenance for distributed sweeps (which
    worker priced the row, under which ``i/N`` slice); ``reissued``
    marks a scenario that was re-run after a previous claim's lease
    expired; ``artifact_digest`` is the content digest of the stored
    artifact entry, the field :func:`merge_ledgers` checks for
    cross-shard conflicts.
    """

    scenario_id: str
    key: str
    status: str                    # "ok" | "error"
    cached: bool
    resumed: bool
    latency_ms: float | None
    evaluations: int
    elapsed_s: float
    error: str | None = None
    traceback: str | None = None
    worker: str | None = None
    shard: str | None = None
    reissued: bool = False
    artifact_digest: str | None = None
    #: The scenario was recompiled after its cached artifact entry
    #: failed the read-time audit and was quarantined. Recovery work is
    #: excluded from "fresh" accounting: the *first* pricing already
    #: counted, so a recompile of the same bytes must not read as
    #: double-pricing.
    recovered: bool = False

    #: Fields a row must carry (with JSON-compatible types) to count as
    #: a record at all. A crash can fsync a *prefix* of a row that still
    #: parses as JSON; requiring the full core schema means such a tail
    #: is skipped instead of resurfacing as a half-empty outcome.
    _REQUIRED = {
        "scenario_id": str,
        "key": str,
        "status": str,
        "cached": bool,
        "resumed": bool,
        "evaluations": int,
        "elapsed_s": (int, float),
    }

    @classmethod
    def from_outcome(
        cls,
        outcome: "ScenarioOutcome",
        *,
        worker: str | None = None,
        shard: str | None = None,
    ) -> "LedgerRecord":
        return cls(
            scenario_id=outcome.scenario_id,
            key=outcome.key,
            status="ok" if outcome.ok else "error",
            cached=outcome.cached,
            resumed=outcome.resumed,
            latency_ms=outcome.latency_ms if outcome.ok else None,
            evaluations=outcome.evaluations,
            elapsed_s=outcome.elapsed_s,
            error=outcome.error,
            traceback=outcome.traceback,
            worker=worker,
            shard=shard,
            reissued=outcome.reissued,
            artifact_digest=outcome.artifact_digest,
            recovered=outcome.recovered,
        )

    @classmethod
    def from_doc(cls, doc: dict) -> "LedgerRecord":
        for name, types in cls._REQUIRED.items():
            if name not in doc or not isinstance(doc[name], types):
                raise ValueError(f"ledger row missing/invalid field {name!r}")
        if doc["status"] not in ("ok", "error"):
            raise ValueError(f"ledger row has unknown status {doc['status']!r}")
        if not (doc.get("latency_ms") is None
                or isinstance(doc["latency_ms"], (int, float))):
            raise ValueError("ledger row has non-numeric latency_ms")
        known = _field_names(cls)
        return cls(**{k: v for k, v in doc.items() if k in known})


@dataclass(frozen=True)
class ClaimRecord:
    """A worker's declaration of intent to price one scenario.

    ``ts`` is the heartbeat timestamp (``time.time()``): the initial
    claim stamps it, and long-running owners append refreshed claims
    with new timestamps. A claim whose latest heartbeat is older than
    the lease timeout is *stale* — its owner is presumed dead and the
    scenario may be re-issued.

    ``since`` is the ledger position the claimant noted before its store
    lookup (see :meth:`RunLedger.acquire`). An ``ok`` row for the key
    that lands between that position and the claim *voids* the claim:
    its owner will see the key finished and never price it, so the claim
    is not open. Heartbeats carry no ``since`` and are never void.
    """

    scenario_id: str
    key: str
    worker: str
    ts: float
    shard: str | None = None
    since: int | None = None

    _REQUIRED = {
        "scenario_id": str,
        "key": str,
        "worker": str,
        "ts": (int, float),
    }

    @classmethod
    def from_doc(cls, doc: dict) -> "ClaimRecord":
        for name, types in cls._REQUIRED.items():
            if name not in doc or not isinstance(doc[name], types):
                raise ValueError(f"claim row missing/invalid field {name!r}")
        if not (doc.get("since") is None or isinstance(doc["since"], int)):
            raise ValueError("claim row has non-integer since")
        known = _field_names(cls)
        return cls(**{k: v for k, v in doc.items() if k in known})


@dataclass(frozen=True)
class ClaimDecision:
    """What :meth:`RunLedger.acquire` decided for one scenario.

    ``owned`` — this worker holds the claim and must price the scenario.
    ``holder`` — the owning worker id when someone else holds a live
    claim (``owned=False``); the scenario should be *deferred*.
    ``reissued`` — the claim supersedes a stale one left by a crashed
    worker (only meaningful when ``owned``).
    ``finished`` — an ``ok`` row for the key landed after the caller's
    ``since`` position (``owned=False``; ``holder`` is the finisher):
    the result is in the store, so load it rather than defer or price.
    """

    owned: bool
    reissued: bool = False
    holder: str | None = None
    finished: bool = False


Entry = LedgerRecord | ClaimRecord


def _parse_entry(doc: dict) -> Entry:
    if doc.get("kind") == "claim":
        return ClaimRecord.from_doc(doc)
    return LedgerRecord.from_doc(doc)


def _parse_line(raw: bytes) -> Entry | None:
    """One ledger line as a record, or ``None`` when it is not one.

    Decoding happens here, per line, so an undecodable byte costs only
    its own line, like any other unparseable one.
    """
    try:
        doc = json.loads(raw.decode("utf-8").strip())
        if not isinstance(doc, dict):
            return None
        return _parse_entry(doc)
    except (ValueError, TypeError):
        return None


def _fold(entry: Entry, at: int, open_claims: dict[str, list[ClaimRecord]],
          done: dict[str, tuple[int, LedgerRecord]]) -> None:
    """Apply the entry whose line starts at byte ``at`` to the fold.

    A result row closes every earlier claim for its key, and an ``ok``
    one becomes the key's latest finish. A claim opens unless an ``ok``
    row for its key lies between the claim's ``since`` and the claim.
    """
    if isinstance(entry, ClaimRecord):
        finish = done.get(entry.key)
        if entry.since is None or finish is None or finish[0] < entry.since:
            open_claims.setdefault(entry.key, []).append(entry)
        return
    open_claims.pop(entry.key, None)
    if entry.status == "ok":
        done[entry.key] = (at, entry)


class _LedgerView:
    """What one :class:`RunLedger` has parsed of its file so far.

    Every newline-terminated line before ``offset`` is folded into
    ``entries`` (append order), ``open_claims`` and ``done`` (see
    :func:`_fold`). ``ident`` (device, inode) and ``anchor`` (the last
    parsed bytes, which must still end at ``offset``) validate the view
    before each read; ``read_to`` also counts the unterminated tail
    seen by the last read.
    """

    #: How many parsed bytes before ``offset`` the anchor keeps.
    ANCHOR_BYTES = 4096

    def __init__(self, ident: tuple[int, int] | None = None):
        self.ident = ident
        self.offset = 0
        self.read_to = 0
        self.anchor = b""
        self.entries: list[Entry] = []
        self.open_claims: dict[str, list[ClaimRecord]] = {}
        self.done: dict[str, tuple[int, LedgerRecord]] = {}

    def parse(self, data: bytes) -> Entry | None:
        """Fold the complete lines of ``data`` (the bytes at ``offset``).

        Returns the parsed unterminated tail, which is not folded.
        """
        end = data.rfind(b"\n") + 1
        at = self.offset
        for line in data[:end].split(b"\n")[:-1]:
            entry = _parse_line(line)
            if entry is not None:
                self.entries.append(entry)
                _fold(entry, at, self.open_claims, self.done)
            at += len(line) + 1
        if end:
            recent = data[max(0, end - self.ANCHOR_BYTES):end]
            self.anchor = (self.anchor + recent)[-self.ANCHOR_BYTES:]
        self.offset = at
        self.read_to = at + len(data) - end
        return _parse_line(data[end:]) if end < len(data) else None


class RunLedger:
    """An append-only JSONL file of result and claim records.

    >>> ledger = RunLedger("build/sweep-ledger.jsonl")   # doctest: +SKIP
    >>> ledger.append(record)                            # doctest: +SKIP
    >>> ledger.completed_keys()                          # doctest: +SKIP
    {'4f1f4c0e...'}
    """

    def __init__(self, path: str | os.PathLike,
                 retry: RetryPolicy | None = None):
        self.path = pathlib.Path(path)
        #: Policy for transient append/fsync failures; ``None`` disables
        #: retries (every I/O error is immediately fatal).
        self.retry = retry
        self._view = _LedgerView()
        self._lock = threading.Lock()

    def exists(self) -> bool:
        return self.path.is_file()

    # -- write -----------------------------------------------------------------

    def _retrying(self, fn):
        if self.retry is None:
            return fn()
        return self.retry.call(fn, key=str(self.path))

    def _append_doc(self, doc: dict) -> None:
        """Durably append one line: a single ``O_APPEND`` write, then fsync.

        The single ``os.write`` of the whole line is the concurrency
        contract: POSIX guarantees ``O_APPEND`` writes are atomic with
        respect to the file offset, so two workers appending to one
        ledger can never interleave bytes mid-line. The fsync is the
        durability contract — the ledger's one job is surviving the
        sweep process dying at an arbitrary instant.

        Failure handling is asymmetric around the point the row lands on
        disk. A raised ``os.write`` wrote nothing, so the whole append
        may be retried; a *short* write (ENOSPC) left a partial row, so
        we terminate the garbage line (readers skip it) and raise
        :class:`~repro.errors.LedgerWriteError` — never re-append, the
        bytes are already there. Likewise an fsync failure is retried on
        the same fd only, and exhausting those retries raises
        ``LedgerWriteError`` (not ``OSError``) precisely so the outer
        retry cannot re-append a row that is durably on disk already.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")

        def append_once() -> None:
            payload = faultpoint("ledger.append.write", data)
            fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
            try:
                written = os.write(fd, payload)
                if written != len(data):
                    try:
                        os.write(fd, b"\n")
                    except OSError:
                        pass
                    raise LedgerWriteError(
                        f"short append to {self.path}: {written} of "
                        f"{len(data)} bytes written (disk full?)"
                    )
                try:
                    self._retrying(
                        lambda: (faultpoint("ledger.append.fsync"),
                                 os.fsync(fd))
                    )
                except OSError as exc:
                    raise LedgerWriteError(
                        f"fsync of {self.path} failed after retries: {exc}"
                    ) from exc
            finally:
                os.close(fd)

        self._retrying(append_once)

    def append(self, record: LedgerRecord | ClaimRecord) -> None:
        """Durably append one result or claim record."""
        # Every field is a scalar: a shallow dict is what asdict returns.
        doc = {name: getattr(record, name) for name in _field_names(type(record))}
        if isinstance(record, ClaimRecord):
            doc["kind"] = "claim"
        self._append_doc(doc)

    # -- read ------------------------------------------------------------------

    def _read(self) -> tuple[_LedgerView, Entry | None]:
        """Bring the view up to date; return it and the unterminated tail.

        The caller holds ``self._lock``. The cached view is kept only
        while the file is the same inode, no shorter than the parsed
        offset, and still holds the anchor bytes just before it; anything
        else (replacement, truncation, a rewrite in place) re-reads the
        whole file.
        """
        view = self._view
        try:
            fh = open(self.path, "rb")
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            # No ledger file (yet): nothing recorded.
            self._view = _LedgerView()
            return self._view, None
        with fh:
            st = os.fstat(fh.fileno())
            ident = (st.st_dev, st.st_ino)
            valid = ident == view.ident and st.st_size >= view.offset
            if valid:
                fh.seek(view.offset - len(view.anchor))
                data = fh.read()
                valid = data.startswith(view.anchor)
            if valid:
                data = data[len(view.anchor):]
            else:
                view = self._view = _LedgerView(ident)
                fh.seek(0)
                data = fh.read()
        return view, view.parse(data)

    def position(self) -> int:
        """The byte offset this instance has read the ledger up to.

        No file I/O: the value is the view's, as of the last read. Note
        it before a store lookup and pass it to :meth:`acquire` as
        ``since`` — every row appended after the lookup starts at or
        beyond it.
        """
        with self._lock:
            return self._view.read_to

    def entries(self) -> list[Entry]:
        """Every parseable record — results *and* claims — in append order.

        Unparseable lines — a line truncated by a crash, undecodable
        bytes, a valid-JSON row missing core schema fields (crash
        mid-field-fsync), manual edits — are skipped rather than fatal:
        the ledger is a recovery aid, and a skipped line merely
        re-prices one scenario.
        """
        with self._lock:
            view, tail = self._read()
            out = list(view.entries)
        if tail is not None:
            out.append(tail)
        return out

    def records(self) -> list[LedgerRecord]:
        """Every parseable *result* record, in append order."""
        return [e for e in self.entries() if isinstance(e, LedgerRecord)]

    def claims(self) -> list[ClaimRecord]:
        """Every parseable *claim* record, in append order."""
        return [e for e in self.entries() if isinstance(e, ClaimRecord)]

    def completed_keys(self) -> set[str]:
        """Cache keys of every scenario the ledger records as ``ok``.

        Errored records are deliberately excluded — resuming a sweep
        retries failures (the crash that interrupted the run may well be
        what broke them).
        """
        with self._lock:
            view, tail = self._read()
            keys = {key for key in view.done if key}
        if isinstance(tail, LedgerRecord) and tail.status == "ok" and tail.key:
            keys.add(tail.key)
        return keys

    def open_claims(self) -> dict[str, list[ClaimRecord]]:
        """Per-key claims not yet closed by a *later* result record.

        A result row (ok or error) closes every claim for its key that
        precedes it in the file; claims appended after the last result
        start a fresh claim cycle, unless an ``ok`` row voided them (see
        :class:`ClaimRecord`). The returned lists preserve file order —
        the arbitration order.
        """
        with self._lock:
            view, tail = self._read()
            held = {key: list(claims) for key, claims in view.open_claims.items()}
            if tail is not None:
                _fold(tail, view.offset, held, dict(view.done))
        return held

    def _key_state(
        self, key: str
    ) -> tuple[list[ClaimRecord], tuple[int, LedgerRecord] | None]:
        """``key``'s open claims and latest ``ok`` row (with its offset)."""
        with self._lock:
            view, tail = self._read()
            held = {key: list(view.open_claims.get(key, ()))}
            done = {key: view.done[key]} if key in view.done else {}
            if tail is not None and tail.key == key:
                _fold(tail, view.offset, held, done)
        return held.get(key, []), done.get(key)

    # -- coordination ----------------------------------------------------------

    def acquire(
        self,
        scenario_id: str,
        key: str,
        worker: str,
        *,
        shard: str | None = None,
        lease_timeout_s: float = 300.0,
        now: float | None = None,
        since: int = 0,
    ) -> ClaimDecision:
        """Try to claim ``key`` for ``worker``; first live claim wins.

        Protocol: read the key's state; if another worker already holds
        a live claim, defer. Otherwise append our claim and *re-read* —
        two workers can race past the first check, but ``O_APPEND``
        gives their claim rows a total file order, and both sides agree
        the earliest live claimant owns the scenario. The loser simply
        defers; nothing is ever priced twice.

        **Finished keys.** ``since`` is the :meth:`position` the caller
        noted before looking the key up in the store (``0``, the
        default, counts every row). If either read finds an ``ok`` row
        for ``key`` at or after ``since``, another worker finished the
        key after that lookup: the answer is ``owned=False,
        finished=True`` with the finisher as holder, and the caller
        should load the key from the store. A claim this call already
        appended is void by the same rule, so it never reads as open.
        An ``ok`` row *before* ``since`` does not count: if the store
        still lacks the key, that row is stale and the key is arbitrated
        like any other.

        A stale claim (latest heartbeat older than ``lease_timeout_s``)
        marks a crashed worker: the scenario is re-issued to us, with
        ``reissued=True`` so progress reporting can account for it.
        """
        if now is None:
            now = time.time()

        def owner(claims: list[ClaimRecord]) -> ClaimRecord | None:
            # Workers in order of first appearance; each worker's
            # liveness is judged by its *latest* heartbeat.
            order: list[str] = []
            latest: dict[str, ClaimRecord] = {}
            for c in claims:
                if c.worker not in latest:
                    order.append(c.worker)
                latest[c.worker] = c
            for w in order:
                if now - latest[w].ts < lease_timeout_s:
                    return latest[w]
            return None

        existing, done = self._key_state(key)
        if done is not None and done[0] >= since:
            return ClaimDecision(owned=False, holder=done[1].worker, finished=True)
        holder = owner(existing)
        if holder is not None and holder.worker != worker:
            return ClaimDecision(owned=False, holder=holder.worker)
        reissued = any(c.worker != worker for c in existing)
        self.append(ClaimRecord(
            scenario_id=scenario_id, key=key, worker=worker, ts=now,
            shard=shard, since=since,
        ))
        # Arbitrate on the post-append file order: whoever's claim row
        # landed first (and is still live) owns the scenario.
        existing, done = self._key_state(key)
        if done is not None and done[0] >= since:
            return ClaimDecision(owned=False, holder=done[1].worker, finished=True)
        winner = owner(existing)
        if winner is None or winner.worker != worker:
            return ClaimDecision(
                owned=False, holder=None if winner is None else winner.worker
            )
        return ClaimDecision(owned=True, reissued=reissued)

    def heartbeat(self, claim: ClaimRecord, now: float | None = None) -> None:
        """Refresh a held claim's lease by appending a new timestamp."""
        faultpoint("ledger.heartbeat")
        self.append(dataclasses.replace(
            claim, ts=time.time() if now is None else now, since=None
        ))

    def __len__(self) -> int:
        return len(self.records())


# -- merging -------------------------------------------------------------------


@dataclass(frozen=True)
class MergedRow:
    """One scenario of the canonical merged ledger.

    Only deterministic fields survive the merge: identity, status, the
    scheduled latency, the artifact digest, and (for failures) the
    exception message. Volatile per-run fields — elapsed seconds,
    worker ids, cache/resume provenance, tracebacks — are dropped, so
    the merged rows are a pure function of the grid: byte-identical
    whether produced by one serial sweep or N crash-riddled shards.
    """

    scenario_id: str
    key: str
    status: str
    latency_ms: float | None
    artifact_digest: str | None
    error: str | None

    def doc(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class SourceStats:
    """Per-input accounting of one merged ledger."""

    path: str
    results: int
    ok: int
    errors: int
    fresh: int                 # priced in this ledger (not cached/resumed)
    claims: int
    reissued: int
    open_claims: int           # claims never closed by a result


@dataclass
class LedgerMergeResult:
    """The canonical fold of N shard ledgers.

    ``rows`` is sorted by scenario id — one row per scenario, ``ok``
    preferred over ``error`` when shards disagree (a retry that
    succeeded wins). ``double_priced`` lists keys that were *freshly*
    priced by more than one worker: harmless for correctness (their
    digests were proven identical) but evidence that shard partitioning
    or claim coordination leaked work.
    """

    rows: list[MergedRow] = field(default_factory=list)
    sources: list[SourceStats] = field(default_factory=list)
    double_priced: list[str] = field(default_factory=list)
    open_claims: list[ClaimRecord] = field(default_factory=list)

    @property
    def n_ok(self) -> int:
        return sum(1 for r in self.rows if r.status == "ok")

    @property
    def n_errors(self) -> int:
        return sum(1 for r in self.rows if r.status != "ok")

    def canonical_ledger_text(self) -> str:
        """The merged ledger as canonical JSONL (sorted, minimal rows)."""
        return "".join(
            json.dumps(row.doc(), sort_keys=True) + "\n" for row in self.rows
        )

    def report_doc(self) -> dict:
        """The canonical merged report: counts plus every merged row.

        Deliberately excludes wall-clock, worker ids, and per-source
        stats — this document is the byte-identity surface ("a merged
        distributed sweep equals a serial sweep"), so only deterministic
        fields belong in it.
        """
        return {
            "format": MERGE_FORMAT_VERSION,
            "scenarios": len(self.rows),
            "ok": self.n_ok,
            "errors": self.n_errors,
            "rows": [row.doc() for row in self.rows],
        }

    def report_text(self) -> str:
        return json.dumps(self.report_doc(), indent=2, sort_keys=True) + "\n"


def merge_ledgers(
    ledgers: Sequence[RunLedger | str | os.PathLike],
) -> LedgerMergeResult:
    """Fold N shard ledgers into one canonical result set.

    Conflict rule: two ``ok`` rows for the same key whose artifact
    digests are both recorded and *differ* raise
    :class:`~repro.errors.MergeConflictError` — compilation is
    deterministic, so differing artifacts for one scenario mean a
    corrupted store, a version-skewed worker, or a broken cache key,
    and silently picking one would bury it.
    """
    sources: list[SourceStats] = []
    by_key: dict[str, list[LedgerRecord]] = {}
    sid_of: dict[str, str] = {}
    all_open: list[ClaimRecord] = []
    for item in ledgers:
        ledger = item if isinstance(item, RunLedger) else RunLedger(item)
        records = ledger.records()
        claims = ledger.claims()
        open_claims = ledger.open_claims()
        sources.append(SourceStats(
            path=str(ledger.path),
            results=len(records),
            ok=sum(1 for r in records if r.status == "ok"),
            errors=sum(1 for r in records if r.status != "ok"),
            fresh=sum(
                1 for r in records
                if r.status == "ok" and not r.cached and not r.resumed
                and not r.recovered
            ),
            claims=len(claims),
            reissued=sum(1 for r in records if r.reissued),
            open_claims=sum(len(v) for v in open_claims.values()),
        ))
        for held in open_claims.values():
            all_open.extend(held)
        for rec in records:
            if not rec.key:
                continue
            by_key.setdefault(rec.key, []).append(rec)
            sid_of.setdefault(rec.key, rec.scenario_id)

    result = LedgerMergeResult(sources=sources, open_claims=all_open)
    for key, recs in by_key.items():
        ok = [r for r in recs if r.status == "ok"]
        digests = sorted({
            r.artifact_digest for r in ok if r.artifact_digest is not None
        })
        if len(digests) > 1:
            raise MergeConflictError(
                f"scenario {sid_of[key]!r} (key {key}) has conflicting "
                f"artifact digests across ledgers: {', '.join(digests)} — "
                "deterministic compilation forbids this; a store is "
                "corrupted or a worker ran skewed code"
            )
        if ok:
            pick = ok[0]
            row = MergedRow(
                scenario_id=pick.scenario_id, key=key, status="ok",
                latency_ms=pick.latency_ms,
                artifact_digest=digests[0] if digests else None,
                error=None,
            )
        else:
            pick = recs[-1]
            row = MergedRow(
                scenario_id=pick.scenario_id, key=key, status="error",
                latency_ms=None, artifact_digest=None, error=pick.error,
            )
        result.rows.append(row)
        # Recovered rows (recompiles after corruption quarantine) are
        # not fresh pricings: the digest check above already proved they
        # reproduced the original bytes.
        fresh = [
            r for r in ok if not r.cached and not r.resumed and not r.recovered
        ]
        if len(fresh) > 1:
            result.double_priced.append(key)
    result.rows.sort(key=lambda r: (r.scenario_id, r.key))
    result.double_priced.sort()
    return result
