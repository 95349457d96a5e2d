"""Content-addressed artifact store for compiled scenarios.

A scenario — one (workload config, device, precision, engine knobs)
point — deterministically produces one compiled design: the execution
trace, the DSE report with its Pareto frontier, and the backend's
resource/latency numbers. This module persists those artifacts on disk
under a content hash of the *inputs*, so any re-compilation of an
already-seen scenario is a directory read instead of a trace extraction
plus a full design-space sweep.

Cache key
---------
Entries are filed under :func:`repro.flow.sweep.scenario_key`, the hash
of the canonical JSON of

* the fully-resolved workload config (defaults + overrides — changing a
  default in code invalidates correctly),
* the target device's complete resource budget (not just its name),
* the deployment precision pair,
* the engine knobs that can change results: ``iter_max``, ``loops``,
  ``max_pes``, ``clock_mhz``, the H/W sweep ranges, and the evaluation
  ``backend`` (``analytic`` vs ``schedule`` price designs differently,
  so their artifacts must never collide),
* the accuracy-evaluation request, when enabled: ``{n_problems, seed}``
  (the accuracy *value* is an output, never part of the key; with the
  knob off the block is ``None`` so accuracy-free keys are stable),

plus :data:`ARTIFACT_FORMAT_VERSION` (the on-disk schema) and
:data:`ENGINE_CACHE_EPOCH` (the cost-model generation). Knobs that are
guaranteed *not* to change results are deliberately excluded:
``pareto_k`` (the store always keeps the full frontier; truncation
happens at render time).
See DESIGN.md "Sweep & artifact cache".

Layout
------
``root/<key[:2]>/<key>/`` holds ``meta.json`` (the key's input document
plus ``files``, a fingerprint of each artifact file's bytes),
``trace.json`` (lossless, via :mod:`repro.trace.serialize`),
``design_config.json`` (via :mod:`repro.dse.config`), and
``report.json`` (Phase I/II results, design-space accounting, the full
Pareto frontier, resource estimate, and schedule summary). Entries are
written to a temp directory and renamed into place, so a crashed writer
never leaves a half-entry a reader could mistake for a hit; unreadable
or version-skewed entries count as misses and are overwritten by the
next store.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import tempfile
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field
from typing import TYPE_CHECKING

from ..arch.resources import ResourceEstimate
from ..errors import MergeConflictError
from ..faults import RetryPolicy, faultpoint
from ..dse.config import (
    DesignConfig,
    ExecutionMode,
    design_config_from_json,
    design_config_to_json,
)
from ..dse.accuracy import AccuracyResult
from ..dse.engine import DseReport, ParetoFrontier, ParetoPoint
from ..model.backend import BackendInfo
from ..dse.phase1 import Phase1Result
from ..dse.phase2 import Phase2Result
from ..model.designspace import DesignSpaceSize
from ..trace.opnode import Trace
from ..trace.serialize import trace_fingerprint, trace_from_json, trace_to_json
from ..utils import jsonable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .nsflow import CompiledDesign

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ENGINE_CACHE_EPOCH",
    "StoreStats",
    "ScenarioArtifacts",
    "ArtifactStore",
    "FoldStats",
    "fold_stores",
]

#: On-disk schema version; bump when the artifact file layout changes.
#: v2: report.json gained the producing backend's ``{name, version}``.
#: v3: report.json gained the functional ``accuracy`` result (and each
#: Pareto point its ``accuracy`` stamp); the key document gained the
#: accuracy-evaluation request block.
#: meta.json's per-file ``files`` fingerprints came without a bump: the
#: version sits in every key document, so a bump would change every key.
#: An entry without them is version-skewed (a plain miss), and entries
#: keep ``trace_fingerprint`` so older readers still accept new ones.
ARTIFACT_FORMAT_VERSION = 3

#: Cost-model generation. Bump whenever the analytical models, the DSE
#: semantics, or the backend estimators change in a way that can alter
#: results for identical inputs — every previously cached scenario then
#: misses and recompiles.
#: Epoch 2: the evaluation-backend seam — the ``backend`` knob joined
#: the key document, so pre-seam entries (which never recorded one)
#: must all miss.
ENGINE_CACHE_EPOCH = 2


@dataclass(frozen=True)
class StoreStats:
    """Counters of one store's lifetime (reset only with the instance).

    ``corrupt`` counts entries that were *present but failed* the
    read-time audit (a file fingerprint mismatch, truncated JSON, bad
    schema) — a strict subset of ``misses``; ``quarantined`` counts
    how many of those were successfully moved to ``<root>/quarantine/``
    for post-mortem instead of being silently overwritten.
    """

    hits: int
    misses: int
    stores: int
    corrupt: int = 0
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class _Unbuilt:
    """A loaded field's pending build: ``build(*args)`` maps field names
    to the values it builds (one build may fill several fields)."""

    __slots__ = ("build", "args")

    def __init__(self, build, *args):
        self.build = build
        self.args = args


class _Lazy:
    """A field holding its value, or an :class:`_Unbuilt` run on first read.

    The first read runs the build and stores every value it returns in
    place of the pending build, so each build runs once and the bytes it
    held go with it. A field with a default passes it as ``default``:
    ``@dataclass`` makes the descriptor itself the ``__init__`` default,
    which ``__set__`` stores as ``default``.
    """

    def __init__(self, default=MISSING):
        self.default = default

    def __set_name__(self, owner, name: str) -> None:
        self.slot = f"_{name}"

    def __get__(self, obj, owner=None):
        if obj is None:     # class access: tells @dataclass the default
            if self.default is MISSING:
                raise AttributeError(self.slot)
            return self.default
        value = obj.__dict__[self.slot]
        if type(value) is _Unbuilt:
            for name, built in value.build(*value.args).items():
                obj.__dict__[f"_{name}"] = built
            value = obj.__dict__[self.slot]
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.slot] = self.default if value is self else value


@dataclass(frozen=True)
class ScenarioArtifacts:
    """Everything a sweep consumer needs from one compiled scenario.

    This is the cacheable subset of :class:`~repro.flow.nsflow.
    CompiledDesign`: the trace, the DSE report (with the *full* Pareto
    frontier), the resource estimate, and the scheduled latency. The
    generated RTL header / host code are not stored — they are cheap,
    pure functions of ``config`` and the graph, which itself rebuilds
    deterministically from ``trace``.

    A fresh compile's artifacts hold real values and ``entry_digest``
    ``None``. A loaded entry holds ``total_cycles`` and ``latency_ms``
    and the audited bytes it was read from; it builds the rest on first
    read (:meth:`ArtifactStore.load`): ``trace`` from ``trace.json``;
    ``config``, ``report`` and ``resources`` together, from
    ``design_config.json`` and ``report.json``; and ``entry_digest``,
    the content digest of those bytes. ``==`` builds what it compares
    and ignores ``entry_digest``.
    """

    trace: Trace = _Lazy()
    config: DesignConfig = _Lazy()
    report: DseReport = _Lazy()
    resources: ResourceEstimate = _Lazy()
    total_cycles: int
    latency_ms: float
    entry_digest: str | None = field(default=_Lazy(None), compare=False)


def _report_doc(design: "CompiledDesign") -> dict:
    """Serialize the cacheable result fields of a compiled design."""
    dse = design.dse
    frontier = dse.pareto
    return {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "backend": None if dse.backend is None else jsonable(dse.backend),
        "accuracy": None if dse.accuracy is None else jsonable(dse.accuracy),
        "phase1": jsonable(dse.phase1),
        "phase2": jsonable(dse.phase2),
        "space": jsonable(dse.space),
        "pareto": None if frontier is None else {
            "points": [jsonable(p) for p in frontier.points],
            "geometries_evaluated": frontier.geometries_evaluated,
            "non_dominated": frontier.non_dominated,
            "dominated": frontier.dominated,
        },
        "resources": jsonable(design.resources),
        "schedule": {
            "total_cycles": design.schedule.total_cycles,
            "latency_ms": design.latency_ms,
        },
    }


def _frontier_from_doc(doc: dict | None) -> ParetoFrontier | None:
    if doc is None:
        return None
    points = tuple(
        ParetoPoint(
            h=p["h"], w=p["w"], n_sub=p["n_sub"],
            mode=ExecutionMode(p["mode"]),
            nl_bar=p["nl_bar"], nv_bar=p["nv_bar"],
            cycles=p["cycles"], area=p["area"],
            energy_proxy=p["energy_proxy"],
            accuracy=p.get("accuracy"),
        )
        for p in doc["points"]
    )
    return ParetoFrontier(
        points=points,
        geometries_evaluated=doc["geometries_evaluated"],
        non_dominated=doc["non_dominated"],
        dominated=doc["dominated"],
    )


def _trace_field(data: bytes) -> dict:
    return {"trace": trace_from_json(data.decode("utf-8"))}


def _design_fields(config_data: bytes, report_data: bytes) -> dict:
    """``config``, ``report`` and ``resources`` from their audited bytes."""
    config = design_config_from_json(config_data.decode("utf-8"))
    report = json.loads(report_data)
    p2 = report["phase2"]
    dse_report = DseReport(
        config=config,
        phase1=Phase1Result(**report["phase1"]),
        phase2=Phase2Result(
            nl=tuple(p2["nl"]),
            nv=tuple(p2["nv"]),
            t_parallel=p2["t_parallel"],
            iterations_run=p2["iterations_run"],
            improved=p2["improved"],
        ),
        space=DesignSpaceSize(**report["space"]),
        pareto=_frontier_from_doc(report["pareto"]),
        backend=(
            None if report.get("backend") is None
            else BackendInfo(**report["backend"])
        ),
        accuracy=(
            None if report.get("accuracy") is None
            else AccuracyResult(**report["accuracy"])
        ),
    )
    return {
        "config": config,
        "report": dse_report,
        "resources": ResourceEstimate(**report["resources"]),
    }


def _digest_field(files: dict[str, bytes]) -> dict:
    return {"entry_digest": _files_digest(files)}


def _read_file(path: str) -> bytes:
    """A file's bytes, in one unbuffered read."""
    with open(path, "rb", buffering=0) as f:
        return f.read()


def _fingerprint(data: bytes) -> str:
    """An artifact file's audit fingerprint, recorded in ``meta.json``."""
    return hashlib.sha256(data).hexdigest()[:32]


def _files_digest(files: dict[str, bytes]) -> str:
    """Content digest over ``(name, bytes)`` of an entry's artifact files."""
    h = hashlib.sha256()
    for name, data in files.items():
        h.update(name.encode("utf-8"))
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()[:32]


class ArtifactStore:
    """Content-addressed, crash-tolerant scenario cache on the filesystem.

    >>> store = ArtifactStore("build/sweep-cache")      # doctest: +SKIP
    >>> hit = store.load(key)                           # doctest: +SKIP
    >>> if hit is None:                                 # doctest: +SKIP
    ...     store.store(key, compiled_design, meta_doc)

    ``load`` never raises on a bad entry: missing files, truncated JSON,
    edited bytes, or a format/epoch mismatch all count as a miss (the
    entry will be rewritten by the next ``store``). Corruption is *not*
    silent, though: an entry that is present but fails the read-time
    audit is counted (``corrupt``) and moved aside to
    ``<root>/quarantine/<key>`` so the recompile cannot destroy the
    evidence. Counters are exposed via :attr:`stats` so sweeps can prove
    warm-cache behavior.
    """

    _META = "meta.json"
    _TRACE = "trace.json"
    _CONFIG = "design_config.json"
    _REPORT = "report.json"
    #: The artifact files, in write, read and digest order.
    _FILES = (_TRACE, _CONFIG, _REPORT)
    #: Quarantine directory name; deliberately longer than the 2-char
    #: fan-out prefix so ``keys()``' ``??/*`` glob never sees it.
    _QUARANTINE = "quarantine"

    def __init__(self, root: str | os.PathLike,
                 retry: RetryPolicy | None = None):
        self.root = pathlib.Path(root)
        #: Policy for transient write failures; ``None`` disables retries.
        self.retry = retry
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.quarantined = 0

    # -- addressing ------------------------------------------------------------

    def path_for(self, key: str) -> pathlib.Path:
        """Directory an entry with ``key`` lives in (two-level fan-out)."""
        return self.root / key[:2] / key

    def has(self, key: str) -> bool:
        """Entry-existence probe; does not validate or touch counters."""
        return (self.path_for(key) / self._REPORT).is_file()

    def keys(self) -> list[str]:
        """Every entry key present on disk, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.parent.name for p in self.root.glob(f"??/*/{self._REPORT}")
        )

    def entry_digest(self, key: str) -> str | None:
        """Content digest of an entry's artifact files, or ``None`` if absent.

        Hashes the bytes of ``trace.json``, ``design_config.json``, and
        ``report.json`` (``meta.json`` is derivable from the key and
        excluded). Deterministic compilation makes this digest a pure
        function of the cache key, which is exactly what distributed
        merges exploit: the same key with two different digests is a
        conflict, never a legitimate outcome.
        """
        path = self.path_for(key)
        files = {}
        for name in self._FILES:
            f = path / name
            if not f.is_file():
                return None
            files[name] = f.read_bytes()
        return _files_digest(files)

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob(f"??/*/{self._REPORT}"))

    # -- read ------------------------------------------------------------------

    def load(self, key: str) -> ScenarioArtifacts | None:
        """Return the cached artifacts for ``key``, or ``None`` on a miss.

        Three distinct miss shapes, deliberately kept apart:

        * *absent* (no readable ``meta.json`` file: no entry directory,
          no file, or a directory in its place) — the ordinary
          cold-cache miss;
        * *version-skewed* (older format/epoch, or no per-file
          fingerprints) — a valid entry from older code, silently
          superseded by the next store;
        * *corrupt* (present but unreadable, failing the fingerprint
          audit, or a ``report.json`` that does not parse or lacks its
          format version or ``schedule`` block) — counted, quarantined
          to ``<root>/quarantine/<key>``, and then treated as a miss so
          the caller recompiles.

        Each file is read once, and every check above runs before a hit
        is returned. A hit holds ``total_cycles`` and ``latency_ms``
        from the schedule block and builds nothing else until it is
        read: ``trace``, then ``config``/``report``/``resources``
        (together) and ``entry_digest`` are built from the audited bytes
        on first read (see :class:`ScenarioArtifacts`). Those bytes match
        the fingerprints ``store()`` recorded when it wrote them, so a
        deferred build parses exactly what ``store()`` serialized and
        cannot fail.
        """
        path = os.path.join(self.root, key[:2], key, "")
        try:
            try:
                data = _read_file(path + self._META)
            except (FileNotFoundError, NotADirectoryError, IsADirectoryError):
                self.misses += 1
                return None
            meta = json.loads(faultpoint("artifacts.load.read", data))
            if not isinstance(meta, dict):
                raise ValueError("meta.json is not an object")
            if (meta.get("format") != ARTIFACT_FORMAT_VERSION
                    or meta.get("epoch") != ENGINE_CACHE_EPOCH
                    or "files" not in meta):
                # Version skew is not corruption: the entry was valid
                # for the code that wrote it.
                self.misses += 1
                return None
            # Integrity audit: every file must still hash to what was
            # stored (guards against in-place edits of an entry's files,
            # which the content key cannot see).
            files = {}
            for name in self._FILES:
                data = faultpoint("artifacts.load.read", _read_file(path + name))
                if _fingerprint(data) != meta["files"][name]:
                    raise ValueError(f"{name} fingerprint mismatch")
                files[name] = data
            report = json.loads(files[self._REPORT])
            if report.get("format_version") != ARTIFACT_FORMAT_VERSION:
                raise ValueError(
                    f"unsupported report format {report.get('format_version')!r}"
                )
            schedule = report["schedule"]
            total_cycles = schedule["total_cycles"]
            latency_ms = schedule["latency_ms"]
        except (OSError, ValueError, TypeError, KeyError) as exc:
            # Present but unreadable: corruption, never a silent miss.
            self.misses += 1
            self.corrupt += 1
            self._quarantine(key, reason=f"{type(exc).__name__}: {exc}")
            return None
        self.hits += 1
        design = _Unbuilt(_design_fields, files[self._CONFIG], files[self._REPORT])
        return ScenarioArtifacts(
            trace=_Unbuilt(_trace_field, files[self._TRACE]),
            config=design,
            report=design,
            resources=design,
            total_cycles=total_cycles,
            latency_ms=latency_ms,
            entry_digest=_Unbuilt(_digest_field, files),
        )

    def _quarantine(self, key: str, reason: str = "") -> None:
        """Move a corrupt entry aside (best-effort) for post-mortem."""
        src = self.path_for(key)
        dest = self.root / self._QUARANTINE / key
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            if dest.exists():
                shutil.rmtree(dest)
            os.replace(src, dest)
            (dest / "QUARANTINE.json").write_text(
                json.dumps({"key": key, "reason": reason}, indent=2)
            )
        except OSError:
            # An entry we cannot move is still a miss; the recompile's
            # store() will overwrite it in place.
            return
        self.quarantined += 1

    def quarantined_keys(self) -> list[str]:
        """Keys currently sitting in the quarantine directory, sorted."""
        qdir = self.root / self._QUARANTINE
        if not qdir.is_dir():
            return []
        return sorted(p.name for p in qdir.iterdir() if p.is_dir())

    # -- write -----------------------------------------------------------------

    def store(self, key: str, design: "CompiledDesign", key_doc: dict) -> str:
        """Persist one compiled design under ``key``; returns its digest.

        ``key_doc`` is the input document the key was hashed from; it is
        stored in ``meta.json`` so an entry is self-describing (and so
        format/epoch checks need no re-hash on load). The returned digest
        is :meth:`entry_digest` of the bytes just written, computed from
        them in memory rather than read back.
        """
        final = self.path_for(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        files = {
            self._TRACE: trace_to_json(design.trace).encode("utf-8"),
            self._CONFIG: design_config_to_json(design.config).encode("utf-8"),
            self._REPORT: json.dumps(_report_doc(design), indent=2).encode("utf-8"),
        }
        meta = {
            "format": ARTIFACT_FORMAT_VERSION,
            "epoch": ENGINE_CACHE_EPOCH,
            "key": key,
            "trace_fingerprint": trace_fingerprint(design.trace),
            "files": {name: _fingerprint(data) for name, data in files.items()},
            "inputs": key_doc,
        }
        meta_bytes = json.dumps(meta, indent=2).encode("utf-8")

        def store_once() -> None:
            # Each attempt gets a fresh tmp dir, so a failed write can
            # be retried without ever exposing a half-entry.
            tmp = pathlib.Path(tempfile.mkdtemp(
                prefix=f".tmp-{key[:8]}-", dir=final.parent
            ))
            ok = False
            try:
                faultpoint("artifacts.store.write")
                (tmp / self._META).write_bytes(meta_bytes)
                for name, data in files.items():
                    (tmp / name).write_bytes(data)
                if final.exists():
                    shutil.rmtree(final)
                os.replace(tmp, final)
                ok = True
            finally:
                if not ok:
                    shutil.rmtree(tmp, ignore_errors=True)

        if self.retry is None:
            store_once()
        else:
            self.retry.call(store_once, key=key)
        self.stores += 1
        return _files_digest(files)

    # -- accounting ------------------------------------------------------------

    @property
    def stats(self) -> StoreStats:
        return StoreStats(hits=self.hits, misses=self.misses,
                          stores=self.stores, corrupt=self.corrupt,
                          quarantined=self.quarantined)


@dataclass(frozen=True)
class FoldStats:
    """Accounting of one :func:`fold_stores` pass."""

    copied: int
    duplicates: int              # same key, same digest — skipped
    missing: tuple[str, ...]     # expected keys absent from every source


def fold_stores(
    sources: Sequence[ArtifactStore | str | os.PathLike],
    dest: ArtifactStore | str | os.PathLike,
    *,
    expected: dict[str, str | None] | None = None,
) -> FoldStats:
    """Fold N shard artifact stores into one destination store.

    Every entry of every source is copied into ``dest`` (tmp-dir +
    rename, same crash-tolerance as :meth:`ArtifactStore.store`). A key
    present in several sources — or already in ``dest`` — must carry an
    identical content digest; a mismatch raises
    :class:`~repro.errors.MergeConflictError`, because deterministic
    compilation forbids two legitimate artifact sets for one key.

    ``expected`` optionally maps keys to the digests the merged *ledger*
    recorded: folded entries are verified against it (a recorded digest
    that differs from the store's bytes is a conflict), and keys whose
    entry is absent from every source are counted in ``missing`` — the
    merged ledger then overstates the store, exactly the
    "ledger is an index, the store is the truth" caveat resume has.
    """
    src_stores = [
        s if isinstance(s, ArtifactStore) else ArtifactStore(s)
        for s in sources
    ]
    dest_store = dest if isinstance(dest, ArtifactStore) else ArtifactStore(dest)
    copied = duplicates = 0
    seen: dict[str, str] = {}
    for store in src_stores:
        for key in store.keys():
            digest = store.entry_digest(key)
            if digest is None:
                continue
            if expected is not None and key in expected \
                    and expected[key] is not None and expected[key] != digest:
                raise MergeConflictError(
                    f"store {store.root} entry {key} digest {digest} does "
                    f"not match the merged ledger's {expected[key]}"
                )
            prior = seen.get(key) or dest_store.entry_digest(key)
            if prior is not None:
                if prior != digest:
                    raise MergeConflictError(
                        f"artifact stores disagree for key {key}: "
                        f"{prior} vs {digest} ({store.root})"
                    )
                duplicates += 1
                continue
            src = store.path_for(key)
            final = dest_store.path_for(key)
            final.parent.mkdir(parents=True, exist_ok=True)
            tmp = pathlib.Path(tempfile.mkdtemp(
                prefix=f".tmp-{key[:8]}-", dir=final.parent
            ))
            folded = False
            try:
                for item in sorted(src.iterdir()):
                    shutil.copy2(item, tmp / item.name)
                if final.exists():
                    shutil.rmtree(final)
                os.replace(tmp, final)
                folded = True
            finally:
                if not folded:
                    shutil.rmtree(tmp, ignore_errors=True)
            seen[key] = digest
            copied += 1
    missing: tuple[str, ...] = ()
    if expected is not None:
        present = set(seen) | {
            k for k in expected if dest_store.entry_digest(k) is not None
        }
        missing = tuple(sorted(k for k in expected if k not in present))
    return FoldStats(copied=copied, duplicates=duplicates, missing=missing)
