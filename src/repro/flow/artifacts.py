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
:func:`scenario_cache_key` hashes the canonical JSON of

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
guaranteed *not* to change results are deliberately excluded: ``jobs``
(bit-identical for any worker count) and ``pareto_k`` (the store always
keeps the full frontier; truncation happens at render time).
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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..arch.resources import FpgaDevice, ResourceEstimate
from ..errors import MergeConflictError, NSFlowError
from ..faults import RetryPolicy, faultpoint
from ..dse.config import (
    DesignConfig,
    ExecutionMode,
    design_config_from_json,
    design_config_to_json,
)
from ..dse.accuracy import AccuracyResult
from ..dse.engine import (
    DEFAULT_CLOCK_MHZ,
    DEFAULT_RANGE_H,
    DEFAULT_RANGE_W,
    DseReport,
    ParetoFrontier,
    ParetoPoint,
)
from ..model.backend import BackendInfo, backend_version
from ..dse.phase1 import Phase1Result
from ..dse.phase2 import Phase2Result
from ..model.designspace import DesignSpaceSize
from ..quant import MixedPrecisionConfig
from ..trace.opnode import Trace
from ..trace.serialize import trace_fingerprint, trace_from_json, trace_to_json
from ..utils import jsonable, stable_digest

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
    "scenario_cache_key",
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


def scenario_cache_key(
    *,
    workload: str,
    workload_config: dict,
    device: FpgaDevice,
    precision: MixedPrecisionConfig,
    iter_max: int,
    loops: int,
    max_pes: int,
    clock_mhz: float = DEFAULT_CLOCK_MHZ,
    range_h: tuple[int, int] = DEFAULT_RANGE_H,
    range_w: tuple[int, int] = DEFAULT_RANGE_W,
    backend: str = "analytic",
    accuracy: dict | None = None,
) -> str:
    """Content hash of everything that determines a scenario's artifacts."""
    return stable_digest(_key_doc(
        workload=workload,
        workload_config=workload_config,
        device=device,
        precision=precision,
        iter_max=iter_max,
        loops=loops,
        max_pes=max_pes,
        clock_mhz=clock_mhz,
        range_h=range_h,
        range_w=range_w,
        backend=backend,
        accuracy=accuracy,
    ), length=32)


def _key_doc(
    *,
    workload: str,
    workload_config: dict,
    device: FpgaDevice,
    precision: MixedPrecisionConfig,
    iter_max: int,
    loops: int,
    max_pes: int,
    clock_mhz: float,
    range_h: tuple[int, int],
    range_w: tuple[int, int],
    backend: str = "analytic",
    accuracy: dict | None = None,
) -> dict:
    return {
        "format": ARTIFACT_FORMAT_VERSION,
        "epoch": ENGINE_CACHE_EPOCH,
        "workload": {"name": workload, "config": workload_config},
        "device": jsonable(device),
        "precision": {
            "neural": precision.neural.value,
            "symbolic": precision.symbolic.value,
        },
        "engine": {
            "iter_max": iter_max,
            "loops": loops,
            "max_pes": max_pes,
            "clock_mhz": clock_mhz,
            "range_h": list(range_h),
            "range_w": list(range_w),
            # Result-affecting: backends price designs differently, so
            # their entries must never collide — and keying on the
            # version tag too means a backend whose pricing changes
            # invalidates exactly its own cached scenarios.
            "backend": {"name": backend, "version": backend_version(backend)},
        },
        # The accuracy *request* ({n_problems, seed} or None), never the
        # resulting value: entries with and without functional accuracy
        # must not collide, but the value itself is an output.
        "accuracy": accuracy,
    }


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


class _LazyTrace:
    """The ``trace`` field: a :class:`Trace`, or audited JSON parsed on read.

    A loaded entry passes its ``trace.json`` text, which matched the
    fingerprint recorded at store time and so is exactly what
    :func:`trace_to_json` wrote: the deferred parse cannot fail.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.slot = f"_{name}"

    def __get__(self, obj, owner=None):
        if obj is None:     # class access: tells @dataclass "no default"
            raise AttributeError(self.slot)
        value = obj.__dict__[self.slot]
        if isinstance(value, str):
            value = obj.__dict__[self.slot] = trace_from_json(value)
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class ScenarioArtifacts:
    """Everything a sweep consumer needs from one compiled scenario.

    This is the cacheable subset of :class:`~repro.flow.nsflow.
    CompiledDesign`: the trace, the DSE report (with the *full* Pareto
    frontier), the resource estimate, and the scheduled latency. The
    generated RTL header / host code are not stored — they are cheap,
    pure functions of ``config`` and the graph, which itself rebuilds
    deterministically from ``trace``.

    A loaded entry parses its trace on the first ``.trace`` read (no
    hit-path consumer reads it) and carries ``entry_digest``, the
    content digest of the bytes it was loaded from; a fresh compile's
    is ``None``, and ``==`` ignores it.
    """

    trace: Trace = _LazyTrace()
    config: DesignConfig
    report: DseReport
    resources: ResourceEstimate
    total_cycles: int
    latency_ms: float
    entry_digest: str | None = field(default=None, compare=False)


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


def _artifacts_from_docs(
    trace_text: str, config_text: str, report: dict, entry_digest: str
) -> ScenarioArtifacts:
    if report.get("format_version") != ARTIFACT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported report format {report.get('format_version')!r}"
        )
    config = design_config_from_json(config_text)
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
    return ScenarioArtifacts(
        trace=trace_text,
        config=config,
        report=dse_report,
        resources=ResourceEstimate(**report["resources"]),
        total_cycles=report["schedule"]["total_cycles"],
        latency_ms=report["schedule"]["latency_ms"],
        entry_digest=entry_digest,
    )


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

    def _read(self, path: pathlib.Path, name: str) -> bytes:
        """One file's bytes, routed through the read failpoint."""
        return faultpoint("artifacts.load.read", (path / name).read_bytes())

    def load(self, key: str) -> ScenarioArtifacts | None:
        """Return the cached artifacts for ``key``, or ``None`` on a miss.

        Three distinct miss shapes, deliberately kept apart:

        * *absent* (no ``meta.json``) — the ordinary cold-cache miss;
        * *version-skewed* (older format/epoch, or no per-file
          fingerprints) — a valid entry from older code, silently
          superseded by the next store;
        * *corrupt* (present but unreadable, failing the fingerprint
          audit, or schema-invalid) — counted, quarantined to
          ``<root>/quarantine/<key>``, and then treated as a miss so the
          caller recompiles.

        Each file is read once; the hit's ``entry_digest`` comes from
        the same audited bytes, and its trace is parsed on first read.
        """
        path = self.path_for(key)
        if not (path / self._META).is_file():
            self.misses += 1
            return None
        try:
            meta = json.loads(self._read(path, self._META))
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
                data = self._read(path, name)
                if _fingerprint(data) != meta["files"][name]:
                    raise ValueError(f"{name} fingerprint mismatch")
                files[name] = data
            artifacts = _artifacts_from_docs(
                files[self._TRACE].decode("utf-8"),
                files[self._CONFIG].decode("utf-8"),
                json.loads(files[self._REPORT]),
                _files_digest(files),
            )
        except (OSError, ValueError, TypeError, KeyError,
                NSFlowError) as exc:
            # NSFlowError covers the deserializers' own wrap types
            # (TraceError, ConfigError): a stored entry whose payload no
            # longer parses is corruption, whatever layer noticed first.
            # Present but unreadable: corruption, never a silent miss.
            self.misses += 1
            self.corrupt += 1
            self._quarantine(key, reason=f"{type(exc).__name__}: {exc}")
            return None
        self.hits += 1
        return artifacts

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
