"""Batched scenario-sweep orchestrator over the NSFlow toolchain.

The paper's headline claims are comparative — Table I workloads across
devices, precisions, and design points — but ``NSFlow.compile`` runs one
(workload, device) pair at a time. This module runs *grids* of end-to-end
compilations:

* :class:`ScenarioGrid` declares a cartesian product of workloads ×
  devices × mixed-precision presets × DSE knobs, with ``fnmatch``-style
  include/exclude filters over scenario ids;
* :func:`run_sweep` compiles every scenario in the calling process,
  isolates per-scenario failures (a bad scenario yields a recorded
  error, never an aborted sweep), and — given an
  :class:`~repro.flow.artifacts.ArtifactStore` — reuses any scenario the
  store has already seen, so overlapping or repeated grids only compile
  the delta. Several processes split one grid through ``shard``/
  ``worker`` and a shared ledger (the claim protocol below).

Two scale features ride on that determinism:

* **seed-range axes** — a workload axis entry ``synth:0-99`` expands to
  one scenario per seed (``seed`` config override), so a single grid
  sweeps hundreds of generated workloads (see
  :mod:`repro.workloads.synth`);
* **streaming + resume** — given a :class:`~repro.flow.ledger.RunLedger`,
  every outcome (including failures, with their tracebacks) is flushed
  to a JSONL file as it completes, and ``resume=True`` skips any
  scenario the ledger records as done and the store still holds — a
  killed sweep re-prices zero completed scenarios when re-run.

Determinism: scenarios are expanded and executed in declaration order
(workload-major, then device, precision, loops, iter_max, max_pes), and
each compilation is a pure function of its scenario, so a sweep's
results are a pure function of its grid.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import math
import os
import re
import signal
import threading
import time
import traceback as traceback_module
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..arch.resources import FPGA_DEVICES, FpgaDevice
from ..dse.accuracy import DEFAULT_ACCURACY_PROBLEMS, DEFAULT_ACCURACY_SEED
from ..dse.engine import (
    DEFAULT_CLOCK_MHZ,
    DEFAULT_RANGE_H,
    DEFAULT_RANGE_W,
)
from ..dse.timing import StageStat, stage_timings_since, timings_snapshot
from ..errors import ConfigError, ScenarioTimeoutError
from ..faults import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    faultpoint,
    fire_counts,
    retry_count,
)
from ..model.backend import EVALUATION_BACKENDS, backend_version
from ..quant import MIXED_PRECISION_PRESETS, MixedPrecisionConfig
from ..utils import jsonable, stable_digest
from ..workloads import available_workloads, build_workload, workload_config
from .artifacts import (
    ARTIFACT_FORMAT_VERSION,
    ENGINE_CACHE_EPOCH,
    ArtifactStore,
    ScenarioArtifacts,
    StoreStats,
)
from .ledger import ClaimRecord, LedgerRecord, RunLedger
from .nsflow import NSFlow

__all__ = [
    "ScenarioSpec",
    "ScenarioGrid",
    "ScenarioOutcome",
    "SweepResult",
    "expand_workload_axis",
    "parse_shard",
    "shard_index",
    "shard_filter",
    "scenario_key_doc",
    "scenario_key",
    "run_sweep",
    "DEFAULT_LEASE_TIMEOUT_S",
]

#: Default claim-lease timeout: how long a claimed scenario may go
#: without a heartbeat before other workers treat its owner as dead and
#: re-issue the work. Generous relative to per-scenario compile times —
#: re-issuing a scenario whose owner is alive merely wastes one
#: compilation (results stay correct; artifacts are deterministic), but
#: a tight lease plus a slow scenario would churn.
DEFAULT_LEASE_TIMEOUT_S = 300.0

#: Upper bound on one ``name:lo-hi`` axis entry's expansion. Purely a
#: footgun guard: a typo like ``synth:0-99999999`` should fail fast, not
#: enumerate forever.
MAX_SEED_AXIS_SCENARIOS = 10_000

_SEED_AXIS_RE = re.compile(r"^(?P<name>[^:]+):(?P<lo>\d+)(?:-(?P<hi>\d+))?$")


def expand_workload_axis(
    entry: str,
) -> list[tuple[str, tuple[tuple[str, object], ...]]]:
    """Expand one workload-axis entry into ``(name, extra_overrides)`` pairs.

    Plain registry names pass through unchanged (no extra overrides).
    ``name:lo-hi`` (or ``name:seed``) expands to one entry per seed in
    the inclusive range, each carrying a ``("seed", k)`` config
    override — the mechanism behind ``--workloads synth:0-99``. Works
    for any registered workload whose config has a ``seed`` field.
    """
    m = _SEED_AXIS_RE.match(entry)
    if m is None:
        if ":" in entry:
            raise ConfigError(
                f"bad seed-range axis {entry!r}; expected 'name:lo-hi' or "
                "'name:seed' with non-negative integer seeds"
            )
        return [(entry, ())]
    name = m.group("name").lower()
    lo = int(m.group("lo"))
    hi = int(m.group("hi")) if m.group("hi") is not None else lo
    if hi < lo:
        raise ConfigError(
            f"seed-range axis {entry!r} is empty: {hi} < {lo}"
        )
    if hi - lo + 1 > MAX_SEED_AXIS_SCENARIOS:
        raise ConfigError(
            f"seed-range axis {entry!r} expands to {hi - lo + 1} scenarios "
            f"(cap: {MAX_SEED_AXIS_SCENARIOS})"
        )
    if name not in available_workloads():
        raise ConfigError(
            f"unknown workload {name!r} in seed-range axis {entry!r}; "
            f"available: {', '.join(available_workloads())}"
        )
    if not hasattr(workload_config(name), "seed"):
        raise ConfigError(
            f"workload {name!r} has no 'seed' config field; "
            f"seed-range axes need one"
        )
    return [(name, (("seed", k),)) for k in range(lo, hi + 1)]


_SHARD_RE = re.compile(r"^(?P<index>\d+)/(?P<count>\d+)$")


def parse_shard(text: str) -> tuple[int, int]:
    """Parse a ``--shard i/N`` spec into a 1-based ``(i, N)`` pair."""
    m = _SHARD_RE.match(text.strip())
    if m is None:
        raise ConfigError(
            f"bad shard spec {text!r}; expected 'i/N' with 1 <= i <= N"
        )
    index, count = int(m.group("index")), int(m.group("count"))
    if count < 1 or not 1 <= index <= count:
        raise ConfigError(
            f"bad shard spec {text!r}; expected 'i/N' with 1 <= i <= N"
        )
    return index, count


def shard_index(spec: "ScenarioSpec | str", n_shards: int) -> int:
    """Deterministic 0-based shard assignment for one scenario.

    Hashes the scenario *id* (not its grid position), so the
    partitioning is a pure function of scenario identity: any worker —
    on any host, over any reordering or subset of the grid — computes
    the same slice, shards are disjoint by construction, and together
    they cover the grid.
    """
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    sid = spec if isinstance(spec, str) else spec.scenario_id
    return int(stable_digest(sid, length=16), 16) % n_shards


def shard_filter(
    specs: Sequence["ScenarioSpec"], shard: str | tuple[int, int]
) -> list["ScenarioSpec"]:
    """The subset of ``specs`` that shard ``i/N`` owns, order preserved."""
    index, count = parse_shard(shard) if isinstance(shard, str) else shard
    if count < 1 or not 1 <= index <= count:
        raise ConfigError(f"bad shard ({index}, {count}); need 1 <= i <= N")
    return [s for s in specs if shard_index(s, count) == index - 1]


@dataclass(frozen=True)
class ScenarioSpec:
    """One point of a sweep: everything that identifies a compilation.

    ``max_pes=None`` defers to the device's DSP budget (the paper's
    ``M``); ``overrides`` are workload-config overrides as a sorted
    tuple of ``(field, value)`` pairs so specs stay hashable.
    ``backend`` picks the evaluation cost model — result-affecting, so
    it is part of the scenario's identity and cache key. ``accuracy``
    switches on the functional accuracy objective: the workload's
    VSA/neural pipeline is executed over ``accuracy_problems`` seeded
    problems under the design's quantization, and the result joins the
    Pareto frontier as a fourth axis — result-affecting, so the request
    (never the value) is part of the scenario id and cache key.
    """

    workload: str
    device: str = "u250"
    precision: str = "MP"
    iter_max: int = 8
    loops: int = 1
    max_pes: int | None = None
    backend: str = "analytic"
    accuracy: bool = False
    accuracy_problems: int = DEFAULT_ACCURACY_PROBLEMS
    accuracy_seed: int = DEFAULT_ACCURACY_SEED
    overrides: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.workload not in available_workloads():
            raise ConfigError(
                f"unknown workload {self.workload!r}; "
                f"available: {', '.join(available_workloads())}"
            )
        if self.device not in FPGA_DEVICES:
            raise ConfigError(
                f"unknown device {self.device!r}; "
                f"available: {', '.join(FPGA_DEVICES)}"
            )
        if self.precision not in MIXED_PRECISION_PRESETS:
            raise ConfigError(
                f"unknown precision {self.precision!r}; "
                f"available: {', '.join(MIXED_PRECISION_PRESETS)}"
            )
        if self.iter_max < 1:
            raise ConfigError(f"iter_max must be >= 1, got {self.iter_max}")
        if self.loops < 1:
            raise ConfigError(f"loops must be >= 1, got {self.loops}")
        if self.backend not in EVALUATION_BACKENDS:
            raise ConfigError(
                f"unknown backend {self.backend!r}; "
                f"available: {', '.join(EVALUATION_BACKENDS)}"
            )
        if self.accuracy_problems < 1:
            raise ConfigError(
                f"accuracy_problems must be >= 1, got {self.accuracy_problems}"
            )
        object.__setattr__(
            self, "overrides", tuple(sorted(tuple(self.overrides)))
        )

    @property
    def scenario_id(self) -> str:
        """Human-readable, filterable identity: ``nvsa@u250/MP[...]``."""
        sid = f"{self.workload}@{self.device}/{self.precision}"
        if self.loops != 1:
            sid += f"/loops{self.loops}"
        if self.iter_max != 8:
            sid += f"/iter{self.iter_max}"
        if self.max_pes is not None:
            sid += f"/pes{self.max_pes}"
        if self.backend != "analytic":
            sid += f"/{self.backend}"
        if self.accuracy:
            sid += f"/acc{self.accuracy_problems}"
            if self.accuracy_seed != DEFAULT_ACCURACY_SEED:
                sid += f"s{self.accuracy_seed}"
        if self.overrides:
            sid += "/" + ",".join(f"{k}={v}" for k, v in self.overrides)
        return sid

    @property
    def device_obj(self) -> FpgaDevice:
        return FPGA_DEVICES[self.device]

    @property
    def precision_obj(self) -> MixedPrecisionConfig:
        return MIXED_PRECISION_PRESETS[self.precision]

    def resolved_max_pes(self) -> int:
        return self.max_pes or self.device_obj.max_pes()

    def key_doc(self) -> dict:
        """The cache key's input document — see :func:`scenario_key_doc`."""
        return scenario_key_doc(self)

    def cache_key(self) -> str:
        """The scenario's artifact-cache key — see :func:`scenario_key`."""
        return scenario_key(self)


def scenario_key_doc(spec: ScenarioSpec) -> dict:
    """The artifact-cache key's input document for one scenario.

    A pure function of the spec: the fully-resolved workload config
    (defaults + overrides), the device budget, the precision pair, and
    the result-affecting engine knobs. Clock and H/W ranges come from
    the engine-level defaults that ``NSFlow``/``DseEngine`` actually
    compile with, so a changed default invalidates the cache rather
    than serving stale hits.
    """
    precision = spec.precision_obj
    return {
        "format": ARTIFACT_FORMAT_VERSION,
        "epoch": ENGINE_CACHE_EPOCH,
        "workload": {
            "name": spec.workload,
            "config": jsonable(
                workload_config(spec.workload, **dict(spec.overrides))
            ),
        },
        "device": jsonable(spec.device_obj),
        "precision": {
            "neural": precision.neural.value,
            "symbolic": precision.symbolic.value,
        },
        "engine": {
            "iter_max": spec.iter_max,
            "loops": spec.loops,
            "max_pes": spec.resolved_max_pes(),
            "clock_mhz": DEFAULT_CLOCK_MHZ,
            "range_h": list(DEFAULT_RANGE_H),
            "range_w": list(DEFAULT_RANGE_W),
            # Result-affecting: backends price designs differently, so
            # their entries must never collide — and keying on the
            # version tag too means a backend whose pricing changes
            # invalidates exactly its own cached scenarios.
            "backend": {
                "name": spec.backend,
                "version": backend_version(spec.backend),
            },
        },
        # The accuracy *request* ({n_problems, seed} or None), never the
        # resulting value: entries with and without functional accuracy
        # must not collide, but the value itself is an output.
        "accuracy": (
            {"n_problems": spec.accuracy_problems, "seed": spec.accuracy_seed}
            if spec.accuracy
            else None
        ),
    }


def scenario_key(spec: ScenarioSpec) -> str:
    """Content hash of :func:`scenario_key_doc` — *the* scenario identity.

    This single assembly site is shared by every consumer that must
    agree on keys: ``run_sweep``'s store lookups, the run ledger's
    resume/claim records, and the serve layer's single-flight
    coalescing map (:mod:`repro.flow.server`). Two
    :class:`ScenarioSpec` instances describing the same compilation —
    however they were constructed — hash to the same key, so a request
    coalesced on this key is provably the same work the sweep path
    would have cached.

    The document is plain JSON already, so its canonical form (sorted
    keys, fixed separators) is hashed directly: the same digest as
    ``stable_digest(scenario_key_doc(spec), 32)``, without re-walking
    the document through ``jsonable``.
    """
    doc = json.dumps(scenario_key_doc(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:32]


def _as_tuple(value) -> tuple:
    if isinstance(value, (str, bytes)):
        raise ConfigError(
            f"grid axis must be a sequence of values, got the string {value!r} "
            "(did you mean a one-element tuple?)"
        )
    return tuple(value)


@dataclass(frozen=True)
class ScenarioGrid:
    """Declarative cartesian product of sweep axes with id filters.

    ``include``/``exclude`` are ``fnmatch`` patterns matched against each
    scenario's :attr:`ScenarioSpec.scenario_id` (e.g. ``"nvsa@*"``,
    ``"*@zcu104/*"``, ``"*/INT4"``). A scenario survives when it matches
    at least one include pattern (or ``include`` is empty) and no exclude
    pattern. Axis values keep their declaration order — that order *is*
    the sweep's execution order.

    Workload entries may be seed-range axes (``"synth:0-99"``): each one
    expands to one scenario per seed via :func:`expand_workload_axis`,
    the seed joining the scenario's config overrides (and therefore its
    id and cache key).

    ``accuracy``/``accuracy_problems``/``accuracy_seed`` are scalar
    knobs, not axes: they apply uniformly to every scenario of the grid
    (the interesting accuracy comparison is *across* the precision axis,
    not across problem counts).
    """

    workloads: tuple[str, ...]
    devices: tuple[str, ...] = ("u250",)
    precisions: tuple[str, ...] = ("MP",)
    loops: tuple[int, ...] = (1,)
    iter_maxes: tuple[int, ...] = (8,)
    max_pes: tuple[int | None, ...] = (None,)
    backends: tuple[str, ...] = ("analytic",)
    accuracy: bool = False
    accuracy_problems: int = DEFAULT_ACCURACY_PROBLEMS
    accuracy_seed: int = DEFAULT_ACCURACY_SEED
    overrides: tuple[tuple[str, object], ...] = ()
    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "workloads", "devices", "precisions", "loops", "iter_maxes",
            "max_pes", "backends", "include", "exclude",
        ):
            object.__setattr__(self, name, _as_tuple(getattr(self, name)))
        object.__setattr__(self, "overrides", tuple(self.overrides))
        for axis in ("workloads", "devices", "precisions", "loops", "iter_maxes",
                     "max_pes", "backends"):
            if not getattr(self, axis):
                raise ConfigError(f"grid axis {axis!r} must be non-empty")

    def _selected(self, sid: str) -> bool:
        if self.include and not any(
            fnmatch.fnmatchcase(sid, pat) for pat in self.include
        ):
            return False
        return not any(fnmatch.fnmatchcase(sid, pat) for pat in self.exclude)

    def expand(self) -> list[ScenarioSpec]:
        """The grid's scenarios, in deterministic workload-major order.

        Specs are validated on construction, so an unknown workload /
        device / precision fails here — before any compilation starts —
        rather than surfacing as N per-scenario errors mid-sweep.
        """
        specs = []
        for entry in self.workloads:
            for workload, extra in expand_workload_axis(entry):
                merged = dict(self.overrides)
                merged.update(extra)
                overrides = tuple(merged.items())
                for device in self.devices:
                    for precision in self.precisions:
                        for loops in self.loops:
                            for iter_max in self.iter_maxes:
                                for pes in self.max_pes:
                                    for backend in self.backends:
                                        spec = ScenarioSpec(
                                            workload=workload,
                                            device=device,
                                            precision=precision,
                                            iter_max=iter_max,
                                            loops=loops,
                                            max_pes=pes,
                                            backend=backend,
                                            accuracy=self.accuracy,
                                            accuracy_problems=self.accuracy_problems,
                                            accuracy_seed=self.accuracy_seed,
                                            overrides=overrides,
                                        )
                                        if self._selected(spec.scenario_id):
                                            specs.append(spec)
        return specs

    def __len__(self) -> int:
        return len(self.expand())


@dataclass(frozen=True)
class ScenarioOutcome:
    """What one scenario produced: artifacts, provenance, or an error.

    ``resumed`` marks scenarios skipped via the run ledger (a subset of
    ``cached``); ``traceback`` carries the full formatted traceback for
    error outcomes so a failure recorded in the ledger is debuggable
    after the sweep process is gone.

    Distributed-sweep provenance: ``deferred`` marks a scenario another
    worker holds a live claim on (nothing was priced here — the owner
    will record the result; ``holder`` names it), ``reissued`` marks a
    scenario re-run after a crashed worker's claim lease expired, and
    ``artifact_digest`` is the stored entry's content digest — the
    cross-shard conflict-detection field of ``repro merge-ledgers``.
    """

    spec: ScenarioSpec
    key: str
    cached: bool
    artifacts: ScenarioArtifacts | None
    error: str | None
    evaluations: int          # fresh Phase-I model evaluations (0 if cached)
    elapsed_s: float
    resumed: bool = False
    traceback: str | None = None
    deferred: bool = False
    reissued: bool = False
    holder: str | None = None
    artifact_digest: str | None = None
    #: The store held this scenario's entry but it failed the read-time
    #: audit and was quarantined; the artifacts here are a recompile.
    #: Excluded from "fresh" accounting in distributed merges.
    recovered: bool = False
    #: The scenario's error is a wall-clock timeout (retryable on
    #: ``--resume`` exactly like any other error).
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.deferred

    @property
    def scenario_id(self) -> str:
        return self.spec.scenario_id

    @property
    def latency_ms(self) -> float:
        if self.artifacts is None:
            raise ConfigError(f"scenario {self.scenario_id} has no artifacts")
        return self.artifacts.latency_ms


@dataclass
class SweepResult:
    """All outcomes of one sweep plus the counters that audit it.

    ``stage_timings`` is the sweep's delta of the DSE stage accumulators
    (:mod:`repro.dse.timing`): wall-clock and work-item counts for the
    Phase I sweep, its model probes and pruning, Phase II refinement,
    and Pareto filtering — where a sweep's DSE time went, straight from
    the sweep summary.
    """

    outcomes: list[ScenarioOutcome] = field(default_factory=list)
    store_stats: StoreStats | None = None
    elapsed_s: float = 0.0
    stage_timings: dict[str, StageStat] = field(default_factory=dict)
    shard: str | None = None
    worker: str | None = None
    #: The claim-lease heartbeat failed mid-sweep: this worker stopped
    #: claiming new work (remaining claim-protocol scenarios deferred).
    heartbeat_lost: bool = False
    #: Transient ledger/artifact I/O failures absorbed by retries.
    io_retries: int = 0
    #: ``point:action`` fire counts of any armed fault plan (this
    #: process only; other processes log to the shared fires.log).
    fault_fires: dict[str, int] = field(default_factory=dict)
    #: The sweep was stopped early by its ``should_stop`` hook (server
    #: drain): scenarios after the stop point were never started and are
    #: absent from ``outcomes`` — a later resume picks them up.
    stopped: bool = False

    @property
    def n_scenarios(self) -> int:
        return len(self.outcomes)

    @property
    def n_cached(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def n_resumed(self) -> int:
        """Scenarios skipped via the run ledger (subset of ``n_cached``)."""
        return sum(1 for o in self.outcomes if o.resumed)

    @property
    def n_compiled(self) -> int:
        return sum(1 for o in self.outcomes if o.ok and not o.cached)

    @property
    def n_errors(self) -> int:
        return sum(1 for o in self.outcomes if o.error is not None)

    @property
    def n_deferred(self) -> int:
        """Scenarios another worker holds a live claim on (not priced here)."""
        return sum(1 for o in self.outcomes if o.deferred)

    @property
    def n_reissued(self) -> int:
        """Scenarios re-priced after a crashed worker's lease expired."""
        return sum(1 for o in self.outcomes if o.reissued)

    @property
    def n_timeouts(self) -> int:
        """Scenarios killed by the per-scenario wall-clock budget."""
        return sum(1 for o in self.outcomes if o.timed_out)

    @property
    def n_recovered(self) -> int:
        """Scenarios recompiled after their cached entry was quarantined."""
        return sum(1 for o in self.outcomes if o.recovered)

    @property
    def total_evaluations(self) -> int:
        """Candidate model evaluations spent by freshly compiled scenarios."""
        return sum(o.evaluations for o in self.outcomes)

    def ok_outcomes(self) -> list[ScenarioOutcome]:
        return [o for o in self.outcomes if o.ok]

    def for_workload(self, workload: str) -> list[ScenarioOutcome]:
        return [o for o in self.ok_outcomes() if o.spec.workload == workload]


def _compile_scenario(spec: ScenarioSpec) -> tuple:
    """Run the full toolchain for one scenario."""
    from .nsflow import CompiledDesign  # noqa: F401  (documentation anchor)

    workload = build_workload(spec.workload, **dict(spec.overrides))
    nsf = NSFlow(
        device=spec.device_obj,
        precision=spec.precision_obj,
        iter_max=spec.iter_max,
        max_pes=spec.max_pes,
        pareto_k=None,   # always keep the full frontier; render-time truncation
        backend=spec.backend,
        accuracy=spec.accuracy,
        accuracy_problems=spec.accuracy_problems,
        accuracy_seed=spec.accuracy_seed,
    )
    design = nsf.compile(workload, n_loops=spec.loops)
    artifacts = ScenarioArtifacts(
        trace=design.trace,
        config=design.config,
        report=design.dse,
        resources=design.resources,
        total_cycles=design.schedule.total_cycles,
        latency_ms=design.latency_ms,
    )
    return design, artifacts


class _ClaimHeartbeat:
    """Background lease refresher for one held claim.

    While the owner prices a scenario, a daemon thread re-appends the
    claim with fresh timestamps every third of the lease, so a healthy
    worker's slow scenario is never mistaken for a crash. Appends are
    single atomic ``O_APPEND`` writes, safe alongside the main thread's
    own ledger writes. Leases shorter than :data:`MIN_HEARTBEAT_LEASE_S`
    skip the thread — they exist for tests that *want* instant expiry.

    A heartbeat append that fails is **surfaced, not swallowed**: the
    thread sets :attr:`lost` and exits. A silently dead heartbeat would
    let the claim's lease expire while its owner keeps pricing — another
    worker would re-issue the scenario and the exactly-once accounting
    would read it as double-priced. The sweep loop checks :attr:`lost`
    after every scenario and stops claiming new work once set.
    """

    MIN_HEARTBEAT_LEASE_S = 2.0

    def __init__(
        self, ledger: RunLedger, claim: ClaimRecord, lease_timeout_s: float,
        interval_s: float | None = None,
    ):
        self._ledger = ledger
        self._claim = claim
        self._stop = threading.Event()
        self._lost = threading.Event()
        self._thread: threading.Thread | None = None
        if lease_timeout_s >= self.MIN_HEARTBEAT_LEASE_S:
            if interval_s is None:
                interval_s = lease_timeout_s / 3.0
            self._thread = threading.Thread(
                target=self._run, args=(interval_s,), daemon=True
            )
            self._thread.start()

    def _run(self, interval_s: float) -> None:
        while not self._stop.wait(interval_s):
            try:
                self._ledger.heartbeat(self._claim)
            except Exception:
                # The lease can no longer be kept fresh (ledger unlinked,
                # disk full, injected fault): flag it so the owner stops
                # claiming work it might not be able to keep.
                self._lost.set()
                return

    @property
    def lost(self) -> bool:
        """True once a heartbeat append has failed (lease going stale)."""
        return self._lost.is_set()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)


class _ScenarioTimeout:
    """SIGALRM-based per-scenario wall-clock guard.

    Interrupts whatever the scenario is doing by raising
    :class:`~repro.errors.ScenarioTimeoutError` in the main thread.
    Inert when no budget is set (``None``). A budget needs ``SIGALRM``
    and the main thread (``signal`` handlers can only be installed
    there); :func:`_check_scenario_timeout` rejects a budget that cannot
    be armed before any scenario runs.
    """

    def __init__(self, seconds: float | None):
        self.seconds = seconds
        self._prev = None

    def _on_alarm(self, signum, frame):
        raise ScenarioTimeoutError(
            f"scenario exceeded its wall-clock budget of {self.seconds:g} s"
        )

    def __enter__(self) -> "_ScenarioTimeout":
        if self.seconds is not None:
            self._prev = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.seconds is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._prev)


def _check_scenario_timeout(seconds: float | None) -> None:
    """Raise :class:`ConfigError` unless ``seconds`` can be armed here.

    A deadline that silently never fires would let a hung scenario run
    unbounded while its caller believes it is guarded, so an unusable
    budget fails the sweep before anything is priced.
    """
    if seconds is None:
        return
    if not 0 < seconds < math.inf:
        raise ConfigError(
            f"scenario timeout must be a positive number of seconds, "
            f"got {seconds!r}"
        )
    if not hasattr(signal, "SIGALRM"):
        raise ConfigError(
            "scenario timeout needs SIGALRM, which this platform lacks"
        )
    if threading.current_thread() is not threading.main_thread():
        raise ConfigError(
            "scenario timeout is a SIGALRM deadline and can only be armed "
            f"on the main thread, not {threading.current_thread().name!r}"
        )


def run_sweep(
    grid: ScenarioGrid | Sequence[ScenarioSpec],
    *,
    store: ArtifactStore | None = None,
    progress: Callable[[ScenarioOutcome], None] | None = None,
    ledger: RunLedger | str | os.PathLike | None = None,
    resume: bool = False,
    shard: str | tuple[int, int] | None = None,
    worker: str | None = None,
    lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
    scenario_timeout_s: float | None = None,
    retry: RetryPolicy | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> SweepResult:
    """Compile every scenario of ``grid``, reusing cached artifacts.

    Parameters
    ----------
    grid:
        A :class:`ScenarioGrid` or an explicit scenario list (already in
        the desired order).
    store:
        Optional :class:`ArtifactStore`. When given, each scenario is
        first looked up by content key; hits skip trace extraction, DSE,
        and backend instantiation entirely, and fresh compilations are
        persisted for the next sweep.
    progress:
        Optional callback invoked with each :class:`ScenarioOutcome` as
        it completes (the CLI uses this for live per-scenario lines).
    ledger:
        Optional :class:`~repro.flow.ledger.RunLedger` (or a path to
        one). Every outcome — success or failure, with its traceback —
        is appended and fsynced as it completes, so an interrupted sweep
        never loses finished results.
    resume:
        Skip scenarios the ledger records as ``ok`` and the store still
        holds; requires both ``ledger`` and ``store``. Errored ledger
        entries are retried, and a ledger entry whose store artifact has
        since vanished is recompiled (the ledger is an index, the store
        is the truth).
    shard:
        ``"i/N"`` (or a 1-based ``(i, N)`` tuple): run only the grid
        scenarios whose stable scenario-id hash lands in slice ``i`` of
        ``N``. Any worker computes the same partition for the same grid
        — shards are disjoint, cover the grid, and survive grid
        reordering — so N processes given ``1/N .. N/N`` split the
        sweep with no coordinator.
    worker:
        A worker id (unique per process, e.g. ``host-pid``). When both
        ``worker`` and ``ledger`` are given, the sweep runs the *claim
        protocol*: each to-be-priced scenario is first claimed in the
        ledger (atomic append, first live claim wins), heartbeats keep
        the claim's lease fresh while pricing, and scenarios claimed by
        another live worker are **deferred** (recorded on the result,
        never priced here). A stale claim — its owner crashed —
        is **re-issued** to this worker.
    lease_timeout_s:
        How stale a claim's heartbeat may grow before its owner is
        presumed dead and the scenario is re-issued.
    scenario_timeout_s:
        Optional per-scenario wall-clock budget in seconds. A scenario
        that blows it is recorded as a retryable ``error`` row
        (``timed_out=True``). SIGALRM-based: a budget that is not a
        positive finite number, or a call off the main thread or on a
        platform without ``SIGALRM``, raises
        :class:`~repro.errors.ConfigError` before any scenario runs.
    retry:
        :class:`~repro.faults.RetryPolicy` for transient ledger I/O.
        ``None`` (default) uses :data:`~repro.faults.
        DEFAULT_RETRY_POLICY`; pass ``RetryPolicy(max_attempts=1)`` to
        make every I/O error immediately fatal. Applies when ``ledger``
        is given as a *path* (an already-constructed :class:`RunLedger`
        or :class:`ArtifactStore` keeps whatever policy it was built
        with).
    should_stop:
        Optional zero-arg predicate polled before each scenario. Once
        it returns true the sweep stops starting new scenarios: the
        in-flight scenario finishes normally (its outcome is recorded
        and, under the claim protocol, its claim is closed by the
        result row), remaining scenarios are simply never started, and
        the result is marked ``stopped=True``. A later ``resume=True``
        run completes the grid. This is the graceful-drain hook.

    Every scenario is compiled in the calling process. To parallelize a
    grid, run several processes over one ledger with ``shard`` or
    ``worker``: the claim protocol splits the work and prices each
    scenario exactly once.

    Failure isolation: any exception from one scenario (trace extraction,
    DSE, backend, artifact I/O) is recorded on its outcome — message and
    full traceback — and streamed to the ledger; remaining scenarios
    still run. A lost claim heartbeat stops this worker from *claiming*
    further scenarios (they are deferred to healthier workers) — see
    :class:`_ClaimHeartbeat`.
    """
    retry_policy = DEFAULT_RETRY_POLICY if retry is None else retry
    if ledger is not None and not isinstance(ledger, RunLedger):
        ledger = RunLedger(ledger, retry=retry_policy)
    if resume and ledger is None:
        raise ConfigError("resume=True requires a run ledger")
    if resume and store is None:
        raise ConfigError("resume=True requires an artifact store")
    shard_label: str | None = None
    if shard is not None:
        index, count = parse_shard(shard) if isinstance(shard, str) else shard
        shard_label = f"{index}/{count}"
    if worker is not None and ledger is None:
        raise ConfigError("worker (claim protocol) requires a run ledger")
    _check_scenario_timeout(scenario_timeout_s)
    claims_active = ledger is not None and worker is not None
    completed = ledger.completed_keys() if resume else frozenset()
    specs = list(grid.expand() if isinstance(grid, ScenarioGrid) else grid)
    if shard_label is not None:
        specs = shard_filter(specs, (index, count))
    result = SweepResult(shard=shard_label, worker=worker)
    timing_snapshot = timings_snapshot()
    retries_before = retry_count()
    fires_before = fire_counts()
    t_start = time.perf_counter()
    for spec in specs:
        if should_stop is not None and should_stop():
            # Graceful stop: nothing new is started. Unstarted
            # scenarios get no outcome and no ledger row — exactly
            # the state a resume run knows how to finish.
            result.stopped = True
            break
        t0 = time.perf_counter()
        key = ""
        recovered = False
        try:
            key = spec.cache_key()
            resumed = key in completed
            corrupt_before = store.corrupt if store is not None else 0
            decision = None
            while True:
                # Noted before the lookup, without file I/O: an ok
                # row past it means another worker finished the key
                # while we looked (ClaimDecision.finished).
                mark = ledger.position() if claims_active else 0
                cached = store.load(key) if store is not None else None
                if (cached is not None or not claims_active
                        or result.heartbeat_lost):
                    break
                decision = ledger.acquire(
                    spec.scenario_id, key, worker,
                    shard=shard_label,
                    lease_timeout_s=lease_timeout_s,
                    since=mark,
                )
                # Finished: look again — the finisher stored it. A
                # miss means the ok row is stale (artifact gone), and
                # the next acquire, past that row, arbitrates afresh.
                if not decision.finished:
                    break
            # A load that tripped the corruption audit quarantined
            # the entry; the recompile below is *recovery*, not a
            # fresh pricing (merge accounting must not double-count).
            recovered = (
                store is not None and store.corrupt > corrupt_before
            )
            if cached is not None:
                outcome = ScenarioOutcome(
                    spec=spec, key=key, cached=True, artifacts=cached,
                    error=None, evaluations=0,
                    elapsed_s=time.perf_counter() - t0,
                    resumed=resumed,
                    artifact_digest=cached.entry_digest,
                )
            else:
                # The ledger may claim this key is done (`resumed`
                # above) while the store no longer holds it — the
                # ledger is an index, the store is the truth. This
                # scenario is being compiled, so restate its status:
                # anything else would count it as resumed in the
                # summary tally while the elapsed time and fresh
                # evaluations say otherwise.
                resumed = False
                reissued = False
                heartbeat = None
                if claims_active and result.heartbeat_lost:
                    # Our previous claim's heartbeat died: this
                    # worker can no longer promise to keep leases
                    # fresh, so it must not claim new work — a
                    # healthy worker (or a retry) will pick it up.
                    outcome = ScenarioOutcome(
                        spec=spec, key=key, cached=False,
                        artifacts=None, error=None, evaluations=0,
                        elapsed_s=time.perf_counter() - t0,
                        deferred=True,
                    )
                    result.outcomes.append(outcome)
                    if progress is not None:
                        progress(outcome)
                    continue
                if claims_active:
                    if not decision.owned:
                        # Another live worker owns this scenario; it
                        # will record the result. Nothing is priced
                        # or appended here — a deferred row in the
                        # ledger would read as a second outcome.
                        outcome = ScenarioOutcome(
                            spec=spec, key=key, cached=False,
                            artifacts=None, error=None, evaluations=0,
                            elapsed_s=time.perf_counter() - t0,
                            deferred=True, holder=decision.holder,
                        )
                        result.outcomes.append(outcome)
                        if progress is not None:
                            progress(outcome)
                        continue
                    reissued = decision.reissued
                    heartbeat = _ClaimHeartbeat(
                        ledger,
                        ClaimRecord(
                            scenario_id=spec.scenario_id, key=key,
                            worker=worker, ts=0.0, shard=shard_label,
                        ),
                        lease_timeout_s,
                    )
                try:
                    with _ScenarioTimeout(scenario_timeout_s):
                        faultpoint("sweep.compile")
                        design, artifacts = _compile_scenario(spec)
                    digest = None
                    if store is not None:
                        digest = store.store(key, design, spec.key_doc())
                finally:
                    if heartbeat is not None:
                        heartbeat.stop()
                        if heartbeat.lost:
                            result.heartbeat_lost = True
                outcome = ScenarioOutcome(
                    spec=spec, key=key, cached=False, artifacts=artifacts,
                    error=None,
                    evaluations=design.dse.phase1.candidates_evaluated,
                    elapsed_s=time.perf_counter() - t0,
                    resumed=resumed, reissued=reissued,
                    artifact_digest=digest, recovered=recovered,
                )
        except Exception as exc:   # noqa: BLE001 - isolation is the point
            timed_out = isinstance(exc, ScenarioTimeoutError)
            outcome = ScenarioOutcome(
                spec=spec, key=key, cached=False, artifacts=None,
                error=f"{type(exc).__name__}: {exc}", evaluations=0,
                elapsed_s=time.perf_counter() - t0,
                traceback=traceback_module.format_exc(),
                timed_out=timed_out,
            )
        result.outcomes.append(outcome)
        if ledger is not None:
            ledger.append(LedgerRecord.from_outcome(
                outcome, worker=worker, shard=shard_label,
            ))
        if progress is not None:
            progress(outcome)
    result.elapsed_s = time.perf_counter() - t_start
    result.stage_timings = stage_timings_since(timing_snapshot)
    result.store_stats = store.stats if store is not None else None
    result.io_retries = retry_count() - retries_before
    result.fault_fires = {
        point: n - fires_before.get(point, 0)
        for point, n in fire_counts().items()
        if n - fires_before.get(point, 0) > 0
    }
    return result
