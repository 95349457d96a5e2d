"""Pluggable evaluation backends: the DSE's cost-model seam.

Every latency number the flow produces used to come from one place —
the analytical Eqs. 1-5 of :mod:`repro.model.runtime` (and their
regrouped integer twins in :mod:`repro.model.pricing`), hard-wired into
the DSE engine, the Phase II refiner, and ``NSFlow``. This module
extracts that dependency into an explicit protocol so *how a design is
priced* becomes a first-class, swappable decision:

* :class:`EvaluationBackend` — the protocol: given a workload's node
  sets (``R_l`` GEMM layers, ``R_v`` VSA nodes) and an AdArray
  geometry/partition, return total and per-node cycle counts plus a
  :class:`CycleBreakdown` (compute, fill/drain, DRAM, overlap);
* :class:`AnalyticBackend` — the paper's analytical models, repackaged.
  This is the default and is **byte-identical** to the pre-seam engine:
  its :meth:`~AnalyticBackend.score_geometry` prices over the
  workload's distinct dimensions in exact ints and runs the monotone
  partition bisection, and returns exactly what the scalar reference
  scan of :meth:`EvaluationBackend.score_geometry` returns;
* :class:`ScheduleBackend` — a memory-aware, event-driven per-node
  timeline. It composes the scheduling discipline of
  :class:`repro.arch.controller.Controller` (per-unit serialization,
  compute/transfer overlap), the double-buffer prefetch semantics of
  :class:`repro.arch.memory.DoubleBufferedMemory` (one transfer in
  flight ahead of compute per unit), and the AXI bandwidth pipe of
  :class:`repro.arch.dram.DramModel` — so the DSE can rank designs by
  end-to-end time (compute *plus* non-hidden memory traffic) rather
  than compute-only cycles.

Contract (enforced by ``tests/model/test_backend.py``):

* ``AnalyticBackend`` equals the scalar models of
  :mod:`repro.model.runtime` bit for bit on any workload/geometry;
* ``ScheduleBackend`` totals are >= the analytic compute cycles for the
  same design point (memory traffic can only add time) — the lower-bound
  requirement every non-analytic backend must meet, because Phase I
  prunes on the analytic bound (:mod:`repro.dse.multifidelity`) — and the
  ``overlap`` component never exceeds what the DRAM model could have
  transferred (``overlap <= dram``) nor the compute it hid under
  (``overlap <= compute + fill_drain``);
* for every backend, ``total == compute + fill_drain + dram - overlap``.

The backend choice is **result-affecting** — it changes which design
wins — so it joins the artifact-cache key
(:mod:`repro.flow.artifacts`) and is recorded in every
:class:`~repro.dse.engine.DseReport`.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

from ..errors import ConfigError
from ..nn.gemm import GemmDims
from ..trace.opnode import VsaDims
from ..utils import ceil_div
from . import pricing
from .runtime import (
    layer_runtime,
    parallel_runtime,
    sequential_runtime,
    vsa_node_runtime,
    vsa_streaming_latency,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at runtime: ``repro.arch`` pulls in the controller,
    # which imports ``repro.dse`` — a package that imports this module.
    from ..arch.dram import DramModel

__all__ = [
    "BackendInfo",
    "CycleBreakdown",
    "GeometryScore",
    "DesignEvaluation",
    "EvaluationBackend",
    "AnalyticBackend",
    "ScheduleBackend",
    "EVALUATION_BACKENDS",
    "backend_version",
    "make_backend",
]


@dataclass(frozen=True)
class BackendInfo:
    """Identity tag recorded in reports and artifacts: name + version.

    ``version`` is bumped whenever a backend's pricing changes for
    identical inputs, so artifacts are self-describing about the cost
    model that produced them.
    """

    name: str
    version: str

    def __str__(self) -> str:
        return f"{self.name} v{self.version}"


@dataclass(frozen=True)
class CycleBreakdown:
    """Where a design's latency goes, in cycles.

    * ``compute`` — steady-state MAC/streaming work on the array;
    * ``fill_drain`` — systolic pipeline fill and drain skew (the
      ``2H + W - 2`` / ``3H - 1`` per-pass terms of Eqs. 1 and 3-4);
    * ``dram`` — total DRAM channel busy cycles (AXI bursts);
    * ``overlap`` — cycles hidden by concurrency: DRAM transfers under
      compute (double buffering) and, in parallel mode, the slower
      side's shadow over the faster (inter-loop parallelism).

    The components always satisfy
    ``total == compute + fill_drain + dram - overlap``.
    """

    compute: int
    fill_drain: int
    dram: int
    overlap: int
    total: int

    def __post_init__(self) -> None:
        if min(self.compute, self.fill_drain, self.dram, self.overlap) < 0:
            raise ConfigError(f"negative breakdown component in {self!r}")
        if self.total != self.compute + self.fill_drain + self.dram - self.overlap:
            raise ConfigError(
                f"breakdown identity violated: total {self.total} != "
                f"{self.compute} + {self.fill_drain} + {self.dram} "
                f"- {self.overlap}"
            )


@dataclass(frozen=True)
class GeometryScore:
    """One geometry's Phase I score, backend-agnostic.

    The fields mirror :class:`repro.dse.engine.GeometryEval` minus the
    candidate index (which belongs to the engine's enumeration, not the
    cost model): best static partition, sequential fallback, and the
    logical/priced design-point counters.
    """

    t_sequential: int
    t_parallel: int
    nl_bar: int
    nv_bar: int
    evaluated: int
    probes: int


@dataclass(frozen=True)
class DesignEvaluation:
    """A backend's full pricing of one instantiated design.

    ``node_cycles`` maps node name to the cycles attributable to that
    node on its execution unit — compute plus fill/drain, plus any
    non-overlapped spill stall under the schedule backend. Waiting time
    (dependencies, exposed transfers before the node starts) is
    excluded, so the values are comparable across backends.
    """

    backend: BackendInfo
    breakdown: CycleBreakdown
    node_cycles: dict[str, int] = field(repr=False, default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return self.breakdown.total

    def latency_s(self, clock_mhz: float) -> float:
        return self.breakdown.total / (clock_mhz * 1e6)


class EvaluationBackend(abc.ABC):
    """Protocol every cost-model backend implements.

    A backend prices design points from the workload's cost dimensions
    alone — ``layers`` (``R_l`` GEMM dims) and ``vsa_nodes`` (``R_v``
    VSA dims) — so the DSE never touches a concrete model again. The
    default method implementations express everything through
    :meth:`sequential_cycles` / :meth:`parallel_cycles`; backends
    override them when they have a faster (or batched) path, provided
    results stay identical to their own reference pricing.

    Backends must never price below the analytic model: for every design
    point, ``sequential_cycles`` and ``parallel_cycles`` are ``>=``
    :class:`AnalyticBackend`'s. Phase I screens every candidate with the
    analytic model and prunes on that lower bound, so a backend that
    undercuts it could lose its true winner; the engine raises
    :class:`~repro.errors.DSEError` when a priced candidate is caught
    below its bound.
    """

    #: Registry/report identity. Subclasses set both.
    name: ClassVar[str] = ""
    version: ClassVar[str] = ""

    @property
    def info(self) -> BackendInfo:
        return BackendInfo(name=self.name, version=self.version)

    # -- pricing primitives ----------------------------------------------------

    @abc.abstractmethod
    def sequential_cycles(
        self,
        h: int,
        w: int,
        n_sub: int,
        layers: Sequence[GemmDims],
        vsa_nodes: Sequence[VsaDims],
    ) -> int:
        """Total cycles of the sequential schedule (NN then VSA, whole array)."""

    @abc.abstractmethod
    def parallel_cycles(
        self,
        h: int,
        w: int,
        nl: Sequence[int],
        nv: Sequence[int],
        layers: Sequence[GemmDims],
        vsa_nodes: Sequence[VsaDims],
    ) -> int:
        """Total cycles of the parallel schedule under partition ``(Nl, Nv)``."""

    def partition_pricer(
        self,
        h: int,
        w: int,
        layers: Sequence[GemmDims],
        vsa_nodes: Sequence[VsaDims],
    ) -> Callable[[Sequence[int], Sequence[int]], int]:
        """A repeat-pricing closure for one geometry (Phase II's shape).

        The refinement loop prices thousands of partition vectors at a
        fixed ``(H, W)``; backends may return a closure that amortizes
        per-geometry setup (the analytic backend precomputes its
        per-node constants here).
        """
        return lambda nl, nv: self.parallel_cycles(h, w, nl, nv, layers, vsa_nodes)

    # -- geometry scoring (Phase I's shape) ------------------------------------

    def score_geometry(
        self,
        h: int,
        w: int,
        n_sub: int,
        layers: tuple[GemmDims, ...],
        vsa_nodes: tuple[VsaDims, ...],
    ) -> GeometryScore:
        """Best static split + sequential fallback for one geometry.

        The default implementation is the reference semantics every
        override must reproduce: scan ``N̄l`` ascending through
        :meth:`parallel_cycles` with strict-``<`` updates (first wins on
        ties).
        """
        return self._scan_splits(
            lambda nl, nv: self.parallel_cycles(h, w, nl, nv, layers, vsa_nodes),
            h, w, n_sub, layers, vsa_nodes,
        )

    def _scan_splits(self, price, h, w, n_sub, layers, vsa_nodes) -> GeometryScore:
        """The reference scan of uniform splits, pricing each with ``price``."""
        t_seq = int(self.sequential_cycles(h, w, n_sub, layers, vsa_nodes))
        evaluated = 1
        if vsa_nodes:
            best: tuple[int, int, int] | None = None
            nl_vec = [0] * len(layers)
            nv_vec = [0] * len(vsa_nodes)
            for nl_bar in range(1, n_sub):
                nv_bar = n_sub - nl_bar
                for i in range(len(nl_vec)):
                    nl_vec[i] = nl_bar
                for j in range(len(nv_vec)):
                    nv_vec[j] = nv_bar
                t_para = price(nl_vec, nv_vec)
                evaluated += 1
                if best is None or t_para < best[0]:
                    best = (int(t_para), nl_bar, nv_bar)
            assert best is not None  # n_sub >= 2 guarantees one iteration
            t_par, nl_bar, nv_bar = best
        else:
            # No VSA nodes: "parallel" degenerates to whole-array NN.
            t_par, nl_bar, nv_bar = t_seq, n_sub, 0
        return GeometryScore(
            t_sequential=t_seq, t_parallel=t_par,
            nl_bar=nl_bar, nv_bar=nv_bar,
            evaluated=evaluated, probes=evaluated,
        )

    def score_geometries(
        self,
        geometries: Sequence[tuple[int, int, int]],
        layers: tuple[GemmDims, ...],
        vsa_nodes: tuple[VsaDims, ...],
    ) -> list[GeometryScore]:
        """Score a batch of ``(H, W, N)`` geometries (one Phase I screen)."""
        return [
            self.score_geometry(h, w, n, layers, vsa_nodes)
            for h, w, n in geometries
        ]

    # -- full-design pricing ---------------------------------------------------

    @abc.abstractmethod
    def evaluate_design(
        self,
        h: int,
        w: int,
        n_sub: int,
        mode: str,
        nl: Sequence[int],
        nv: Sequence[int],
        layers: Sequence[GemmDims],
        vsa_nodes: Sequence[VsaDims],
        layer_names: Sequence[str] | None = None,
        vsa_names: Sequence[str] | None = None,
        mem_c_bytes: int | None = None,
    ) -> DesignEvaluation:
        """Price one instantiated design with a full latency breakdown.

        ``mode`` is ``"sequential"`` or ``"parallel"``; ``nl``/``nv``
        are the per-node partitions the design deploys (sequential mode
        ignores them and runs every node on the whole array).
        ``mem_c_bytes``, when given, bounds the output buffer — outputs
        exceeding it pay a non-overlapped spill (schedule backend only).
        """


def _node_names(
    prefix: str, dims: Sequence, names: Sequence[str] | None
) -> list[str]:
    if names is not None:
        if len(names) != len(dims):
            raise ConfigError(
                f"{prefix} name count {len(names)} != node count {len(dims)}"
            )
        return list(names)
    return [f"{prefix}[{i}]" for i in range(len(dims))]


def _check_mode(mode: str) -> None:
    if mode not in ("sequential", "parallel"):
        raise ConfigError(f"unknown execution mode {mode!r}")


def _sequential_allocs(n_sub: int, count: int) -> list[int]:
    return [n_sub] * count


class AnalyticBackend(EvaluationBackend):
    """The paper's Eqs. 1-5 behind the protocol — the default backend.

    Pricing is pure compute-cycle arithmetic: no DRAM term, no transfer
    overlap. ``score_geometry`` prices over the workload's distinct
    dimensions in exact Python ints (:mod:`repro.model.pricing`) and
    searches the static split with the monotone crossing-point
    bisection, returning the scores of the scalar reference scan bit for
    bit (the contract ``bench_dse_hotpath.py --check-only`` guards in
    CI).
    """

    name: ClassVar[str] = "analytic"
    version: ClassVar[str] = "1"

    def sequential_cycles(self, h, w, n_sub, layers, vsa_nodes) -> int:
        return int(sequential_runtime(h, w, n_sub, layers, vsa_nodes))

    def parallel_cycles(self, h, w, nl, nv, layers, vsa_nodes) -> int:
        return int(parallel_runtime(h, w, nl, nv, layers, vsa_nodes))

    def partition_pricer(self, h, w, layers, vsa_nodes):
        """Repeat pricing over per-node constants computed once per geometry."""
        return pricing.partition_pricer(h, w, layers, vsa_nodes)

    # -- Phase I ---------------------------------------------------------------

    def score_geometry(self, h, w, n_sub, layers, vsa_nodes) -> GeometryScore:
        """Score one geometry exactly as the scalar reference scan does."""
        return self.score_geometries([(h, w, n_sub)], layers, vsa_nodes)[0]

    def score_geometries(self, geometries, layers, vsa_nodes) -> list[GeometryScore]:
        """Score a batch, grouping the workload's dimensions once.

        Each geometry folds the groups into its coefficients, prices its
        sequential schedule, and bisects for the reference scan's
        ``(t_parallel, N̄l, N̄v)`` triple.
        """
        groups = pricing.WorkloadGroups.from_dims(layers, vsa_nodes)
        scores = []
        for h, w, n_sub in geometries:
            splits = pricing.UniformSplits(h, w, n_sub, groups)
            t_seq = splits.t_sequential()
            if not splits.has_vsa:
                # No VSA nodes: "parallel" degenerates to whole-array NN.
                scores.append(GeometryScore(
                    t_sequential=t_seq, t_parallel=t_seq, nl_bar=n_sub,
                    nv_bar=0, evaluated=1, probes=1,
                ))
                continue
            found = splits.search()
            scores.append(GeometryScore(
                t_sequential=t_seq, t_parallel=found.t_parallel,
                nl_bar=found.nl_bar, nv_bar=found.nv_bar,
                evaluated=n_sub,            # 1 sequential + (N − 1) splits
                probes=found.probes + 1,    # + the sequential schedule
            ))
        return scores

    # -- full-design pricing ---------------------------------------------------

    @staticmethod
    def _layer_split(h: int, w: int, alloc: int, dims: GemmDims) -> tuple[int, int]:
        """Eq. 1 split into (steady compute, fill/drain) cycles."""
        passes = ceil_div(ceil_div(dims.n, alloc), h) * ceil_div(dims.k, w)
        total = layer_runtime(h, w, alloc, dims)
        fill = (2 * h + w - 2) * passes
        return total - fill, fill

    @staticmethod
    def _vsa_split(
        h: int, w: int, alloc: int, dims: VsaDims, mapping: str
    ) -> tuple[int, int]:
        """Eqs. 3/4 split into (steady compute, fill/drain) cycles."""
        t = vsa_streaming_latency(h, dims.d)
        if mapping == "spatial":
            passes = dims.n * ceil_div(dims.d, w * h * alloc)
        else:
            passes = ceil_div(dims.n, w) * ceil_div(dims.d, h * alloc)
        total = passes * t
        fill = (3 * h - 1) * passes
        return total - fill, fill

    @staticmethod
    def _vsa_loop_mapping(
        h: int, w: int, nv: Sequence[int], vsa_nodes: Sequence[VsaDims]
    ) -> str:
        """The whole-loop mapping Eq. 5 picks (ties go to spatial)."""
        spatial = sum(
            vsa_node_runtime(h, w, a, d, "spatial")
            for a, d in zip(nv, vsa_nodes)
        )
        temporal = sum(
            vsa_node_runtime(h, w, a, d, "temporal")
            for a, d in zip(nv, vsa_nodes)
        )
        return "spatial" if spatial <= temporal else "temporal"

    def evaluate_design(
        self, h, w, n_sub, mode, nl, nv, layers, vsa_nodes,
        layer_names=None, vsa_names=None, mem_c_bytes=None,
    ) -> DesignEvaluation:
        _check_mode(mode)
        sequential = mode == "sequential"
        l_names = _node_names("layer", layers, layer_names)
        v_names = _node_names("vsa", vsa_nodes, vsa_names)
        nl = _sequential_allocs(n_sub, len(layers)) if sequential else list(nl)
        nv = _sequential_allocs(n_sub, len(vsa_nodes)) if sequential else list(nv)
        mapping = (
            self._vsa_loop_mapping(h, w, nv, vsa_nodes) if vsa_nodes else "spatial"
        )
        node_cycles: dict[str, int] = {}
        nn_compute = nn_fill = 0
        for name, alloc, dims in zip(l_names, nl, layers):
            compute, fill = self._layer_split(h, w, alloc, dims)
            node_cycles[name] = compute + fill
            nn_compute += compute
            nn_fill += fill
        vsa_compute = vsa_fill = 0
        for name, alloc, dims in zip(v_names, nv, vsa_nodes):
            compute, fill = self._vsa_split(h, w, alloc, dims, mapping)
            node_cycles[name] = compute + fill
            vsa_compute += compute
            vsa_fill += fill
        t_nn = nn_compute + nn_fill
        t_vsa = vsa_compute + vsa_fill
        if sequential:
            total = t_nn + t_vsa
            overlap = 0
        else:
            # Inter-loop parallelism hides the faster side entirely.
            total = max(t_nn, t_vsa)
            overlap = min(t_nn, t_vsa)
        return DesignEvaluation(
            backend=self.info,
            breakdown=CycleBreakdown(
                compute=nn_compute + vsa_compute,
                fill_drain=nn_fill + vsa_fill,
                dram=0,
                overlap=overlap,
                total=total,
            ),
            node_cycles=node_cycles,
        )


@dataclass(frozen=True)
class _NodeTask:
    """One node's demand on its unit and the DRAM channel."""

    name: str
    compute: int
    fill: int
    in_bytes: int
    out_bytes: int


class ScheduleBackend(EvaluationBackend):
    """Memory-aware event-driven timeline over the ``arch/`` models.

    Pricing walks the workload's nodes exactly as
    :class:`repro.arch.controller.Controller` schedules a graph: each
    execution unit (the NN partition, the VSA partition — or the whole
    array in sequential mode) runs its nodes in order; every node's
    operands arrive over the :class:`~repro.arch.dram.DramModel` AXI
    pipe; and the double-buffered memories
    (:class:`~repro.arch.memory.DoubleBufferedMemory` semantics) let a
    node's operand transfer ride ahead of the previous node's compute
    on its unit — it starts once the DRAM channel is free, which is
    never before node ``i-1`` began computing (that node's output drain
    holds the channel from its start), so the shadow bank is always
    free by then. Transfers from all units serialize on the single DRAM
    channel; compute starts at ``max(unit free, operands landed)``.

    Divergence from :class:`AnalyticBackend` is therefore exactly the
    non-hidden memory time: designs whose compute dwarfs their traffic
    price identically (all DRAM cycles overlap), while memory-bound
    designs pay the exposed transfer tail — which is what re-ranks
    geometries the analytic model sees as ties.

    Parameters are plain value objects, so instances pickle cleanly:
    bytes-per-element for the two workload halves (from a
    :class:`~repro.quant.MixedPrecisionConfig`) and the DRAM model.
    ``version`` tags the pricing semantics for artifacts.
    """

    name: ClassVar[str] = "schedule"
    version: ClassVar[str] = "1"

    def __init__(
        self,
        neural_bytes: float = 1.0,
        symbolic_bytes: float = 0.5,
        dram: "DramModel | None" = None,
    ):
        if neural_bytes <= 0 or symbolic_bytes <= 0:
            raise ConfigError("bytes-per-element must be positive")
        if dram is None:
            from ..arch.dram import DramModel
            dram = DramModel()
        self.neural_bytes = neural_bytes
        self.symbolic_bytes = symbolic_bytes
        self.dram = dram

    @classmethod
    def from_precision(
        cls, precision, dram: "DramModel | None" = None
    ) -> "ScheduleBackend":
        """Build from a :class:`~repro.quant.MixedPrecisionConfig`."""
        return cls(
            neural_bytes=precision.neural.bytes_per_element,
            symbolic_bytes=precision.symbolic.bytes_per_element,
            dram=dram,
        )

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and (self.neural_bytes, self.symbolic_bytes, self.dram)
            == (other.neural_bytes, other.symbolic_bytes, other.dram)
        )

    def __hash__(self) -> int:
        return hash((type(self), self.neural_bytes, self.symbolic_bytes, self.dram))

    # -- per-node demand -------------------------------------------------------

    def _layer_bytes(self, dims: GemmDims) -> tuple[int, int]:
        """DRAM bytes in (weights + ifmap) and out (ofmap) of a layer node."""
        return (
            int((dims.n * dims.k + dims.m * dims.k) * self.neural_bytes),
            int(dims.m * dims.n * self.neural_bytes),
        )

    def _vsa_bytes(self, dims: VsaDims) -> tuple[int, int]:
        """DRAM bytes in (operands + stationary) and out of a VSA node."""
        return (
            int((dims.n * dims.d + dims.d) * self.symbolic_bytes),
            int(dims.n * dims.d * self.symbolic_bytes),
        )

    def _layer_task(
        self, h: int, w: int, alloc: int, dims: GemmDims, name: str
    ) -> _NodeTask:
        compute, fill = AnalyticBackend._layer_split(h, w, alloc, dims)
        in_bytes, out_bytes = self._layer_bytes(dims)
        return _NodeTask(
            name=name, compute=compute, fill=fill,
            in_bytes=in_bytes, out_bytes=out_bytes,
        )

    def _vsa_task(
        self, h: int, w: int, alloc: int, dims: VsaDims, mapping: str, name: str
    ) -> _NodeTask:
        compute, fill = AnalyticBackend._vsa_split(h, w, alloc, dims, mapping)
        in_bytes, out_bytes = self._vsa_bytes(dims)
        return _NodeTask(
            name=name, compute=compute, fill=fill,
            in_bytes=in_bytes, out_bytes=out_bytes,
        )

    def _streams(
        self, h, w, nl, nv, layers, vsa_nodes,
        layer_names=None, vsa_names=None,
    ) -> tuple[list[_NodeTask], list[_NodeTask]]:
        l_names = _node_names("layer", layers, layer_names)
        v_names = _node_names("vsa", vsa_nodes, vsa_names)
        mapping = (
            AnalyticBackend._vsa_loop_mapping(h, w, nv, vsa_nodes)
            if vsa_nodes else "spatial"
        )
        nn = [
            self._layer_task(h, w, alloc, dims, name)
            for name, alloc, dims in zip(l_names, nl, layers)
        ]
        vsa = [
            self._vsa_task(h, w, alloc, dims, mapping, name)
            for name, alloc, dims in zip(v_names, nv, vsa_nodes)
        ]
        return nn, vsa

    # -- the event-driven timeline ---------------------------------------------

    def _timeline(
        self,
        streams: Sequence[Sequence[_NodeTask]],
        mem_c_bytes: int | None = None,
    ) -> tuple[CycleBreakdown, dict[str, int]]:
        """Run the per-unit node streams against one shared DRAM channel.

        Deterministic event order: among units with work remaining, the
        one whose unit becomes free earliest issues next (ties to the
        lower unit index — NN before VSA, matching the controller's
        topological walk of NN producers before their VSA consumers).
        Returns the breakdown and per-node unit-occupancy cycle counts
        (compute + fill + any spill stall; waiting time excluded).
        """
        ptrs = [0] * len(streams)
        unit_free = [0] * len(streams)
        dram_free = 0
        compute_total = fill_total = dram_total = 0
        node_cycles: dict[str, int] = {}
        while True:
            live = [i for i, s in enumerate(streams) if ptrs[i] < len(s)]
            if not live:
                break
            u = min(live, key=lambda i: (unit_free[i], i))
            task = streams[u][ptrs[u]]
            ptrs[u] += 1
            # Double buffering: the shadow bank frees when the previous
            # node on this unit starts computing at s. That never holds
            # the transfer back: the node's drain set dram_free to
            # max(dram_free, s) + t_out >= s, a spill only raises it,
            # and dram_free never decreases.
            t_in = self.dram.transfer_cycles(task.in_bytes)
            xfer_done = dram_free + t_in
            dram_free = xfer_done
            start = max(unit_free[u], xfer_done)
            duration = task.compute + task.fill
            # Outputs drain through MemC. The portion that fits the
            # buffer double-buffers out at line rate (channel busy that
            # may hide under the next node's compute); the overflow
            # past capacity cannot be double-buffered, so its transfer
            # stalls the unit (the controller's spill rule). Each
            # output byte is priced exactly once.
            spill = 0
            drain_bytes = task.out_bytes
            if mem_c_bytes is not None and task.out_bytes > mem_c_bytes:
                spill = self.dram.transfer_cycles(task.out_bytes - mem_c_bytes)
                drain_bytes = mem_c_bytes
            end = start + duration
            t_out = self.dram.transfer_cycles(drain_bytes)
            dram_free = max(dram_free, start) + t_out
            if spill:
                # The spill transfer needs both the finished output and
                # a free channel; the unit stalls until it completes.
                dram_free = max(dram_free, end) + spill
                end = dram_free
            unit_free[u] = end
            node_cycles[task.name] = end - start
            compute_total += task.compute
            fill_total += task.fill
            dram_total += t_in + t_out + spill
        total = max(max(unit_free), dram_free) if streams else 0
        busy = compute_total + fill_total + dram_total
        overlap = max(0, busy - total)
        return (
            CycleBreakdown(
                compute=compute_total,
                fill_drain=fill_total,
                dram=dram_total,
                overlap=overlap,
                total=busy - overlap,
            ),
            node_cycles,
        )

    # -- protocol --------------------------------------------------------------

    def sequential_cycles(self, h, w, n_sub, layers, vsa_nodes) -> int:
        nn, vsa = self._streams(
            h, w,
            _sequential_allocs(n_sub, len(layers)),
            _sequential_allocs(n_sub, len(vsa_nodes)),
            layers, vsa_nodes,
        )
        breakdown, _ = self._timeline([list(nn) + list(vsa)])
        return breakdown.total

    def parallel_cycles(self, h, w, nl, nv, layers, vsa_nodes) -> int:
        nn, vsa = self._streams(h, w, nl, nv, layers, vsa_nodes)
        breakdown, _ = self._timeline([nn, vsa])
        return breakdown.total

    def evaluate_design(
        self, h, w, n_sub, mode, nl, nv, layers, vsa_nodes,
        layer_names=None, vsa_names=None, mem_c_bytes=None,
    ) -> DesignEvaluation:
        _check_mode(mode)
        sequential = mode == "sequential"
        nl = _sequential_allocs(n_sub, len(layers)) if sequential else list(nl)
        nv = _sequential_allocs(n_sub, len(vsa_nodes)) if sequential else list(nv)
        nn, vsa = self._streams(
            h, w, nl, nv, layers, vsa_nodes, layer_names, vsa_names
        )
        streams = [list(nn) + list(vsa)] if sequential else [nn, vsa]
        breakdown, node_cycles = self._timeline(streams, mem_c_bytes)
        return DesignEvaluation(
            backend=self.info, breakdown=breakdown, node_cycles=node_cycles
        )

    # -- amortized repeat pricing ----------------------------------------------

    def partition_pricer(self, h, w, layers, vsa_nodes):
        """Repeat pricing at one geometry, equal to :meth:`parallel_cycles`.

        A node's DRAM transfers do not depend on the partition, so they
        are priced once per geometry. A node's unit occupancy
        (``compute + fill``: Eq. 1 for a layer, Eqs. 3/4 under the loop's
        Eq. 5 mapping for a VSA node) is memoized per allocation, and
        :meth:`_timeline`'s event loop runs over plain ints for the two
        parallel units with no output-buffer bound. The memos live in the
        closure, so the backend itself stays stateless.
        """
        layers = tuple(layers)
        vsa_nodes = tuple(vsa_nodes)
        xfer = self.dram.transfer_cycles
        io = (
            [tuple(map(xfer, self._layer_bytes(d))) for d in layers],
            [tuple(map(xfer, self._vsa_bytes(d))) for d in vsa_nodes],
        )
        dram_total = sum(t_in + t_out for unit in io for t_in, t_out in unit)
        nn_memo: list[dict[int, int]] = [{} for _ in layers]
        vsa_memo: list[dict[int, tuple[int, int]]] = [{} for _ in vsa_nodes]

        def price(nl: Sequence[int], nv: Sequence[int]) -> int:
            nn = []
            for memo, dims, alloc in zip(nn_memo, layers, nl):
                cycles = memo.get(alloc)
                if cycles is None:
                    cycles = memo[alloc] = layer_runtime(h, w, alloc, dims)
                nn.append(cycles)
            both = []
            for memo, dims, alloc in zip(vsa_memo, vsa_nodes, nv):
                pair = memo.get(alloc)
                if pair is None:
                    pair = memo[alloc] = (
                        vsa_node_runtime(h, w, alloc, dims, "spatial"),
                        vsa_node_runtime(h, w, alloc, dims, "temporal"),
                    )
                both.append(pair)
            # Eq. 5's whole-loop mapping: ties go to spatial.
            spatial = sum(p[0] for p in both) <= sum(p[1] for p in both)
            vsa = [p[0] if spatial else p[1] for p in both]
            durations = (nn, vsa)
            # _timeline's event loop for units (NN, VSA), unbounded MemC.
            counts = (len(nn), len(vsa))
            ptr = [0, 0]
            unit_free = [0, 0]
            dram_free = 0
            for _ in range(counts[0] + counts[1]):
                # The unit free first issues next; NN wins ties.
                u = 0 if ptr[1] == counts[1] or (
                    ptr[0] < counts[0] and unit_free[0] <= unit_free[1]
                ) else 1
                k = ptr[u]
                ptr[u] = k + 1
                t_in, t_out = io[u][k]
                # As in _timeline, a transfer waits only for the channel.
                landed = dram_free + t_in
                start = unit_free[u] if unit_free[u] > landed else landed
                dram_free = start + t_out
                unit_free[u] = start + durations[u][k]
            busy = sum(nn) + sum(vsa) + dram_total
            return busy - max(0, busy - max(unit_free[0], unit_free[1], dram_free))

        return price

    def score_geometry(self, h, w, n_sub, layers, vsa_nodes) -> GeometryScore:
        """The reference scan, with every split priced by one pricer."""
        return self._scan_splits(
            self.partition_pricer(h, w, layers, vsa_nodes),
            h, w, n_sub, layers, vsa_nodes,
        )


#: Registered backend names, in CLI-choices order. ``analytic`` is the
#: default everywhere and byte-identical to the pre-seam engine.
EVALUATION_BACKENDS: tuple[str, ...] = ("analytic", "schedule")

_BACKEND_CLASSES: dict[str, type[EvaluationBackend]] = {
    AnalyticBackend.name: AnalyticBackend,
    ScheduleBackend.name: ScheduleBackend,
}


def backend_version(name: str) -> str:
    """The registered backend's pricing-semantics version tag.

    The artifact cache keys on ``(name, version)`` so a backend whose
    pricing changes (version bump) invalidates exactly its own cached
    scenarios — no blanket epoch bump required.
    """
    try:
        return _BACKEND_CLASSES[name].version
    except KeyError:
        raise ConfigError(
            f"unknown evaluation backend {name!r}; "
            f"available: {', '.join(EVALUATION_BACKENDS)}"
        ) from None


def make_backend(
    name: str,
    *,
    precision=None,
    clock_mhz: float | None = None,
) -> EvaluationBackend:
    """Instantiate a backend by registry name.

    ``precision`` (a :class:`~repro.quant.MixedPrecisionConfig`) and
    ``clock_mhz`` parameterize the schedule backend's byte scaling and
    DRAM pipe; the analytic backend ignores both.
    """
    if name == "analytic":
        return AnalyticBackend()
    if name == "schedule":
        from ..arch.dram import DramModel

        dram = DramModel(clock_mhz=clock_mhz) if clock_mhz is not None else None
        if precision is not None:
            return ScheduleBackend.from_precision(precision, dram=dram)
        return ScheduleBackend(dram=dram)
    raise ConfigError(
        f"unknown evaluation backend {name!r}; "
        f"available: {', '.join(EVALUATION_BACKENDS)}"
    )
