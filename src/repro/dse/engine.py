"""Batched Pareto exploration engine.

This is the scalable successor to the serial Phase I sweep: the same
two-phase co-exploration of paper Algorithm 1, restructured as

1. a **lazy candidate stream** — :meth:`DseEngine.iter_candidates`
   enumerates pruned ``(H, W, N)`` geometries without materializing the
   design space;
2. **one Phase I path** — :meth:`DseEngine.evaluate` screens every
   candidate in-process with the analytic backend's integer pricing and
   monotone partition bisection; the reduction walks candidates in
   enumeration order with strict-``<`` tie-breaking, so the first
   candidate in sweep order wins every tie;
3. **a pluggable cost-model seam** — every design point is priced
   through an :class:`repro.model.backend.EvaluationBackend`. Under the
   default :class:`~repro.model.backend.AnalyticBackend` the screen is
   final; any other backend (``backend="schedule"`` re-ranks designs by
   memory-aware end-to-end time) prices only the candidates the
   analytic lower bound cannot prune (:mod:`repro.dse.multifidelity`),
   with a report byte-identical to pricing them all;
4. **direct sub-models** — the memory plan and SIMD width are computed
   once per exploration, straight from :mod:`repro.model.memory`; the
   SIMD rule's per-node latencies hit the ``lru_cache``-backed models of
   :mod:`repro.model.runtime`;
5. a **full Pareto frontier** — instead of a single winner, every
   geometry contributes a (latency, area, energy-proxy) point and the
   report carries the non-dominated set (:class:`ParetoFrontier`) with
   deterministic tie-breaking (see DESIGN.md "Pareto frontier
   semantics").
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from ..errors import DSEError
from ..graph.dataflow import DataflowGraph
from ..model.backend import (
    EVALUATION_BACKENDS,
    AnalyticBackend,
    BackendInfo,
    EvaluationBackend,
    GeometryScore,
    make_backend,
)
from ..model.designspace import (
    DesignSpaceSize,
    design_space_size,
    hw_config_candidates,
)
from ..model.memory import plan_memory, simd_width
from ..model.runtime import layer_runtime, vsa_node_runtime
from ..nn.gemm import GemmDims
from ..quant import MIXED_PRECISION_PRESETS, MixedPrecisionConfig
from ..trace.opnode import VsaDims
from ..utils import is_power_of_two, log2_int
from .accuracy import AccuracyResult
from .config import DesignConfig, ExecutionMode
from .multifidelity import PrunedCandidate, multifidelity_evaluate
from .phase1 import Phase1Result, extract_cost_dims
from .phase2 import Phase2Result, run_phase2
from .timing import record_stage, time_stage

__all__ = [
    "GeometryCandidate",
    "GeometryEval",
    "ParetoPoint",
    "ParetoFrontier",
    "DseReport",
    "DseEngine",
    "pareto_filter",
    "area_pe_equiv",
    "DEFAULT_CLOCK_MHZ",
    "DEFAULT_RANGE_H",
    "DEFAULT_RANGE_W",
    "EVALUATION_BACKENDS",
]

#: The paper's deployment clock and geometry sweep ranges. These are the
#: single source of truth shared by :class:`DseEngine`,
#: :class:`repro.flow.nsflow.NSFlow`, and the artifact cache key
#: (:mod:`repro.flow.artifacts`) — changing a default here changes the
#: key, so previously cached scenarios correctly become misses.
DEFAULT_CLOCK_MHZ = 272.0
DEFAULT_RANGE_H: tuple[int, int] = (4, 256)
DEFAULT_RANGE_W: tuple[int, int] = (4, 256)

#: The Phase I screen. Stateless, so one shared instance serves every
#: engine.
_ANALYTIC_BACKEND = AnalyticBackend()


@dataclass(frozen=True)
class GeometryCandidate:
    """One point of the lazy geometry stream: ``(H, W, N)`` plus its rank.

    ``index`` is the candidate's position in enumeration order; the
    Phase I reduction and the multi-fidelity screen break ties on it, so
    the first candidate in sweep order wins.
    """

    index: int
    h: int
    w: int
    n_sub: int

    @property
    def total_pes(self) -> int:
        return self.h * self.w * self.n_sub


@dataclass(frozen=True)
class GeometryEval:
    """Scores of one geometry: best static partition + sequential schedule.

    ``evaluated`` counts the *logical* candidate design points this
    geometry covers (one sequential schedule plus every static split) —
    a pure function of the geometry, so report counters never depend on
    how the split was searched. ``probes`` counts the candidate points
    actually priced, in the same units: ``evaluated`` for a dense scan,
    ``O(log N)`` for the bisection.
    """

    index: int
    h: int
    w: int
    n_sub: int
    t_sequential: int
    t_parallel: int
    nl_bar: int
    nv_bar: int
    evaluated: int   # logical candidate design points covered
    probes: int = 0  # candidate design points actually priced

    @property
    def best_cycles(self) -> int:
        return min(self.t_sequential, self.t_parallel)

    @property
    def mode(self) -> ExecutionMode:
        """Per-point mode under the engine's tie-breaking (parallel on tie)."""
        if self.t_sequential < self.t_parallel:
            return ExecutionMode.SEQUENTIAL
        return ExecutionMode.PARALLEL

    @property
    def total_pes(self) -> int:
        return self.h * self.w * self.n_sub


#: Periphery cost per sub-array edge cell, in PE-equivalents: input skew
#: registers along the W edge and accumulate/drain cells along the H edge
#: (the Fig. 3 passing-register columns). Folding the array into many
#: small sub-arrays multiplies this periphery.
PERIPHERY_PE_EQUIV = 1
#: Fixed per-sub-array control overhead (FSM, partition mux) in
#: PE-equivalents.
SUBARRAY_PE_EQUIV = 8


def area_pe_equiv(h: int, w: int, n_sub: int) -> int:
    """Area proxy of an ``(H, W, N)`` AdArray, in PE-equivalents.

    ``H·W·N`` PEs plus per-sub-array periphery and control: every one of
    the ``N`` sub-arrays pays ``H + W`` edge cells and a fixed controller
    slice. Since ``H·W·N`` equals the power-of-two PE budget for every
    candidate, the overhead terms are what differentiate geometries —
    many small sub-arrays buy schedule flexibility (latency) with real
    periphery area.
    """
    return (
        h * w * n_sub
        + n_sub * (h + w) * PERIPHERY_PE_EQUIV
        + n_sub * SUBARRAY_PE_EQUIV
    )


@dataclass(frozen=True)
class ParetoPoint:
    """One frontier point in the latency × area × energy (× accuracy) space.

    * ``cycles`` — estimated runtime of the geometry's best schedule;
    * ``area`` — PE-equivalents including per-sub-array periphery
      (:func:`area_pe_equiv`);
    * ``energy_proxy`` — ``cycles × area`` (area-cycles switched);
    * ``accuracy`` — seeded functional task accuracy of the scenario's
      workload under its quantization config, or ``None`` when accuracy
      evaluation is off (or the workload has no functional pipeline).
      Within one report accuracy is constant across geometries (it
      depends on precision and vector dimensions, not on the array
      shape), so it never changes which points survive the per-report
      filter — the four-axis trade-off materializes *across* scenarios.
    """

    h: int
    w: int
    n_sub: int
    mode: ExecutionMode
    nl_bar: int
    nv_bar: int
    cycles: int
    area: int
    energy_proxy: int
    accuracy: float | None = None

    @property
    def geometry(self) -> tuple[int, int, int]:
        return (self.h, self.w, self.n_sub)

    @property
    def total_pes(self) -> int:
        return self.h * self.w * self.n_sub

    @property
    def objectives(self) -> tuple[float, ...]:
        """The minimized objective vector (latency, area, energy[, -acc]).

        Accuracy joins as a *negated* fourth component (dominance
        minimizes every axis). Points without accuracy keep the exact
        three-axis vector, so accuracy-off behaviour is unchanged.
        """
        if self.accuracy is None:
            return (self.cycles, self.area, self.energy_proxy)
        return (self.cycles, self.area, self.energy_proxy, -self.accuracy)

    def latency_s(self, clock_mhz: float) -> float:
        return self.cycles / (clock_mhz * 1e6)


@dataclass(frozen=True)
class ParetoFrontier:
    """Non-dominated design points, sorted by ascending latency.

    ``geometries_evaluated`` counts the candidate geometries scored,
    ``non_dominated`` the size of the full frontier, and ``dominated``
    everything off it — strictly dominated points plus exact-objective
    duplicates dropped by the deterministic tie-break —
    so ``geometries_evaluated == non_dominated + dominated`` always.
    ``pareto_k`` truncation only shortens ``points``
    (``len(frontier) <= non_dominated``); it never rewrites the
    accounting.
    """

    points: tuple[ParetoPoint, ...]
    geometries_evaluated: int
    non_dominated: int
    dominated: int

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[ParetoPoint]:
        return iter(self.points)

    def __bool__(self) -> bool:
        return bool(self.points)

    @property
    def best_latency(self) -> ParetoPoint:
        """The frontier's latency-optimal point (the classic DSE winner)."""
        if not self.points:
            raise DSEError("empty Pareto frontier")
        return self.points[0]


@dataclass(frozen=True)
class DseReport:
    """Everything the DSE learned on the way to its design.

    ``backend`` records the cost model (name + version tag) every number
    in this report was priced with, so persisted artifacts are
    self-describing about their provenance.
    """

    config: DesignConfig
    phase1: Phase1Result
    phase2: Phase2Result
    space: DesignSpaceSize
    pareto: ParetoFrontier | None = None
    backend: BackendInfo | None = None
    #: Seeded functional accuracy of the workload under its quantization
    #: config (``None`` when accuracy evaluation was off).
    accuracy: "AccuracyResult | None" = None

    @property
    def phase2_gain(self) -> float:
        """Fractional runtime gain of Phase II over Phase I (Fig. 6 line)."""
        return self.phase2.gain_over(self.phase1.t_parallel)


def _dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and better somewhere."""
    ao, bo = a.objectives, b.objectives
    return all(x <= y for x, y in zip(ao, bo)) and ao != bo


def pareto_filter(points: Sequence[ParetoPoint]) -> list[ParetoPoint]:
    """Non-dominated subset of ``points``, deterministically ordered.

    Points are sorted by (latency, area, energy, H, W) ascending; exact
    objective ties keep the first point in that order (lowest ``H``, then
    ``W``), so the frontier is a pure function of the candidate set.
    """
    ordered = sorted(
        points, key=lambda p: (*p.objectives, p.h, p.w, p.n_sub)
    )
    frontier: list[ParetoPoint] = []
    seen: set[tuple[int, int, int]] = set()
    for p in ordered:
        if p.objectives in seen:
            continue
        if any(_dominates(q, p) for q in frontier):
            continue
        seen.add(p.objectives)
        frontier.append(p)
    return frontier


def _eval_from_score(cand: GeometryCandidate, score: GeometryScore) -> GeometryEval:
    """Attach the engine's enumeration index to a backend score."""
    return GeometryEval(
        index=cand.index,
        h=cand.h,
        w=cand.w,
        n_sub=cand.n_sub,
        t_sequential=score.t_sequential,
        t_parallel=score.t_parallel,
        nl_bar=score.nl_bar,
        nv_bar=score.nv_bar,
        evaluated=score.evaluated,
        probes=score.probes,
    )


def _evaluate_candidates(
    candidates: Sequence[GeometryCandidate],
    layers: tuple[GemmDims, ...],
    vsa_nodes: tuple[VsaDims, ...],
) -> list[GeometryEval]:
    """Screen a batch of geometries with the analytic backend.

    The workload's dimensions are grouped once for the whole batch;
    each geometry then prices its sequential schedule and bisects for
    its split over the groups.
    """
    scores = _ANALYTIC_BACKEND.score_geometries(
        [(c.h, c.w, c.n_sub) for c in candidates], layers, vsa_nodes
    )
    return [_eval_from_score(c, s) for c, s in zip(candidates, scores)]


class DseEngine:
    """Pareto design-space exploration (Algorithm 1, batched).

    Parameters
    ----------
    max_pes:
        The PE budget ``M`` (a power of two; set from the FPGA's DSP
        budget by :mod:`repro.arch.resources`).
    precision:
        Mixed-precision deployment config (affects memory sizing only;
        the cycle models are precision-independent as in the paper).
    iter_max:
        Phase II iteration cap (``Iter_max``).
    pareto_k:
        Keep only the ``k`` lowest-latency frontier points in the
        report (``None`` or ``0`` keeps the full frontier, matching the
        CLI's ``--pareto-k 0`` convention).
    backend:
        The cost model every design point is priced with: a registry
        name (``"analytic"`` — the default, the paper's Eqs. 1-5 — or
        ``"schedule"`` — the memory-aware event-driven timeline), or an
        :class:`~repro.model.backend.EvaluationBackend` instance, which
        must never price below the analytic model. This knob **changes
        results**, so it joins the artifact-cache key and is stamped
        into every report (see DESIGN.md "Evaluation backends").

    The whole exploration runs in the calling process: a Phase I screen
    takes milliseconds, so scenarios — not candidates — are the unit of
    parallelism (several ``repro sweep --shard i/N`` processes over one
    ledger).
    """

    def __init__(
        self,
        max_pes: int = 8192,
        precision: MixedPrecisionConfig | None = None,
        iter_max: int = 8,
        range_h: tuple[int, int] = DEFAULT_RANGE_H,
        range_w: tuple[int, int] = DEFAULT_RANGE_W,
        clock_mhz: float = DEFAULT_CLOCK_MHZ,
        pareto_k: int | None = None,
        aspect_min: float = 0.25,
        aspect_max: float = 16.0,
        backend: str | EvaluationBackend = "analytic",
        accuracy: AccuracyResult | None = None,
    ):
        if not is_power_of_two(max_pes):
            raise DSEError(f"max_pes must be a power of two, got {max_pes}")
        if pareto_k == 0:
            pareto_k = None
        if pareto_k is not None and pareto_k < 1:
            raise DSEError(f"pareto_k must be >= 0, got {pareto_k}")
        self.max_pes = max_pes
        self.precision = precision or MIXED_PRECISION_PRESETS["MP"]
        if isinstance(backend, str):
            if backend not in EVALUATION_BACKENDS:
                raise DSEError(
                    f"backend must be one of {', '.join(EVALUATION_BACKENDS)}, "
                    f"got {backend!r}"
                )
            backend = make_backend(
                backend, precision=self.precision, clock_mhz=clock_mhz
            )
        self.backend = backend
        self.iter_max = iter_max
        self.range_h = range_h
        self.range_w = range_w
        self.clock_mhz = clock_mhz
        self.pareto_k = pareto_k
        self.aspect_min = aspect_min
        self.aspect_max = aspect_max
        #: Pre-computed functional accuracy of the workload being explored
        #: (the engine only sees the graph, so the caller — NSFlow —
        #: evaluates and injects it). Stamped onto every frontier point.
        self.accuracy = accuracy

    # -- candidate stream ------------------------------------------------------

    def iter_candidates(self) -> Iterator[GeometryCandidate]:
        """Lazily enumerate feasible pruned geometries in sweep order."""
        m = log2_int(self.max_pes)
        index = 0
        for h, w in hw_config_candidates(m, self.aspect_min, self.aspect_max,
                                         prune=True):
            if not (self.range_h[0] <= h <= self.range_h[1]
                    and self.range_w[0] <= w <= self.range_w[1]):
                continue
            n_sub = self.max_pes // (h * w)
            if n_sub < 2:
                continue
            yield GeometryCandidate(index=index, h=h, w=w, n_sub=n_sub)
            index += 1

    # -- evaluation ------------------------------------------------------------

    def evaluate(
        self,
        graph: DataflowGraph,
        cost_dims: tuple[list[GemmDims], list[VsaDims]] | None = None,
    ) -> tuple[list[GeometryEval], tuple[PrunedCandidate, ...]]:
        """Phase I: score every candidate geometry.

        The analytic screen scores the whole candidate stream. Under the
        plain :class:`~repro.model.backend.AnalyticBackend` those scores
        are final; any other backend — including an ``AnalyticBackend``
        subclass that overrides pricing — prices only the candidates the
        screen's lower bounds cannot prune
        (:mod:`repro.dse.multifidelity`). Returns the priced evals in
        candidate order and the pruned candidates; the report built from
        them is byte-identical to pricing every candidate. Wall-clock and
        counts accrue to the ``phase1.*`` stages of
        :mod:`repro.dse.timing`. ``cost_dims`` is
        ``extract_cost_dims(graph)`` when the caller holds it already.
        """
        if cost_dims is None:
            cost_dims = extract_cost_dims(graph)
        layer_list, vsa_list = cost_dims
        layers = tuple(layer_list)
        vsa_nodes = tuple(vsa_list)
        candidates = list(self.iter_candidates())
        if not candidates:
            raise DSEError(
                f"no feasible geometry for max_pes={self.max_pes} within "
                f"H range {self.range_h}, W range {self.range_w}"
            )
        t0 = time.perf_counter()
        evals = _evaluate_candidates(candidates, layers, vsa_nodes)
        probes = sum(ev.probes for ev in evals)
        pruned: tuple[PrunedCandidate, ...] = ()
        if type(self.backend) is not AnalyticBackend:
            mf = multifidelity_evaluate(evals, layers, vsa_nodes, self.backend)
            evals, pruned = mf.evals, mf.pruned
            probes += mf.priced_probes
            record_stage("phase1.mf_screened", items=mf.screened)
            record_stage("phase1.mf_priced", items=mf.priced)
            record_stage("phase1.mf_pruned", items=len(pruned))
        record_stage(
            "phase1.sweep", time.perf_counter() - t0, items=len(candidates)
        )
        record_stage("phase1.model_probes", items=probes)
        return evals, pruned

    @staticmethod
    def _reduce_phase1(
        evals: Sequence[GeometryEval], extra_evaluated: int = 0
    ) -> Phase1Result:
        """Merge per-geometry winners into the serial sweep's Phase I result.

        Strict-``<`` updates in candidate order reproduce the serial
        first-wins semantics exactly (DESIGN.md "Phase I determinism").
        ``extra_evaluated`` accounts the logical design points of
        candidates the screen pruned without pricing, so
        ``candidates_evaluated`` equals pricing every candidate (pruned
        candidates can never be either winner — that is the pruning
        rule's admissibility guarantee).
        """
        best_para: GeometryEval | None = None
        best_seq: GeometryEval | None = None
        evaluated = extra_evaluated
        for ev in sorted(evals, key=lambda e: e.index):
            evaluated += ev.evaluated
            if best_seq is None or ev.t_sequential < best_seq.t_sequential:
                best_seq = ev
            if best_para is None or ev.t_parallel < best_para.t_parallel:
                best_para = ev
        assert best_para is not None and best_seq is not None
        return Phase1Result(
            h=best_para.h,
            w=best_para.w,
            n_sub=best_para.n_sub,
            nl_bar=best_para.nl_bar,
            nv_bar=best_para.nv_bar,
            t_parallel=best_para.t_parallel,
            seq_h=best_seq.h,
            seq_w=best_seq.w,
            seq_n_sub=best_seq.n_sub,
            t_sequential=best_seq.t_sequential,
            candidates_evaluated=evaluated,
        )

    def _frontier(
        self, evals: Sequence[GeometryEval], extra_dominated: int = 0
    ) -> ParetoFrontier:
        """Assemble the frontier; ``extra_dominated`` counts pruned candidates.

        A candidate the screen pruned is *provably* dominated, and
        dominated points never change which other points survive
        :func:`pareto_filter` — so the frontier's point set is unchanged
        and the pruned candidates only join the ``dominated`` (and
        ``geometries_evaluated``) accounting, keeping the report
        byte-identical to pricing every candidate.
        """
        acc_value = self.accuracy.value if self.accuracy is not None else None
        points = []
        for ev in evals:
            cycles = ev.best_cycles
            area = area_pe_equiv(ev.h, ev.w, ev.n_sub)
            points.append(ParetoPoint(
                h=ev.h,
                w=ev.w,
                n_sub=ev.n_sub,
                mode=ev.mode,
                nl_bar=ev.nl_bar,
                nv_bar=ev.nv_bar,
                cycles=cycles,
                area=area,
                energy_proxy=cycles * area,
                accuracy=acc_value,
            ))
        frontier = pareto_filter(points)
        non_dominated = len(frontier)
        if self.pareto_k is not None:
            frontier = frontier[: self.pareto_k]
        return ParetoFrontier(
            points=tuple(frontier),
            geometries_evaluated=len(evals) + extra_dominated,
            non_dominated=non_dominated,
            dominated=len(points) - non_dominated + extra_dominated,
        )

    # -- full exploration ------------------------------------------------------

    def explore(self, graph: DataflowGraph) -> DseReport:
        """Run the batched sweep, Phase II refinement, and frontier assembly.

        The sequential fallback is compared against the *refined* parallel
        runtime: Phase II is what exposes parallel mode's granularity
        advantage, so deciding the mode before refinement would be biased
        toward sequential (DESIGN.md "Interpretation notes").
        """
        cost_dims = extract_cost_dims(graph)
        evals, pruned = self.evaluate(graph, cost_dims)
        phase1 = self._reduce_phase1(
            evals, extra_evaluated=sum(p.evaluated for p in pruned)
        )
        t0 = time.perf_counter()
        phase2 = run_phase2(
            graph, phase1, self.iter_max, backend=self.backend, cost_dims=cost_dims
        )
        record_stage(
            "phase2.refine", time.perf_counter() - t0,
            items=phase2.iterations_run,
        )
        if phase1.t_sequential < phase2.t_parallel:
            mode = ExecutionMode.SEQUENTIAL
            best_cycles = phase1.t_sequential
            geometry = (phase1.seq_h, phase1.seq_w, phase1.seq_n_sub)
            # Whole array for each unit in turn.
            nl = tuple([geometry[2]] * len(graph.layer_nodes))
            nv = tuple([geometry[2]] * len(graph.vsa_nodes))
        else:
            mode = ExecutionMode.PARALLEL
            best_cycles = phase2.t_parallel
            geometry = (phase1.h, phase1.w, phase1.n_sub)
            nl, nv = phase2.nl, phase2.nv

        memory = plan_memory(graph, self.precision)
        simd = simd_width(
            graph,
            max(best_cycles, 1),
            self._array_node_cycles(graph, geometry, mode, nl, nv),
        )
        n_vsa = max(len(graph.vsa_nodes), 1)
        space = design_space_size(
            m=int(math.log2(self.max_pes)),
            n_layer_nodes=max(len(graph.layer_nodes), 1),
            n_vsa_nodes=n_vsa,
            iter_max=self.iter_max,
        )
        config = DesignConfig(
            workload=graph.workload,
            h=geometry[0],
            w=geometry[1],
            n_sub=geometry[2],
            nl=nl,
            nv=nv,
            nl_bar=phase1.nl_bar,
            nv_bar=phase1.nv_bar,
            mode=mode,
            simd_width=simd,
            memory=memory,
            precision=self.precision,
            clock_mhz=self.clock_mhz,
            estimated_cycles=int(best_cycles),
            extras={
                "phase1_cycles": phase1.t_parallel,
                "sequential_cycles": phase1.t_sequential,
                "phase2_gain": phase2.gain_over(phase1.t_parallel)
                if phase1.t_parallel > 0
                else 0.0,
                "candidates_evaluated": phase1.candidates_evaluated,
            },
        )
        with time_stage("pareto.filter", items=len(evals)):
            pareto = self._frontier(evals, extra_dominated=len(pruned))
        return DseReport(
            config=config,
            phase1=phase1,
            phase2=phase2,
            space=space,
            pareto=pareto,
            backend=self.backend.info,
            accuracy=self.accuracy,
        )

    @staticmethod
    def _array_node_cycles(
        graph: DataflowGraph,
        geometry: tuple[int, int, int],
        mode: ExecutionMode,
        nl: tuple[int, ...],
        nv: tuple[int, ...],
    ) -> dict[str, int]:
        """Per-array-node cycle estimates for the SIMD-width fusion rule."""
        h, w, n_sub = geometry
        cycles: dict[str, int] = {}
        for i, node in enumerate(graph.layer_nodes):
            alloc = n_sub if mode is ExecutionMode.SEQUENTIAL else nl[i]
            assert node.gemm is not None
            cycles[node.name] = layer_runtime(h, w, alloc, node.gemm)
        for j, node in enumerate(graph.vsa_nodes):
            alloc = n_sub if mode is ExecutionMode.SEQUENTIAL else nv[j]
            assert node.vsa is not None
            cycles[node.name] = vsa_node_runtime(h, w, alloc, node.vsa, "best")
        return cycles
