"""The NSFlow end-to-end framework (paper Fig. 2).

``NSFlow.compile(workload)`` runs the full toolchain:

1. **Trace extraction** — the workload program emits its Listing-1-style
   execution trace;
2. **Dataflow graph generation** — critical path, parallel attachments,
   optional inter-loop fusion (Sec. V-B);
3. **Two-phase DSE** — geometry, partition vectors, memory plan, SIMD
   width (Sec. V-C, Algorithm 1);
4. **Backend instantiation** — controller schedule (cycle count),
   resource estimate on the target FPGA, RTL parameter header and XRT
   host code (Sec. IV / Fig. 2 backend).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.controller import Controller, ScheduleResult
from ..arch.resources import FpgaDevice, ResourceEstimate, U250, estimate_resources
from ..arch.rtlgen import generate_rtl_parameters
from ..dse.accuracy import (
    DEFAULT_ACCURACY_PROBLEMS,
    DEFAULT_ACCURACY_SEED,
    evaluate_accuracy,
)
from ..dse.config import DesignConfig
from ..dse.engine import (
    DEFAULT_CLOCK_MHZ,
    DEFAULT_RANGE_H,
    DEFAULT_RANGE_W,
    DseEngine,
    DsePool,
    DseReport,
)
from ..errors import ConfigError
from ..graph.build import build_dataflow_graph, fuse_loops
from ..graph.dataflow import DataflowGraph
from ..model.backend import DesignEvaluation, EvaluationBackend
from ..quant import MIXED_PRECISION_PRESETS, MixedPrecisionConfig
from ..trace.opnode import Trace
from ..workloads.base import NSAIWorkload
from .hostcode import generate_host_code

__all__ = ["NSFlow", "CompiledDesign"]


@dataclass(frozen=True)
class CompiledDesign:
    """Everything NSFlow produces for one workload.

    ``evaluation`` is the chosen design re-priced through the DSE's
    evaluation backend with a full latency breakdown (compute,
    fill/drain, DRAM, overlap) — the number the ``--backend`` knob
    changes, alongside the report it produced.
    """

    workload: str
    trace: Trace
    graph: DataflowGraph
    dse: DseReport
    config: DesignConfig
    schedule: ScheduleResult
    resources: ResourceEstimate
    rtl_header: str
    host_code: str
    evaluation: DesignEvaluation | None = None

    @property
    def latency_s(self) -> float:
        """Simulated end-to-end latency of one inference."""
        return self.schedule.latency_s(self.config.clock_mhz)

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3


class NSFlow:
    """Front door of the framework: deploy NSAI workloads onto an FPGA."""

    def __init__(
        self,
        device: FpgaDevice = U250,
        precision: MixedPrecisionConfig | None = None,
        iter_max: int = 8,
        clock_mhz: float = DEFAULT_CLOCK_MHZ,
        max_pes: int | None = None,
        range_h: tuple[int, int] = DEFAULT_RANGE_H,
        range_w: tuple[int, int] = DEFAULT_RANGE_W,
        jobs: int = 1,
        pareto_k: int | None = None,
        pool: DsePool | None = None,
        backend: str | EvaluationBackend = "analytic",
        accuracy: bool = False,
        accuracy_problems: int = DEFAULT_ACCURACY_PROBLEMS,
        accuracy_seed: int = DEFAULT_ACCURACY_SEED,
    ):
        self.device = device
        self.precision = precision or MIXED_PRECISION_PRESETS["MP"]
        self.iter_max = iter_max
        self.clock_mhz = clock_mhz
        self.max_pes = max_pes or device.max_pes()
        self.range_h = range_h
        self.range_w = range_w
        self.jobs = jobs
        self.pareto_k = pareto_k
        self.pool = pool
        self.backend = backend
        self.accuracy = accuracy
        self.accuracy_problems = accuracy_problems
        self.accuracy_seed = accuracy_seed
        if self.max_pes < 4:
            raise ConfigError(f"device {device.name} supports too few PEs")
        if accuracy_problems < 1:
            raise ConfigError(
                f"accuracy_problems must be >= 1, got {accuracy_problems}"
            )

    def compile(
        self,
        workload: NSAIWorkload,
        n_loops: int = 1,
        trace: Trace | None = None,
    ) -> CompiledDesign:
        """Run the full frontend+backend flow for one workload."""
        trace = trace or workload.build_trace()
        if n_loops > 1:
            graph = fuse_loops(trace, n_loops)
        else:
            graph = build_dataflow_graph(trace)

        # The functional accuracy axis (Table IV): evaluated here — the
        # engine only sees the graph, but accuracy needs the workload's
        # executable pipeline. Memoized per (fingerprint, problems, seed).
        accuracy = (
            evaluate_accuracy(
                workload, self.accuracy_problems, self.accuracy_seed,
                precision=self.precision,
            )
            if self.accuracy
            else None
        )

        dse = DseEngine(
            max_pes=self.max_pes,
            precision=self.precision,
            iter_max=self.iter_max,
            range_h=self.range_h,
            range_w=self.range_w,
            clock_mhz=self.clock_mhz,
            jobs=self.jobs,
            pareto_k=self.pareto_k,
            pool=self.pool,
            backend=self.backend,
            accuracy=accuracy,
        )
        report = dse.explore(graph)
        config = report.config
        schedule = Controller(config).schedule(graph)
        resources = estimate_resources(config, self.device)
        layer_items = [(n.name, n.gemm) for n in graph.layer_nodes
                       if n.gemm is not None]
        vsa_items = [(n.name, n.vsa) for n in graph.vsa_nodes
                     if n.vsa is not None]
        evaluation = dse.backend.evaluate_design(
            config.h,
            config.w,
            config.n_sub,
            config.mode.value,
            config.nl,
            config.nv,
            [dims for _, dims in layer_items],
            [dims for _, dims in vsa_items],
            layer_names=[name for name, _ in layer_items],
            vsa_names=[name for name, _ in vsa_items],
            mem_c_bytes=config.memory.mem_c_bytes,
        )
        return CompiledDesign(
            workload=workload.name,
            trace=trace,
            graph=graph,
            dse=report,
            config=config,
            schedule=schedule,
            resources=resources,
            rtl_header=generate_rtl_parameters(config),
            host_code=generate_host_code(config, graph),
            evaluation=evaluation,
        )

    def latency_s(self, workload: NSAIWorkload) -> float:
        """Shortcut: compile and return the simulated latency."""
        return self.compile(workload).latency_s
