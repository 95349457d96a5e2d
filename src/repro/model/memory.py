"""Memory sizing rules (paper Sec. V-C, "Memory and SIMD unit").

The rules as stated: ``MA1 = max(filter size in R_l)``, ``MA2 = max(node
size in R_v)`` (merged for non-parallel operation), ``MemB`` is the IFMAP
buffer, ``MemC`` holds array/SIMD outputs, the URAM cache is
``2 × (MA + MB + MC)``, and the SIMD width is the smallest that hides
element-wise latency under the concurrent array runtime.

Sizes depend on deployed precision: filters are stored at the NN precision
and VSA operands at the symbolic precision (paper Sec. IV-D: mixed
precision is also a memory optimization).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..graph.dataflow import DataflowGraph
from ..quant import MixedPrecisionConfig
from ..utils import ceil_div
from .runtime import simd_runtime

__all__ = ["MemoryPlan", "plan_memory", "simd_width"]

#: BRAM tile granularity on the target FPGAs (18 Kb blocks, Sec. IV-C).
BRAM_BLOCK_BYTES = 18 * 1024 // 8
#: URAM tile granularity (288 Kb blocks).
URAM_BLOCK_BYTES = 288 * 1024 // 8


@dataclass(frozen=True)
class MemoryPlan:
    """On-chip memory configuration produced by the DAG."""

    mem_a1_bytes: int   # NN filter chunk of MemA
    mem_a2_bytes: int   # VSA vector chunk of MemA
    mem_b_bytes: int    # IFMAP buffer
    mem_c_bytes: int    # output buffer
    cache_bytes: int    # URAM on-chip cache

    @property
    def mem_a_bytes(self) -> int:
        """Merged MemA capacity (A1 + A2, mergeable at runtime)."""
        return self.mem_a1_bytes + self.mem_a2_bytes

    @property
    def total_sram_bytes(self) -> int:
        return self.mem_a_bytes + self.mem_b_bytes + self.mem_c_bytes

    @property
    def bram_blocks(self) -> int:
        """18 Kb BRAM blocks implementing MemA/B/C."""
        return ceil_div(self.total_sram_bytes, BRAM_BLOCK_BYTES)

    @property
    def uram_blocks(self) -> int:
        """288 Kb URAM blocks implementing the cache."""
        return ceil_div(self.cache_bytes, URAM_BLOCK_BYTES)


def _round_up(value: int, granule: int) -> int:
    return ceil_div(max(value, 1), granule) * granule


def plan_memory(
    graph: DataflowGraph,
    precision: MixedPrecisionConfig,
    ifmap_tile_rows: int = 512,
) -> MemoryPlan:
    """Apply the paper's sizing rules to a dataflow graph.

    ``ifmap_tile_rows`` bounds the streaming buffers: MemB holds a working
    tile of the largest layer input (``min(m, ifmap_tile_rows) × k``
    elements) and MemC the matching output tile (``min(m, tile) × n``),
    not whole feature maps — FPGAs cannot hold full NSAI feature maps on
    chip (paper Sec. II-B), which is exactly why MemB/MemC are streaming
    buffers in front of the double-buffered DRAM path.
    """
    nn_bytes = precision.neural.bytes_per_element
    sym_bytes = precision.symbolic.bytes_per_element

    def _elem_bytes(n) -> float:
        return nn_bytes if n.domain.value == "neural" else sym_bytes

    filters = [
        n.gemm.weight_elements * _elem_bytes(n)
        for n in graph.layer_nodes
        if n.gemm is not None
    ]
    vsa_sizes = [
        n.vsa.n * n.vsa.d * sym_bytes for n in graph.vsa_nodes if n.vsa is not None
    ]
    ifmaps = [
        min(n.gemm.m, ifmap_tile_rows) * n.gemm.k * _elem_bytes(n)
        for n in graph.layer_nodes
        if n.gemm is not None
    ]
    outputs = [
        min(n.gemm.m, ifmap_tile_rows) * n.gemm.n * _elem_bytes(n)
        for n in graph.layer_nodes
        if n.gemm is not None
    ]
    outputs += [
        int(n.vsa.n * n.vsa.d * sym_bytes)
        for n in graph.vsa_nodes
        if n.vsa is not None
    ]
    # Element-wise SIMD ops are fused into the array's output drain
    # (Sec. IV-E), so they stream through the same MemC tiles as their
    # producers; standalone SIMD outputs are capped by the largest tile.
    array_tile_cap = max(outputs, default=BRAM_BLOCK_BYTES)
    outputs += [
        min(int(n.op.bytes_written / 4 * _elem_bytes(n)), int(array_tile_cap))
        for n in graph.simd_nodes
    ]

    mem_a1 = _round_up(int(max(filters, default=BRAM_BLOCK_BYTES)), BRAM_BLOCK_BYTES)
    mem_a2 = _round_up(int(max(vsa_sizes, default=BRAM_BLOCK_BYTES)), BRAM_BLOCK_BYTES)
    mem_b = _round_up(int(max(ifmaps, default=BRAM_BLOCK_BYTES)), BRAM_BLOCK_BYTES)
    mem_c = _round_up(int(max(outputs, default=BRAM_BLOCK_BYTES)), BRAM_BLOCK_BYTES)
    cache = _round_up(2 * (mem_a1 + mem_a2 + mem_b + mem_c), URAM_BLOCK_BYTES)
    return MemoryPlan(
        mem_a1_bytes=mem_a1,
        mem_a2_bytes=mem_a2,
        mem_b_bytes=mem_b,
        mem_c_bytes=mem_c,
        cache_bytes=cache,
    )


def simd_width(
    graph: DataflowGraph,
    array_runtime_cycles: int,
    array_node_cycles: dict[str, int] | None = None,
    candidates: tuple[int, ...] = (16, 32, 64, 128, 256, 512),
    slack_fraction: float = 0.02,
) -> int:
    """Smallest SIMD width that hides element-wise latency (paper rule).

    SIMD ops that directly consume an array op are *fused* into its output
    drain: they are hidden when they finish within the producer's own
    cycles (line-rate processing). Ops without an array producer must fit
    in a small slack budget (``slack_fraction`` of the array runtime).
    "SIMD size is minimized such that latency of concurrent elem-wise /
    vector reduction operations can be hidden" (Sec. V-C).
    """
    if array_runtime_cycles <= 0:
        raise ConfigError("array_runtime_cycles must be positive")
    array_node_cycles = array_node_cycles or {}
    slack = max(1, int(array_runtime_cycles * slack_fraction))

    required = min(candidates)
    for node in graph.simd_nodes:
        producer_cycles = [
            array_node_cycles[p]
            for p in graph.predecessors(node.name)
            if p in array_node_cycles
        ]
        budget = max(producer_cycles) if producer_cycles else slack
        fitted = None
        for width in sorted(candidates):
            if simd_runtime(node.op.flops, width) <= budget:
                fitted = width
                break
        required = max(required, fitted if fitted is not None else max(candidates))
    return required

