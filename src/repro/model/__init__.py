"""Analytical cost models (paper Sec. V-C, Eqs. 1-5, and Table II).

The models here are the DSE's objective function: cycle-count estimates of
NN layers and VSA nodes on the AdArray for a given ``(H, W, N)`` geometry
and partition vectors ``Nl, Nv``, plus the memory sizing rules and the
design-space accounting that Table II reports. :mod:`.runtime` holds the
scalar reference models; :mod:`.pricing` regroups them over a workload's
distinct dimensions in exact Python ints for the DSE's hot path (the
analytic backend's Phase I screen and Phase II pricer).
"""

from .runtime import (
    layer_runtime,
    nn_total_runtime,
    parallel_runtime,
    sequential_runtime,
    simd_runtime,
    vsa_node_runtime,
    vsa_streaming_latency,
    vsa_total_runtime,
)
from .memory import MemoryPlan, plan_memory, simd_width
from .designspace import DesignSpaceSize, design_space_size
from .pricing import (
    PartitionSearchOutcome,
    UniformSplits,
    WorkloadGroups,
    partition_pricer,
)
from .backend import (
    EVALUATION_BACKENDS,
    AnalyticBackend,
    BackendInfo,
    CycleBreakdown,
    DesignEvaluation,
    EvaluationBackend,
    GeometryScore,
    ScheduleBackend,
    backend_version,
    make_backend,
)
from .cache import (
    CacheStats,
    EvalCache,
    cache_stats,
    cached_layer_runtime,
    cached_plan_memory,
    cached_simd_width,
    cached_vsa_node_runtime,
    clear_model_caches,
    graph_cache_key,
)

__all__ = [
    "layer_runtime",
    "nn_total_runtime",
    "vsa_node_runtime",
    "vsa_total_runtime",
    "vsa_streaming_latency",
    "sequential_runtime",
    "parallel_runtime",
    "simd_runtime",
    "MemoryPlan",
    "plan_memory",
    "simd_width",
    "DesignSpaceSize",
    "design_space_size",
    "WorkloadGroups",
    "UniformSplits",
    "PartitionSearchOutcome",
    "partition_pricer",
    "EVALUATION_BACKENDS",
    "AnalyticBackend",
    "BackendInfo",
    "CycleBreakdown",
    "DesignEvaluation",
    "EvaluationBackend",
    "GeometryScore",
    "ScheduleBackend",
    "backend_version",
    "make_backend",
    "CacheStats",
    "EvalCache",
    "cache_stats",
    "cached_layer_runtime",
    "cached_vsa_node_runtime",
    "cached_plan_memory",
    "cached_simd_width",
    "clear_model_caches",
    "graph_cache_key",
]
