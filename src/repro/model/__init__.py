"""Analytical cost models (paper Sec. V-C, Eqs. 1-5, and Table II).

The models here are the DSE's objective function: cycle-count estimates of
NN layers and VSA nodes on the AdArray for a given ``(H, W, N)`` geometry
and partition vectors ``Nl, Nv``, plus the memory sizing rules and the
design-space accounting that Table II reports. :mod:`.runtime` holds the
scalar reference models; :mod:`.pricing` regroups them over a workload's
distinct dimensions in exact Python ints for the DSE's hot path (the
analytic backend's Phase I screen and Phase II pricer).

Names resolve on first use (:mod:`repro._lazy`).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "runtime": [
        "layer_runtime",
        "nn_total_runtime",
        "vsa_node_runtime",
        "vsa_total_runtime",
        "vsa_streaming_latency",
        "sequential_runtime",
        "parallel_runtime",
        "simd_runtime",
    ],
    "memory": ["MemoryPlan", "plan_memory", "simd_width"],
    "designspace": ["DesignSpaceSize", "design_space_size"],
    "pricing": ["WorkloadGroups", "UniformSplits", "PartitionSearchOutcome", "partition_pricer"],
    "backend": [
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
    ],
    "cache": ["clear_model_caches", "cumulative_snapshot"],
})
