"""Two-phase design-space exploration (paper Algorithm 1, Sec. V-C).

Phase I fixes a static partition (all ``Nl[i] = N̄l``, all ``Nv[j] = N̄v``)
and sweeps the pruned ``(H, W)`` geometry space for the best parallel
runtime, falling back to sequential mode when that wins. Phase II
fine-tunes the per-node partition vectors around the Phase I point by
shifting sub-arrays between each layer and the VSA nodes that overlap it.

:class:`DseEngine` is the batched/parallel/cached implementation of the
sweep: a lazy candidate stream, chunked process-pool evaluation
(``jobs``), memoized model sub-evaluations, and a full Pareto frontier
(latency × area × energy proxy) on ``DseReport.pareto``.
"""

from .accuracy import (
    DEFAULT_ACCURACY_PROBLEMS,
    DEFAULT_ACCURACY_SEED,
    AccuracyResult,
    accuracy_cache_key,
    accuracy_cache_stats,
    clear_accuracy_cache,
    deployed_workload,
    evaluate_accuracy,
)
from .config import DesignConfig, ExecutionMode, design_config_from_json, design_config_to_json
from .phase1 import Phase1Result
from .phase2 import Phase2Result, run_phase2
from .engine import (
    DseEngine,
    DsePool,
    DseReport,
    GeometryCandidate,
    GeometryEval,
    ParetoFrontier,
    ParetoPoint,
    pareto_filter,
)
from .multifidelity import (
    MultiFidelityOutcome,
    PrunedCandidate,
    multifidelity_evaluate,
)
from .timing import (
    StageStat,
    clear_stage_timings,
    stage_timings,
    stage_timings_since,
    timings_snapshot,
)

__all__ = [
    "DEFAULT_ACCURACY_PROBLEMS",
    "DEFAULT_ACCURACY_SEED",
    "AccuracyResult",
    "accuracy_cache_key",
    "accuracy_cache_stats",
    "clear_accuracy_cache",
    "deployed_workload",
    "evaluate_accuracy",
    "DesignConfig",
    "ExecutionMode",
    "design_config_to_json",
    "design_config_from_json",
    "Phase1Result",
    "Phase2Result",
    "run_phase2",
    "DseEngine",
    "DsePool",
    "DseReport",
    "GeometryCandidate",
    "GeometryEval",
    "ParetoFrontier",
    "ParetoPoint",
    "pareto_filter",
    "MultiFidelityOutcome",
    "PrunedCandidate",
    "multifidelity_evaluate",
    "StageStat",
    "stage_timings",
    "stage_timings_since",
    "timings_snapshot",
    "clear_stage_timings",
]
