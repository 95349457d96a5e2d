"""Two-phase design-space exploration (paper Algorithm 1, Sec. V-C).

Phase I fixes a static partition (all ``Nl[i] = N̄l``, all ``Nv[j] = N̄v``)
and sweeps the pruned ``(H, W)`` geometry space for the best parallel
runtime, falling back to sequential mode when that wins. Phase II
fine-tunes the per-node partition vectors around the Phase I point by
shifting sub-arrays between each layer and the VSA nodes that overlap it.

:class:`DseEngine` is the batched implementation of the sweep: a lazy
candidate stream screened in-process, the memory and SIMD sizing rules
applied once to the winning design, and a full Pareto frontier
(latency × area × energy proxy) on ``DseReport.pareto``. Stage timings
(:mod:`.timing`) only grow; a caller diffs two ``timings_snapshot()``
calls with ``stage_timings_since()``.

Names resolve on first use (:mod:`repro._lazy`); a compile runs every
module here, so importing the compile pipeline loads them all anyway.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "accuracy": [
        "DEFAULT_ACCURACY_PROBLEMS",
        "DEFAULT_ACCURACY_SEED",
        "AccuracyResult",
        "accuracy_cache_key",
        "accuracy_cache_stats",
        "clear_accuracy_cache",
        "deployed_workload",
        "evaluate_accuracy",
    ],
    "config": [
        "DesignConfig", "ExecutionMode", "design_config_to_json", "design_config_from_json",
    ],
    "phase1": ["Phase1Result"],
    "phase2": ["Phase2Result", "run_phase2"],
    "engine": [
        "DseEngine",
        "DseReport",
        "GeometryCandidate",
        "GeometryEval",
        "ParetoFrontier",
        "ParetoPoint",
        "pareto_filter",
    ],
    "multifidelity": ["MultiFidelityOutcome", "PrunedCandidate", "multifidelity_evaluate"],
    "timing": ["StageStat", "stage_timings_since", "timings_snapshot"],
})
