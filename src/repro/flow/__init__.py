"""End-to-end NSFlow framework (paper Fig. 2).

:class:`~repro.flow.nsflow.NSFlow` wires the whole toolchain: workload →
execution trace → dataflow graph → two-phase DSE → design config →
backend instantiation (controller schedule, resource estimate, RTL
parameters, host code). One call reproduces the paper's "NSAI workload
(.py) in, deployed accelerator out" story.
"""

from .nsflow import CompiledDesign, NSFlow
from .hostcode import generate_host_code
from .artifacts import (
    ArtifactStore,
    FoldStats,
    ScenarioArtifacts,
    fold_stores,
)
from .report import (
    format_table,
    merge_summary_table,
    pareto_frontier_table,
    shard_progress_table,
    speedup_table,
    stage_timings_table,
    sweep_comparison_table,
    sweep_results_table,
    sweep_summary,
)
from .ledger import (
    ClaimRecord,
    LedgerMergeResult,
    LedgerRecord,
    MergedRow,
    RunLedger,
    merge_ledgers,
)
from .sweep import (
    DEFAULT_LEASE_TIMEOUT_S,
    ScenarioGrid,
    ScenarioOutcome,
    ScenarioSpec,
    SweepResult,
    expand_workload_axis,
    parse_shard,
    run_sweep,
    shard_filter,
    shard_index,
)

__all__ = [
    "NSFlow",
    "CompiledDesign",
    "generate_host_code",
    "format_table",
    "pareto_frontier_table",
    "speedup_table",
    "stage_timings_table",
    "sweep_results_table",
    "sweep_comparison_table",
    "sweep_summary",
    "shard_progress_table",
    "merge_summary_table",
    "ArtifactStore",
    "ScenarioArtifacts",
    "FoldStats",
    "fold_stores",
    "ScenarioSpec",
    "ScenarioGrid",
    "ScenarioOutcome",
    "SweepResult",
    "LedgerRecord",
    "ClaimRecord",
    "RunLedger",
    "MergedRow",
    "LedgerMergeResult",
    "merge_ledgers",
    "expand_workload_axis",
    "run_sweep",
    "parse_shard",
    "shard_filter",
    "shard_index",
    "DEFAULT_LEASE_TIMEOUT_S",
]
